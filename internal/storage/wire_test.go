package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bdcc/internal/vector"
)

// wireFixture builds a table of n rows whose columns between them take every
// encoding their kind has — raw, run-length and frame-of-reference int64s;
// raw and run-length float64s with NaN payloads, infinities and both zeros;
// raw, run-length and dictionary strings — with the encoding changing from
// chunk to chunk inside a column.
func wireFixture(t testing.TB, n int, compress bool) *Table {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n) + 5))
	odd := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000abc), math.Copysign(0, -1), 0,
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.MaxFloat64}
	modes := []string{"AIR", "", "MAIL", "RAIL", "SHIP", "TRUCK"}
	wide := make([]int64, n)
	mixed := make([]int64, n)
	narrow := make([]int64, n)
	price := make([]float64, n)
	flag := make([]float64, n)
	note := make([]string, n)
	status := make([]string, n)
	mode := make([]string, n)
	for i := 0; i < n; i++ {
		wide[i] = int64(rng.Uint64())
		mixed[i] = int64(i / 300)
		if i/128%2 == 1 {
			mixed[i] = rng.Int63()
		}
		narrow[i] = 1_000_000 + int64(rng.Intn(5000))
		price[i] = math.Floor(rng.Float64()*1e6) / 100
		if i%97 == 0 {
			price[i] = odd[rng.Intn(len(odd))]
		}
		flag[i] = odd[i/200%len(odd)]
		note[i] = fmt.Sprintf("note %d of %d", rng.Int63(), i)
		status[i] = []string{"F", "O", "P"}[i/500%3]
		mode[i] = modes[rng.Intn(len(modes))]
	}
	tab, err := NewTable("wire", 1<<10,
		NewInt64Column("wide", wide), NewInt64Column("mixed", mixed), NewDecimalColumn("narrow", narrow, 2),
		NewFloat64Column("price", price), NewFloat64Column("flag", flag),
		NewStringColumn("note", note), NewStringColumn("status", status), NewStringColumn("mode", mode))
	if err != nil {
		t.Fatal(err)
	}
	if compress {
		tab.Compress()
	}
	return tab
}

// adopt feeds frames to a fresh adopter shaped like tab.
func adopt(tab *Table, frames [][]byte) (*Table, int64, error) {
	names := make([]string, len(tab.Cols))
	kinds := make([]vector.Kind, len(tab.Cols))
	for i, c := range tab.Cols {
		names[i], kinds[i] = c.Name, c.Kind
	}
	a, err := NewTableAdopter(tab.Name, tab.PageSize, tab.Rows(), tab.Compressed(), names, kinds)
	if err != nil {
		return nil, 0, err
	}
	var resident int64
	for i, f := range frames {
		n, done, err := a.Add(f)
		if err != nil {
			return nil, 0, err
		}
		if done != (i == len(frames)-1) {
			return nil, 0, fmt.Errorf("done=%v after frame %d of %d", done, i+1, len(frames))
		}
		resident += n
	}
	out, err := a.Table()
	return out, resident, err
}

func bitsOf(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// sameStored fails unless got is, to a reader and to the I/O model, the table
// want is: every chunk (encoding, rows, modeled bytes, runs, packed bytes,
// bounds and values by bit pattern), dictionaries, widths, page counts,
// zonemaps, and what a reader produces batch by batch.
func sameStored(t *testing.T, got, want *Table) {
	t.Helper()
	if got.Name != want.Name || got.PageSize != want.PageSize || got.Rows() != want.Rows() ||
		got.Compressed() != want.Compressed() || len(got.Cols) != len(want.Cols) {
		t.Fatalf("table %q: %d rows × %d columns, page %d, compressed %v; want %q: %d × %d, %d, %v",
			got.Name, got.Rows(), len(got.Cols), got.PageSize, got.Compressed(),
			want.Name, want.Rows(), len(want.Cols), want.PageSize, want.Compressed())
	}
	all := make([]int, len(want.Cols))
	for i, w := range want.Cols {
		all[i] = i
		g := got.Cols[i]
		if g.Name != w.Name || g.Kind != w.Kind || g.Scale != w.Scale || g.Len() != w.Len() || g.width != w.width || got.Pages(g) != want.Pages(w) {
			t.Fatalf("column %d: %s(%d) %s, %d values, width %v, %d pages; want %s(%d) %s, %d, %v, %d", i, g.Kind, g.Scale, g.Name,
				g.Len(), g.width, got.Pages(g), w.Kind, w.Scale, w.Name, w.Len(), w.width, want.Pages(w))
		}
		if !want.Compressed() {
			continue // raw chunks of any length: the reader below holds the values
		}
		ge, we := g.Enc, w.Enc
		if ge.ChunkRows != we.ChunkRows || !slices.Equal(ge.Dict, we.Dict) || ge.DictBits != we.DictBits ||
			ge.DictBytes != we.DictBytes || ge.RawBytes != we.RawBytes || ge.EncodedBytes != we.EncodedBytes ||
			ge.Counts != we.Counts || len(ge.Chunks) != len(we.Chunks) {
			t.Fatalf("column %s: encoding header %+v, want %+v", w.Name, *ge, *we)
		}
		for k := range we.Chunks {
			gc, wc := &ge.Chunks[k], &we.Chunks[k]
			if gc.Enc != wc.Enc || gc.Start != wc.Start || gc.Rows != wc.Rows || gc.Bytes != wc.Bytes ||
				gc.Base != wc.Base || gc.BitW != wc.BitW || !bytes.Equal(gc.Packed, wc.Packed) ||
				!slices.Equal(gc.RunN, wc.RunN) || !slices.Equal(gc.RunI, wc.RunI) ||
				!slices.Equal(gc.RunS, wc.RunS) ||
				!slices.Equal(gc.ValI, wc.ValI) || !slices.Equal(bitsOf(gc.ValF), bitsOf(wc.ValF)) ||
				!slices.Equal(strs(gc.ValS), strs(wc.ValS)) ||
				gc.MinI != wc.MinI || gc.MaxI != wc.MaxI || gc.MinS != wc.MinS || gc.MaxS != wc.MaxS {
				t.Fatalf("column %s chunk %d: %+v, want %+v", w.Name, k, *gc, *wc)
			}
		}
	}
	if err := sameBounds(got, want); err != nil {
		t.Fatal(err)
	}
	kinds := NewReader(want, all, nil, nil).Kinds()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 4; trial++ {
		var ranges RowRanges // nil first: the full table
		for lo := 0; trial > 0 && lo < want.Rows(); {
			lo += rng.Intn(700)
			hi := min(lo+1+rng.Intn(1500), want.Rows())
			if lo < hi {
				ranges = append(ranges, RowRange{lo, hi})
			}
			lo = hi
		}
		if trial > 0 && len(ranges) == 0 {
			continue
		}
		gr, gp, gb := got.ReadStats(all, ranges)
		wr, wp, wb := want.ReadStats(all, ranges)
		if gr != wr || gp != wp || gb != wb {
			t.Fatalf("ReadStats %d/%d/%d, want %d/%d/%d", gr, gp, gb, wr, wp, wb)
		}
		rg, rw := NewReader(got, all, ranges, nil), NewReader(want, all, ranges, nil)
		bg, bw := vector.NewBatch(kinds), vector.NewBatch(kinds)
		for rw.Next(bw) {
			if !rg.Next(bg) || bg.Len() != bw.Len() {
				t.Fatalf("reader batch of %d rows, want %d", bg.Len(), bw.Len())
			}
			for i := range bw.Cols {
				if !slices.Equal(bg.Cols[i].I64, bw.Cols[i].I64) || !slices.Equal(bg.Cols[i].Str, bw.Cols[i].Str) ||
					!slices.Equal(bitsOf(bg.Cols[i].F64), bitsOf(bw.Cols[i].F64)) {
					t.Fatalf("reader output differs in column %s", want.Cols[i].Name)
				}
			}
		}
		if rg.Next(bg) {
			t.Fatal("reader produces batches past the source's last")
		}
	}
}

// TestColumnWireRoundTrip: a table written as frames and adopted is the table
// it was — empty, one row, a single chunk, a short last chunk, many chunks;
// compressed and plain; one frame per column and frames of a few chunks.
func TestColumnWireRoundTrip(t *testing.T) {
	sawEnc := map[vector.Kind]map[Encoding]bool{vector.Int64: {}, vector.Float64: {}, vector.String: {}}
	for _, compress := range []bool{true, false} {
		for _, n := range []int{0, 1, 100, 128, 1000, 5000} {
			tab := wireFixture(t, n, compress)
			for _, c := range tab.Cols {
				for _, ch := range c.Enc.Chunks {
					sawEnc[c.Kind][ch.Enc] = true
				}
			}
			for _, frameBytes := range []int{1 << 20, 600, 0} {
				frames := tab.Frames(frameBytes)
				if frameBytes == 1<<20 && len(frames) != len(tab.Cols) {
					t.Fatalf("%d frames for %d columns under a bound none reaches", len(frames), len(tab.Cols))
				}
				if frameBytes == 600 && n == 5000 && len(frames) < 2*len(tab.Cols) {
					t.Fatalf("%d frames: a 600-byte bound must cut 5000-row columns", len(frames))
				}
				got, resident, err := adopt(tab, frames)
				if err != nil {
					t.Fatalf("compress=%v n=%d bound=%d: %v", compress, n, frameBytes, err)
				}
				sameStored(t, got, tab)
				if n > 0 && resident <= 0 {
					t.Fatalf("adopting %d rows reports %d resident bytes", n, resident)
				}
			}
		}
	}
	for kind, want := range map[vector.Kind][]Encoding{
		vector.Int64: {EncRaw, EncRLE, EncFOR}, vector.Float64: {EncRaw}, vector.String: {EncRaw, EncRLE, EncDict}} {
		for _, e := range want {
			if !sawEnc[kind][e] {
				t.Fatalf("the fixture never produced a %s chunk of kind %s", e, kind)
			}
		}
	}
}

// TestColumnWireAliasesPayload: packed bytes are windows of the frame, not
// copies — the receive buffer is the stored form.
func TestColumnWireAliasesPayload(t *testing.T) {
	tab := wireFixture(t, 1000, true)
	frames := tab.Frames(1 << 20)
	got, _, err := adopt(tab, frames)
	if err != nil {
		t.Fatal(err)
	}
	zero := func(b []byte) bool { return bytes.Count(b, []byte{0}) == len(b) }
	for _, f := range frames {
		clear(f)
	}
	packed := 0
	for i, c := range got.Cols {
		for k, ch := range c.Enc.Chunks {
			if src := tab.Cols[i].Enc.Chunks[k].Packed; len(src) > 0 && !zero(src) {
				packed++
				if !zero(ch.Packed) {
					t.Fatalf("column %s chunk %d: packed bytes were copied out of the frame", c.Name, k)
				}
			}
		}
	}
	if packed == 0 {
		t.Fatal("fixture has no packed chunk")
	}
}

// TestColumnWireCorruption flips every byte of every frame of a small table
// and truncates each at every length: each damaged frame is an error — never
// a panic — and the adopter it was offered to still completes into the right
// table when the true frame follows, so a rejected frame published nothing.
func TestColumnWireCorruption(t *testing.T) {
	for _, compress := range []bool{true, false} {
		tab := wireFixture(t, 300, compress)
		frames := tab.Frames(700)
		names := make([]string, len(tab.Cols))
		kinds := make([]vector.Kind, len(tab.Cols))
		for i, c := range tab.Cols {
			names[i], kinds[i] = c.Name, c.Kind
		}
		a, err := NewTableAdopter(tab.Name, tab.PageSize, tab.Rows(), compress, names, kinds)
		if err != nil {
			t.Fatal(err)
		}
		for fi, f := range frames {
			for i := range f {
				for _, bit := range []byte{0x01, 0x80, 0xff} {
					mut := append([]byte(nil), f...)
					mut[i] ^= bit
					if _, _, err := a.Add(mut); err == nil {
						t.Fatalf("frame %d byte %d ^ %#x adopted without error", fi, i, bit)
					}
				}
			}
			for n := 0; n < len(f); n++ {
				if _, _, err := a.Add(f[:n:n]); err == nil {
					t.Fatalf("frame %d truncated to %d bytes adopted without error", fi, n)
				}
			}
			if _, err := a.Table(); fi < len(frames) && err == nil {
				t.Fatalf("a table before frame %d of %d arrived", fi+1, len(frames))
			}
			if _, _, err := a.Add(f); err != nil {
				t.Fatalf("frame %d after its damaged copies: %v", fi, err)
			}
		}
		got, err := a.Table()
		if err != nil {
			t.Fatal(err)
		}
		sameStored(t, got, tab)
		if _, _, err := a.Add(frames[0]); err == nil {
			t.Fatal("a frame after the last column must be rejected")
		}
	}
}

// reseal recomputes frame's checksum in place, so a structural edit reaches
// the checks behind it.
func reseal(frame []byte) []byte {
	end := len(frame) - 4
	binary.LittleEndian.PutUint32(frame[end:], crc32.ChecksumIEEE(frame[4:end]))
	return frame
}

// TestColumnWireStructure: frames that carry a good checksum over a bad
// structure — what a sender bug, not line noise, would produce — are refused,
// each next to the well-formed frame it was derived from.
func TestColumnWireStructure(t *testing.T) {
	frame := func(kind vector.Kind, chunkRows int, dict []string, chunks ...Chunk) []byte {
		var w frameWriter
		w.begin(kind, frameEncoded|frameFirst)
		w.Uvar(uint64(chunkRows))
		w.Uvar(0)
		w.Body = append(w.Body, 0) // scale
		w.Dict(dict)
		for i := range chunks {
			w.Chunk(kind, &chunks[i])
		}
		return w.finish()
	}
	one := func(kind vector.Kind, rows int, compressed bool) *TableAdopter {
		a, err := NewTableAdopter("t", 1<<10, rows, compressed, []string{"c"}, []vector.Kind{kind})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	try := func(kind vector.Kind, rows int, f []byte) error {
		_, _, err := one(kind, rows, true).Add(f)
		return err
	}
	accept := func(name string, kind vector.Kind, rows int, f []byte) {
		t.Helper()
		if err := try(kind, rows, f); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	refuse := func(name string, kind vector.Kind, rows int, f []byte) {
		t.Helper()
		if err := try(kind, rows, f); err == nil {
			t.Fatalf("%s: adopted", name)
		}
	}
	rle := func(rows int, runs ...int32) Chunk {
		return Chunk{Enc: EncRLE, Rows: rows, RunN: runs, RunI: make([]int64, len(runs))}
	}
	accept("two runs", vector.Int64, 100, frame(vector.Int64, 128, nil, rle(100, 60, 40)))
	refuse("runs short of the chunk", vector.Int64, 100, frame(vector.Int64, 128, nil, rle(100, 60, 39)))
	refuse("runs past the chunk", vector.Int64, 100, frame(vector.Int64, 128, nil, rle(100, 60, 41)))
	refuse("a zero-length run", vector.Int64, 100, frame(vector.Int64, 128, nil, rle(100, 100, 0)))
	refuse("no runs", vector.Int64, 100, frame(vector.Int64, 128, nil, rle(100)))
	refuse("an empty chunk", vector.Int64, 100, frame(vector.Int64, 128, nil, rle(100, 100), rle(0)))

	pack := func(rows int, bitw uint8, code func(int) uint64) []byte {
		p, vals := make([]byte, vector.BitPackLen(rows, bitw)), make([]uint64, rows)
		for i := range vals {
			vals[i] = code(i)
		}
		vector.BitPack(p, vals, bitw, 0)
		return p
	}
	forc := func(bitw uint8, packed []byte) Chunk {
		return Chunk{Enc: EncFOR, Rows: 12, BitW: bitw, Packed: packed}
	}
	low := func(i int) uint64 { return uint64(i % 3) }
	accept("3-bit deltas", vector.Int64, 12, frame(vector.Int64, 128, nil, forc(3, pack(12, 3, low))))
	refuse("65-bit deltas", vector.Int64, 12, frame(vector.Int64, 128, nil, forc(65, pack(12, 65, low))))
	refuse("packed bytes short", vector.Int64, 12, frame(vector.Int64, 128, nil, forc(3, pack(12, 3, low)[:4])))
	refuse("packed bytes long", vector.Int64, 12, frame(vector.Int64, 128, nil, forc(3, append(pack(12, 3, low), 0))))
	refuse("frame of reference over floats", vector.Float64, 12, frame(vector.Float64, 128, nil, forc(3, pack(12, 3, low))))
	refuse("unknown encoding", vector.Int64, 12, frame(vector.Int64, 128, nil, Chunk{Enc: 9, Rows: 12}))
	refuse("run-length floats", vector.Float64, 100, frame(vector.Float64, 128, nil, Chunk{Enc: EncRLE, Rows: 100, RunN: []int32{100}}))
	scaled := func(kind vector.Kind, scale byte) []byte {
		f := frame(kind, 100, nil, Chunk{Enc: EncRLE, Rows: 100, RunN: []int32{100}, RunI: []int64{7}, RunS: []string{"a"}})
		f[len(columnFrameMagic)+2+2] = scale // past the kind, the flags and the two one-byte uvarints
		return reseal(f)
	}
	accept("scale 2", vector.Int64, 100, scaled(vector.Int64, 2))
	accept("an unscaled string column", vector.String, 100, scaled(vector.String, 0))
	refuse("scale 19", vector.Int64, 100, scaled(vector.Int64, vector.MaxScale+1))
	refuse("a scaled string column", vector.String, 100, scaled(vector.String, 2))

	abc := []string{"a", "bb", "cc"}
	dictc := func(bitw uint8, code func(int) uint64) Chunk {
		return Chunk{Enc: EncDict, Rows: 200, BitW: bitw, Packed: pack(200, bitw, code), MinS: "a", MaxS: "cc"}
	}
	accept("codes inside the dictionary", vector.String, 200, frame(vector.String, 256, abc, dictc(2, low)))
	refuse("a code past the dictionary", vector.String, 200,
		frame(vector.String, 256, abc, dictc(2, func(i int) uint64 { return uint64(i % 4) })))
	refuse("dictionary descending", vector.String, 200, frame(vector.String, 256, []string{"a", "cc", "bb"}, dictc(2, low)))
	refuse("dictionary with a repeat", vector.String, 200, frame(vector.String, 256, []string{"a", "bb", "bb"}, dictc(2, low)))
	refuse("codes wider than the dictionary", vector.String, 200, frame(vector.String, 256, abc, dictc(3, low)))
	refuse("codes without a dictionary", vector.String, 200, frame(vector.String, 256, nil, dictc(2, low)))
	refuse("dictionary codes over int64s", vector.Int64, 200, frame(vector.Int64, 256, nil, dictc(2, low)))
	var w frameWriter
	w.begin(vector.String, frameEncoded|frameFirst)
	w.Uvar(256)
	w.Uvar(0)
	w.Body = append(w.Body, 0)
	w.Uvar(maxDictEntries + 1)
	refuse("dictionary past the cap", vector.String, 200, w.finish())
	f := frame(vector.String, 256, abc, dictc(2, low))
	f = append(f[:len(f)-8], 'x', 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(f[len(f)-8:], uint32(len("abbccacc")+1))
	refuse("heap bytes no string claims", vector.String, 200, reseal(f))

	accept("100 + 50 rows", vector.Int64, 150, frame(vector.Int64, 100, nil, rle(100, 100), rle(50, 50)))
	refuse("a chunk after a short chunk", vector.Int64, 150, frame(vector.Int64, 100, nil, rle(50, 50), rle(100, 100)))
	refuse("a chunk past the column", vector.Int64, 150, frame(vector.Int64, 100, nil, rle(100, 100), rle(51, 51)))
	refuse("a chunk above the granularity", vector.Int64, 150, frame(vector.Int64, 100, nil, rle(101, 101)))
	refuse("granularity 0", vector.Int64, 150, frame(vector.Int64, 0, nil))
	refuse("granularity above a page of bytes", vector.Int64, 150, frame(vector.Int64, 2048, nil, rle(150, 150)))

	good := frame(vector.Int64, 128, nil, rle(100, 60, 40))
	refuse("an int64 frame for a float64 column", vector.Float64, 100, good)
	a := one(vector.Int64, 200, true)
	if _, _, err := a.Add(good); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Add(good); err == nil {
		t.Fatal("a first frame where a continuation is due: adopted")
	}
	if _, _, err := one(vector.Int64, 100, false).Add(good); err == nil {
		t.Fatal("an encoded frame for a plain column: adopted")
	}
}

// FuzzDecodeColumnFrame: arbitrary bytes offered as a column frame either
// adopt cleanly or error — never panic, and never leave a column whose
// chunks a reader could index out of bounds. An adopted column read by two
// readers split at a row the input picks reads what one reader reads.
func FuzzDecodeColumnFrame(f *testing.F) {
	for _, compress := range []bool{true, false} {
		tab := wireFixture(f, 300, compress)
		for i, fr := range tab.Frames(1 << 20) {
			f.Add(byte(i), fr)
			f.Add(byte(i), fr[:len(fr)/2])
		}
	}
	f.Add(byte(0), []byte("BDC1"))
	f.Add(byte(3), []byte{})
	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		kind := vector.Kind(sel % 3)
		a, err := NewTableAdopter("f", 1<<10, 300, sel%8 < 5, []string{"c"}, []vector.Kind{kind})
		if err != nil {
			t.Fatal(err)
		}
		// Resealing lets the fuzzer's edits through the checksum.
		if len(data) >= frameOverhead && sel >= 128 {
			data = reseal(slices.Clone(data))
		}
		if _, done, err := a.Add(data); err != nil || !done {
			return
		}
		end := len(data) - 8
		heap := data[end-int(binary.LittleEndian.Uint32(data[end:])) : end]
		for _, ch := range a.cols[0].Enc.Chunks {
			if kind == vector.String && ch.Enc == EncRaw {
				checkHeapWindow(t, ch.ValS, heap)
			}
		}
		tab, err := a.Table()
		if err != nil {
			t.Fatal(err)
		}
		read := func(ranges RowRanges) *vector.Vector {
			r := NewReader(tab, []int{0}, ranges, nil)
			b, out := vector.NewBatch([]vector.Kind{kind}), &vector.Vector{Kind: kind}
			for r.Next(b) {
				out.AppendVector(b.Cols[0])
			}
			return out
		}
		whole := read(nil)
		if whole.Len() != 300 {
			t.Fatalf("adopted column reads back %d rows, declared 300", whole.Len())
		}
		split := len(data) % 301
		parts := read(RowRanges{{0, split}})
		parts.AppendVector(read(RowRanges{{split, 300}}))
		if !slices.Equal(parts.I64, whole.I64) || !slices.Equal(bitsOf(parts.F64), bitsOf(whole.F64)) || !slices.Equal(parts.Str, whole.Str) {
			t.Fatalf("split at row %d, two readers read other values than one", split)
		}
	})
}

// checkHeapWindow fails unless the raw string chunk values h, read from a
// frame whose heap is heap, is a window of one copy of it: offsets ascending
// inside it, every view the frame's bytes.
func checkHeapWindow(t *testing.T, h vector.Heap, heap []byte) {
	t.Helper()
	if !bytes.Equal(h.Bytes, heap) || len(heap) > 0 && &h.Bytes[0] == &heap[0] {
		t.Fatalf("raw chunk strings are not views of one copy of the frame's %d-byte heap", len(heap))
	}
	for i := range h.Len() {
		lo, hi := h.Offs[i], h.Offs[i+1]
		if lo > hi || int(hi) > len(heap) {
			t.Fatalf("string %d at [%d,%d) of a %d-byte heap", i, lo, hi, len(heap))
		}
		if h.At(i) != string(heap[lo:hi]) {
			t.Fatalf("string %d reads %q, the frame holds %q", i, h.At(i), heap[lo:hi])
		}
	}
}

// BenchmarkColumnWire times the byte form over a compressed table of the
// fixture's mix of encodings: writing it, and adopting it.
func BenchmarkColumnWire(b *testing.B) {
	tab := wireFixture(b, 60000, true)
	frames := tab.Frames(1 << 20)
	var size int64
	for _, f := range frames {
		size += int64(len(f))
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frames = tab.Frames(1 << 20)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := adopt(tab, frames); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestAdoptedTableRearranges: a table adopted from its own frames is an
// ordinary table. Permute, Extract, AppendRows, a Splice onto it (and the
// table the splice gathers), a Concat onto it and of it, and Encoded each
// give what the same call gives on the table that was built: the same rows,
// widths, pages and zones.
func TestAdoptedTableRearranges(t *testing.T) {
	built := wireFixture(t, 3000, true)
	adopted, _, err := adopt(built, built.Frames(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	n := built.Rows()
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32((i*7919 + 13) % n)
	}
	batch := wireFixture(t, 40, false)
	src := []int32{int32(n), 5, 6, 7, int32(n + 1), int32(n - 1), 0, 1}
	for _, op := range []struct {
		name string
		do   func(tab *Table) (*Table, error)
	}{
		{"Permute", func(tab *Table) (*Table, error) { return tab.Permute(perm) }},
		{"Extract", func(tab *Table) (*Table, error) { return tab.Extract(RowRanges{{100, 900}, {0, 50}, {2000, n}}) }},
		{"AppendRows", func(tab *Table) (*Table, error) { return tab.AppendRows(RowRanges{{10, 20}, {n - 5, n}}) }},
		{"Splice", func(tab *Table) (*Table, error) { return Splice(tab, n, batch, spliceRuns(src, n)) }},
		{"Splice, materialized", func(tab *Table) (*Table, error) {
			s, err := Splice(tab, n-2, batch, spliceRuns(src, n-2))
			if err != nil {
				return nil, err
			}
			return s.Materialized(), nil
		}},
		{"Concat onto", func(tab *Table) (*Table, error) { return Concat(tab, n-3, batch) }},
		{"Concat of", func(tab *Table) (*Table, error) { return Concat(batch, batch.Rows(), tab) }},
		{"Encoded", func(tab *Table) (*Table, error) { return tab.Encoded(), nil }},
	} {
		want, err := op.do(built)
		if err != nil {
			t.Fatalf("%s of the built table: %v", op.name, err)
		}
		got, err := op.do(adopted)
		if err != nil {
			t.Fatalf("%s of the adopted table: %v", op.name, err)
		}
		sameZones(t, op.name, got, want)
		for i, c := range want.Cols {
			if got.Pages(got.Cols[i]) != want.Pages(c) {
				t.Fatalf("%s: column %s has %d pages, want %d", op.name, c.Name, got.Pages(got.Cols[i]), want.Pages(c))
			}
		}
	}
}
