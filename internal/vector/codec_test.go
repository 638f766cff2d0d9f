package vector

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"bdcc/internal/wire"
)

func codecTestBatch() *Batch {
	b := NewBatch([]Kind{Int64, Float64, String})
	for i := 0; i < 100; i++ {
		b.Cols[0].AppendInt64(int64(i) - 50)
		b.Cols[1].AppendFloat64(float64(i) * 0.1)
		b.Cols[2].AppendString(string(rune('a'+i%26)) + "payload")
	}
	// Values the codec must carry bit-exactly.
	b.Cols[0].AppendInt64(math.MinInt64)
	b.Cols[1].AppendFloat64(math.Copysign(0, -1)) // -0.0
	b.Cols[2].AppendString("")
	b.Cols[0].AppendInt64(math.MaxInt64)
	b.Cols[1].AppendFloat64(math.Inf(-1))
	b.Cols[2].AppendString("snow☃man\x00nul")
	b.GroupID = 0xdeadbeefcafe
	b.Grouped = true
	return b
}

// TestBatchCodecRoundTrip checks the wire codec reproduces a batch bit for
// bit, including group tags, negative zero, infinities and non-ASCII strings.
func TestBatchCodecRoundTrip(t *testing.T) {
	b := codecTestBatch()
	enc := b.Encode(nil)
	got, n, err := DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("decoded %d of %d bytes", n, len(enc))
	}
	if got.Grouped != b.Grouped || got.GroupID != b.GroupID {
		t.Fatalf("group tags: got (%v,%d), want (%v,%d)", got.Grouped, got.GroupID, b.Grouped, b.GroupID)
	}
	if got.Len() != b.Len() || len(got.Cols) != len(b.Cols) {
		t.Fatalf("shape: got %dx%d, want %dx%d", got.Len(), len(got.Cols), b.Len(), len(b.Cols))
	}
	for c := range b.Cols {
		if got.Cols[c].Kind != b.Cols[c].Kind {
			t.Fatalf("col %d kind %v, want %v", c, got.Cols[c].Kind, b.Cols[c].Kind)
		}
		for i := 0; i < b.Len(); i++ {
			switch b.Cols[c].Kind {
			case Int64:
				if got.Cols[c].I64[i] != b.Cols[c].I64[i] {
					t.Fatalf("col %d row %d: %d != %d", c, i, got.Cols[c].I64[i], b.Cols[c].I64[i])
				}
			case Float64:
				gb := math.Float64bits(got.Cols[c].F64[i])
				wb := math.Float64bits(b.Cols[c].F64[i])
				if gb != wb {
					t.Fatalf("col %d row %d: float bits %x != %x", c, i, gb, wb)
				}
			case String:
				if got.Cols[c].Str[i] != b.Cols[c].Str[i] {
					t.Fatalf("col %d row %d: %q != %q", c, i, got.Cols[c].Str[i], b.Cols[c].Str[i])
				}
			}
		}
	}
}

// TestBatchCodecStream checks several batches concatenated on one byte
// stream decode back in sequence — the form the shard transport ships.
func TestBatchCodecStream(t *testing.T) {
	a := codecTestBatch()
	empty := NewBatch([]Kind{Int64})
	var buf []byte
	buf = a.Encode(buf)
	buf = empty.Encode(buf)
	buf = a.Encode(buf)
	for i := 0; i < 3; i++ {
		b, n, err := DecodeBatch(buf)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		want := a.Len()
		if i == 1 {
			want = 0
		}
		if b.Len() != want {
			t.Fatalf("batch %d: %d rows, want %d", i, b.Len(), want)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

// TestBatchCodecTruncation checks every prefix of an encoding fails cleanly
// instead of panicking or decoding garbage.
func TestBatchCodecTruncation(t *testing.T) {
	enc := codecTestBatch().Encode(nil)
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeBatch(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(enc))
		}
	}
}

// encodingBatch builds a batch whose columns each force a specific wire
// encoding: long int runs (RLE), a narrow int range (FOR), repeated strings
// (dict), constant floats (RLE on bits), long string runs (RLE), plus
// incompressible noise columns that must fall back to raw.
func encodingBatch(n int) *Batch {
	b := NewBatch([]Kind{Int64, Int64, Int64, Float64, String, String, String})
	for i := 0; i < n; i++ {
		b.Cols[0].AppendInt64(int64(i / 64))                                                                             // runs → RLE
		b.Cols[1].AppendInt64(1_000_000 + int64(i%97))                                                                   // narrow → FOR
		b.Cols[2].AppendInt64(int64(uint64(i)*0x9e3779b97f4a7c15) - 3)                                                   // noise → raw
		b.Cols[3].AppendFloat64(2.25)                                                                                    // constant → RLE
		b.Cols[4].AppendString([]string{"auto", "house", "tools"}[i%3])                                                  // dict
		b.Cols[5].AppendString(string(rune('a'+i%26)) + "-" + string(rune('0'+i%10)) + "x" + string(rune('A'+(i/7)%26))) // high-card
		b.Cols[6].AppendString([]string{"AIR", "MAIL", "RAIL", "SHIP"}[(i/128)%4])                                       // string runs → RLE
	}
	return b
}

// TestBatchCodecCompresses checks the tagged encodings pay off on the wire:
// compressible batches encode strictly below their raw wire size, the
// savings meter's baseline RawWireSize matches the actual raw form, and the
// compressed form still round-trips bit-exactly.
func TestBatchCodecCompresses(t *testing.T) {
	b := encodingBatch(2048)
	enc := b.Encode(nil)
	if len(enc) >= b.RawWireSize() {
		t.Fatalf("encoded %d bytes, raw wire size %d — compression never engaged", len(enc), b.RawWireSize())
	}
	got, n, err := DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) || got.Len() != b.Len() {
		t.Fatalf("decoded %d bytes of %d, %d rows of %d", n, len(enc), got.Len(), b.Len())
	}
	for c := range b.Cols {
		for i := 0; i < b.Len(); i++ {
			switch b.Cols[c].Kind {
			case Int64:
				if got.Cols[c].I64[i] != b.Cols[c].I64[i] {
					t.Fatalf("col %d row %d: %d != %d", c, i, got.Cols[c].I64[i], b.Cols[c].I64[i])
				}
			case Float64:
				if math.Float64bits(got.Cols[c].F64[i]) != math.Float64bits(b.Cols[c].F64[i]) {
					t.Fatalf("col %d row %d: float bits differ", c, i)
				}
			case String:
				if got.Cols[c].Str[i] != b.Cols[c].Str[i] {
					t.Fatalf("col %d row %d: %q != %q", c, i, got.Cols[c].Str[i], b.Cols[c].Str[i])
				}
			}
		}
	}
	// An incompressible batch's raw fallback stays within a tag byte per
	// column of the raw wire size.
	noise := NewBatch([]Kind{Int64})
	for i := 0; i < 512; i++ {
		noise.Cols[0].AppendInt64(int64(uint64(i)*0x9e3779b97f4a7c15) + int64(i<<7))
	}
	if enc := noise.Encode(nil); len(enc) > noise.RawWireSize() {
		t.Fatalf("incompressible batch encoded to %d bytes, raw wire size %d", len(enc), noise.RawWireSize())
	}
}

// TestBatchCodecTruncationAllEncodings re-runs the every-prefix truncation
// property against a batch that exercises RLE, FOR, dict and raw columns
// together, so each tag's decoder proves its bounds checks.
func TestBatchCodecTruncationAllEncodings(t *testing.T) {
	enc := encodingBatch(300).Encode(nil)
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeBatch(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(enc))
		}
	}
}

// TestBatchCodecCorruption flips the tag and header bytes of a valid
// encoding: decoding must error out (or decode fully within bounds), never
// panic or read past the buffer.
func TestBatchCodecCorruption(t *testing.T) {
	enc := encodingBatch(300).Encode(nil)
	for pos := 0; pos < len(enc); pos++ {
		for _, bit := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), enc...)
			mut[pos] ^= bit
			b, n, err := DecodeBatch(mut) // must not panic
			if err == nil && (n > len(mut) || b == nil) {
				t.Fatalf("corruption at %d consumed %d of %d bytes", pos, n, len(mut))
			}
		}
	}
}

func BenchmarkBatchEncode(b *testing.B) {
	batch := encodingBatch(BatchSize)
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = batch.Encode(buf[:0])
	}
	b.SetBytes(int64(batch.RawWireSize()))
}

func BenchmarkBatchDecode(b *testing.B) {
	enc := encodingBatch(BatchSize).Encode(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeBatch(enc); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(enc)))
}

// BenchmarkBatchCodecRaw measures the bulk raw path alone (incompressible
// data): this is the whole-slice copy fast path of the codec.
func BenchmarkBatchCodecRaw(b *testing.B) {
	batch := NewBatch([]Kind{Int64, Float64})
	for i := 0; i < BatchSize; i++ {
		batch.Cols[0].AppendInt64(int64(uint64(i)*0x9e3779b97f4a7c15) + 1)
		batch.Cols[1].AppendFloat64(float64(i) * 1.0000001)
	}
	enc := batch.Encode(nil)
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = batch.Encode(buf[:0])
		if _, _, err := DecodeBatch(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// refStrChunk is the string-column encoder as it was before dictionary
// viability was decided on counts — the sort-first reference storage's
// TestDictEncodingUnchanged holds Table.Compress to, for a column of one
// chunk: collect the distinct values (up to the cap), sort them, only then
// test dictionary + codes against raw, and pack codes by hashing every value
// again. It returns the dictionary a dict chunk indexes (nil otherwise) and
// the chunk.
func refStrChunk(v []string) ([]string, Chunk) {
	distinct := make(map[string]uint32, 1024)
	var rawB, rleB int64
	var runS []string
	var runN []int32
	mn, mx := v[0], v[0]
	for i, s := range v {
		rawB += int64(len(s))
		if len(distinct) <= MaxDictEntries {
			distinct[s] = 0
		}
		if i == 0 || s != v[i-1] {
			rleB += int64(8 + len(s))
			runS, runN = append(runS, s), append(runN, 0)
		}
		runN[len(runN)-1]++
		mn, mx = min(mn, s), max(mx, s)
	}
	ch := Chunk{Enc: EncRaw, Bytes: rawB, Rows: len(v), MinS: mn, MaxS: mx}
	var dict []string
	if len(distinct) <= MaxDictEntries {
		dictBytes := int64(0)
		for s := range distinct {
			dict = append(dict, s)
			dictBytes += int64(4 + len(s))
		}
		sort.Strings(dict)
		bitw := uint8(bits.Len(uint(len(dict) - 1)))
		if packed := int64(BitPackLen(len(v), bitw)); dictBytes+packed < rawB && packed < ch.Bytes {
			ch.Enc, ch.Bytes, ch.BitW = EncDict, packed, bitw
		}
	}
	if rleB < ch.Bytes {
		ch.Enc, ch.Bytes, ch.BitW = EncRLE, rleB, 0
	}
	switch ch.Enc {
	case EncRaw:
		ch.ValS = HeapOf(v)
	case EncRLE:
		ch.RunS, ch.RunN = runS, runN
	case EncDict:
		for c, s := range dict {
			distinct[s] = uint32(c)
		}
		ch.Packed = make([]byte, BitPackLen(len(v), ch.BitW))
		codes := make([]uint32, len(v))
		for i, s := range v {
			codes[i] = distinct[s]
		}
		BitPack(ch.Packed, codes, ch.BitW, 0)
		return dict, ch
	}
	return nil, ch
}

// dictTestColumns are string columns on both sides of every dictionary
// decision: a handful of values, a few thousand, all distinct, clustered
// runs, and 65 536 / 65 537 distinct values — the storage encoder's cap.
func dictTestColumns() map[string][]string {
	rng := rand.New(rand.NewSource(41))
	col := func(n int, f func(i int) string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	return map[string][]string{
		"empty":     nil,
		"one-value": col(500, func(int) string { return "DELIVER IN PERSON" }),
		"low": col(30000, func(int) string {
			return []string{"MAIL", "SHIP", "AIR", "TRUCK", "RAIL", "FOB", "REG AIR"}[rng.Intn(7)]
		}),
		"low-runs":     col(30000, func(i int) string { return []string{"A", "N", "R"}[i/9000%3] }),
		"mid":          col(30000, func(int) string { return fmt.Sprintf("Clerk#%09d", rng.Intn(2000)) }),
		"all-distinct": col(30000, func(i int) string { return fmt.Sprintf("comment %d about nothing in particular", i*7919%30000) }),
		"short-unique": col(3000, func(i int) string { return fmt.Sprint(i) }),
		"at-the-cap":   col(140000, func(i int) string { return fmt.Sprintf("value-%014d", (i*31)%65536) }),
		"past-the-cap": col(140000, func(i int) string { return fmt.Sprintf("value-%014d", (i*31)%65537) }),
	}
}

// TestDictEncodingUnchanged: a batch's string column is the chunk the
// sort-first encoder picks — same encoding, same payload, same dictionary —
// whether or not the dictionary wins, written in the chunk byte form, and it
// decodes back.
func TestDictEncodingUnchanged(t *testing.T) {
	sawEnc := map[Encoding]bool{}
	for name, vals := range dictTestColumns() {
		b := NewBatch([]Kind{String, String})
		for _, s := range vals {
			b.Cols[0].AppendString(s)
		}
		// A second column through the same scratch, in another order.
		for i := range vals {
			b.Cols[1].AppendString(vals[len(vals)-1-i])
		}
		got := b.Encode(nil)
		var w ChunkWriter
		for _, c := range b.Cols {
			w.Body = append(w.Body, byte(String))
			w.Uvar(uint64(len(c.Str)))
			if len(c.Str) > 0 {
				dict, ch := refStrChunk(c.Str)
				w.Dict(dict)
				w.Chunk(String, &ch)
				sawEnc[ch.Enc] = true
			}
		}
		want := binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint64([]byte{0}, 0), 2)
		want = binary.LittleEndian.AppendUint32(want, uint32(len(w.Body)))
		want = binary.LittleEndian.AppendUint32(want, uint32(len(w.Heap)))
		want = append(append(want, w.Body...), w.Heap...)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: Encode wrote %d bytes that differ from the sort-first encoder's %d", name, len(got), len(want))
		}
		back, n, err := DecodeBatch(got)
		if err != nil || n != len(got) {
			t.Fatalf("%s: decode: %v (%d of %d bytes)", name, err, n, len(got))
		}
		for c := range b.Cols {
			if !slices.Equal(back.Cols[c].Str, b.Cols[c].Str) {
				t.Fatalf("%s: column %d does not survive the round trip", name, c)
			}
		}
	}
	if !sawEnc[EncRaw] || !sawEnc[EncRLE] || !sawEnc[EncDict] {
		t.Fatalf("the columns must fall on every side of the race: saw %v", sawEnc)
	}
}

// sameBatch reports whether two batches hold the same values, floats compared
// by bit pattern.
func sameBatch(a, b *Batch) bool {
	if a.Grouped != b.Grouped || a.GroupID != b.GroupID || len(a.Cols) != len(b.Cols) {
		return false
	}
	for i, c := range a.Cols {
		o := b.Cols[i]
		if c.Kind != o.Kind || !slices.Equal(c.I64, o.I64) || !slices.Equal(c.Str, o.Str) ||
			!slices.EqualFunc(c.F64, o.F64, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			return false
		}
	}
	return true
}

// TestDecodeBatchRejectsRaggedColumns: a batch whose columns disagree on
// their row count is damage, not a batch — whatever indexes it by Len would
// read past its shorter columns.
func TestDecodeBatchRejectsRaggedColumns(t *testing.T) {
	ragged := &Batch{Cols: []*Vector{
		{Kind: Int64, I64: []int64{1, 2, 3}},
		{Kind: Float64, F64: []float64{0.5}},
	}}
	if b, _, err := DecodeBatch(ragged.Encode(nil)); err == nil {
		t.Fatalf("a ragged batch decoded, Len %d", b.Len())
	}
	empty := &Batch{Cols: []*Vector{{Kind: Int64}, {Kind: String}}}
	if b, _, err := DecodeBatch(empty.Encode(nil)); err != nil || b.Len() != 0 || len(b.Cols) != 2 {
		t.Fatalf("an empty two-column batch: %v", err)
	}
}

// eachRawStrChunk walks a batch that decodes, the way DecodeBatch reads it,
// and calls fn with the values of every raw string chunk and the batch's
// heap bytes.
func eachRawStrChunk(data []byte, fn func(h Heap, heap []byte)) {
	env := wire.NewReader(data)
	env.Take(1 + 8)
	ncols, bodyLen, heapLen := env.U16(), env.U32(), env.U32()
	body := env.Take(int(bodyLen))
	heap := env.Take(int(heapLen))
	r := NewChunkReader(body, bytes.Clone(heap))
	for range ncols {
		kind, n := Kind(r.U8()), r.Uvarint("column rows", maxWireRows)
		if n == 0 {
			continue
		}
		var dict []string
		if kind == String {
			dict, _, _ = r.Dict()
		}
		if ch := r.Chunk(kind, n, dict); kind == String && ch.Enc == EncRaw {
			fn(ch.ValS, heap)
		}
	}
}

// FuzzDecodeBatch: arbitrary bytes offered as a batch decode cleanly or error
// — never panic, never a column above maxWireRows or of another length than
// the batch's, every raw string chunk a window of one copy of the heap whose
// views read the batch's bytes — and what decodes survives another trip
// through the codec value for value. The committed corpus has one seed per
// column kind and encoding.
func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b, n, err := DecodeBatch(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		for i, c := range b.Cols {
			if c.Len() > maxWireRows || c.Len() != b.Len() {
				t.Fatalf("column %d holds %d rows in a batch of %d", i, c.Len(), b.Len())
			}
		}
		eachRawStrChunk(data, func(h Heap, heap []byte) {
			if !bytes.Equal(h.Bytes, heap) || len(heap) > 0 && &h.Bytes[0] == &heap[0] {
				t.Fatalf("raw chunk strings are not views of one copy of the batch's %d-byte heap", len(heap))
			}
			for i := range h.Len() {
				lo, hi := h.Offs[i], h.Offs[i+1]
				if lo > hi || int(hi) > len(heap) {
					t.Fatalf("string %d at [%d,%d) of a %d-byte heap", i, lo, hi, len(heap))
				}
				if h.At(i) != string(heap[lo:hi]) {
					t.Fatalf("string %d reads %q, the batch holds %q", i, h.At(i), heap[lo:hi])
				}
			}
		})
		enc := b.Encode(nil)
		back, m, err := DecodeBatch(enc)
		if err != nil || m != len(enc) || !sameBatch(back, b) {
			t.Fatalf("a decoded batch does not survive the codec: %v (%d of %d bytes)", err, m, len(enc))
		}
	})
}
