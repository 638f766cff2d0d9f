package storage

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

	"bdcc/internal/vector"
)

// decodeAll materializes every chunk of a compressed column back into one
// flat slice triple through the reader's range kernel, Chunk.AppendRange,
// one whole chunk at a time.
func decodeAll(c *Column) ([]int64, []float64, []string) {
	v := &vector.Vector{Kind: c.Kind}
	for ci := range c.Enc.Chunks {
		ch := &c.Enc.Chunks[ci]
		ch.AppendRange(c.Enc.Dict, 0, ch.Rows, v)
	}
	return v.I64, v.F64, v.Str
}

// roundTripI64 encodes vals at the given chunk granularity and fails unless
// decoding reproduces them exactly.
func roundTripI64(t *testing.T, name string, vals []int64, chunkRows int) *ColumnEncoding {
	t.Helper()
	c := NewInt64Column("v", vals)
	c.finish()
	c.encodeAt(chunkRows)
	got, _, _ := decodeAll(c)
	if len(got) != len(vals) {
		t.Fatalf("%s: decoded %d values, want %d", name, len(got), len(vals))
	}
	for i, v := range vals {
		if got[i] != v {
			t.Fatalf("%s: value %d = %d after round trip, want %d (chunk enc %v)",
				name, i, got[i], v, c.Enc.Chunks[c.Enc.chunkIndex(i)].Enc)
		}
	}
	return c.Enc
}

// adversarial int64 patterns: every encoder's best and worst case, run
// boundaries straddling chunk boundaries, extreme magnitudes.
func TestInt64ChunkRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	constant := make([]int64, 1000)
	runs := make([]int64, 1000)
	narrow := make([]int64, 1000)
	wide := make([]int64, 1000)
	for i := range runs {
		runs[i] = int64(i / 37)
		narrow[i] = 1_000_000 + int64(i%97)
		wide[i] = rng.Int63() - rng.Int63()
	}
	cases := []struct {
		name string
		vals []int64
		want Encoding
	}{
		// A constant chunk frame-of-reference-encodes to 9 bytes (zero-bit
		// deltas), beating RLE's 12-byte single run.
		{"constant", constant, EncFOR},
		{"runs", runs, EncRLE},
		{"narrow-range", narrow, EncFOR},
		{"wide-random", wide, EncRaw},
		{"extremes", []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64}, EncRaw},
		// A single value is cheapest at its raw width (8 bytes).
		{"single", []int64{42}, EncRaw},
		{"alternating", func() []int64 {
			v := make([]int64, 513) // one value past a 512-row chunk
			for i := range v {
				v[i] = int64(i % 2)
			}
			return v
		}(), EncFOR},
	}
	for _, tc := range cases {
		for _, chunkRows := range []int{512, 64, 7, 1} {
			e := roundTripI64(t, fmt.Sprintf("%s/chunk=%d", tc.name, chunkRows), tc.vals, chunkRows)
			if chunkRows == 512 && e.Counts[tc.want] == 0 {
				t.Errorf("%s at chunk=512 chose no %v chunk: counts %v", tc.name, tc.want, e.Counts)
			}
		}
	}
	// Random fuzz across granularities, mixing run-heavy and noisy spans.
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(2000)
		vals := make([]int64, n)
		v := rng.Int63n(1000)
		for i := range vals {
			if rng.Intn(10) == 0 {
				v = rng.Int63n(1000)
			}
			if rng.Intn(50) == 0 {
				v = rng.Int63() // occasional wide outlier
			}
			vals[i] = v
		}
		roundTripI64(t, fmt.Sprintf("fuzz-%d", trial), vals, 1+rng.Intn(600))
	}
}

// Floats must survive bit-exactly: RLE runs on the IEEE-754 bit pattern, so
// -0.0 stays distinct from 0.0 and every NaN payload is preserved.
func TestFloat64ChunkRoundTripBitExact(t *testing.T) {
	qnan := math.Float64frombits(0x7ff8_0000_0000_0001) // NaN with payload
	vals := []float64{
		0, math.Copysign(0, -1), 1.5, 1.5, 1.5, math.NaN(), qnan, qnan,
		math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	// Pad with runs so RLE wins, then add noise so some chunks stay raw.
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 2000; i++ {
		if i%3 == 0 {
			vals = append(vals, rng.Float64())
		} else {
			vals = append(vals, 2.25)
		}
	}
	for _, chunkRows := range []int{512, 13, 1} {
		c := NewFloat64Column("f", vals)
		c.finish()
		c.encodeAt(chunkRows)
		_, got, _ := decodeAll(c)
		if len(got) != len(vals) {
			t.Fatalf("chunk=%d: decoded %d values, want %d", chunkRows, len(got), len(vals))
		}
		for i, v := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(v) {
				t.Fatalf("chunk=%d: value %d = %x after round trip, want %x — floats must be bit-exact",
					chunkRows, i, math.Float64bits(got[i]), math.Float64bits(v))
			}
		}
		// Only full-size chunks make RLE's 12-byte runs beat 8-byte raw
		// values at this run length; tiny chunks legitimately stay raw.
		if chunkRows == 512 && c.Enc.Counts[EncRLE] == 0 {
			t.Errorf("chunk=%d: run-heavy float column chose no RLE chunk: %v", chunkRows, c.Enc.Counts)
		}
	}
}

func TestStringChunkRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	words := []string{"", "a", "shipped", "pending", "returned", "snow☃man", "nul\x00byte"}
	lowCard := make([]string, 3000)
	for i := range lowCard {
		lowCard[i] = words[rng.Intn(len(words))]
	}
	runsOnly := make([]string, 1000)
	for i := range runsOnly {
		runsOnly[i] = words[i/200]
	}
	unique := make([]string, 800)
	for i := range unique {
		unique[i] = fmt.Sprintf("customer-%06d-%d", i, rng.Int63())
	}
	cases := []struct {
		name string
		vals []string
		want Encoding
	}{
		{"low-cardinality", lowCard, EncDict},
		{"long-runs", runsOnly, EncRLE},
		{"all-unique", unique, EncRaw},
		// One empty string is cheapest raw (modeled at its length).
		{"single-empty", []string{""}, EncRaw},
	}
	for _, tc := range cases {
		for _, chunkRows := range []int{512, 31, 1} {
			c := NewStringColumn("s", tc.vals)
			c.finish()
			c.encodeAt(chunkRows)
			_, _, got := decodeAll(c)
			if len(got) != len(tc.vals) {
				t.Fatalf("%s chunk=%d: decoded %d values, want %d", tc.name, chunkRows, len(got), len(tc.vals))
			}
			for i, v := range tc.vals {
				if got[i] != v {
					t.Fatalf("%s chunk=%d: value %d = %q after round trip, want %q", tc.name, chunkRows, i, got[i], v)
				}
			}
			if chunkRows == 512 && c.Enc.Counts[tc.want] == 0 {
				t.Errorf("%s: chose no %v chunk at chunk=512: counts %v", tc.name, tc.want, c.Enc.Counts)
			}
		}
	}
}

// TestEncodedBytesAndWidth checks the modeled-size contract the cost model
// and Algorithm 1 depend on: compressible columns report fewer encoded than
// raw bytes, the column width follows (satellite: dictionary-compressed
// string columns get a post-compression width), and the page count —
// hence every modeled I/O charge — shrinks with it.
func TestEncodedBytesAndWidth(t *testing.T) {
	n := 4096
	ints := make([]int64, n)
	strs := make([]string, n)
	for i := range ints {
		ints[i] = int64(i / 64)
		strs[i] = []string{"automobile", "building", "furniture", "machinery"}[i/1024]
	}
	tab := MustNewTable("t", 4096, NewInt64Column("i", ints), NewStringColumn("s", strs))
	ci, cs := tab.MustColumn("i"), tab.MustColumn("s")
	rawWidthI, rawWidthS := ci.Width(), cs.Width()
	rawPagesI, rawPagesS := tab.Pages(ci), tab.Pages(cs)

	tab.Compress()
	if !tab.Compressed() {
		t.Fatal("table does not report Compressed after Compress")
	}
	for _, c := range []*Column{ci, cs} {
		if c.Enc == nil {
			t.Fatalf("column %s has no encoding", c.Name)
		}
		if c.Enc.EncodedBytes >= c.Enc.RawBytes {
			t.Errorf("column %s: encoded %d bytes not below raw %d", c.Name, c.Enc.EncodedBytes, c.Enc.RawBytes)
		}
	}
	if ci.Width() >= rawWidthI {
		t.Errorf("int width %v not below raw %v", ci.Width(), rawWidthI)
	}
	if cs.Width() >= rawWidthS {
		t.Errorf("string width %v not below raw %v after dict compression", cs.Width(), rawWidthS)
	}
	if got := tab.Pages(ci); got >= rawPagesI {
		t.Errorf("int pages = %d, not below raw %d", got, rawPagesI)
	}
	if got := tab.Pages(cs); got >= rawPagesS {
		t.Errorf("string pages = %d, not below raw %d", got, rawPagesS)
	}
	st := tab.CompressionStats()
	if st.EncodedBytes >= st.RawBytes || st.RLEChunks+st.DictChunks+st.FORChunks == 0 {
		t.Errorf("compression stats show no win: %+v", st)
	}
}

// compressedCopy builds a second table over the same slices and compresses
// it, so reads can be compared against the raw original.
func compressedCopy(t *testing.T, tab *Table) *Table {
	t.Helper()
	cols := make([]*Column, len(tab.Cols))
	for i, c := range tab.Cols {
		cols[i] = &Column{Name: c.Name, Kind: c.Kind, Enc: c.Enc}
	}
	ct, err := NewTable(tab.Name, tab.PageSize, cols...)
	if err != nil {
		t.Fatal(err)
	}
	ct.Compress()
	return ct
}

// TestReaderCompressedEquivalence is the storage-level oracle: a reader over
// the compressed table must produce exactly the batch sequence of a reader
// over the raw table, for arbitrary range sets cutting through chunk
// boundaries — including float bit patterns.
func TestReaderCompressedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 20_000
	ints := make([]int64, n)
	floats := make([]float64, n)
	strs := make([]string, n)
	for i := range ints {
		ints[i] = int64(i / 100)
		if i%5 == 0 {
			floats[i] = math.NaN()
		} else {
			floats[i] = float64(i%7) + 0.25
		}
		strs[i] = []string{"low", "med", "high"}[i%3]
	}
	raw := MustNewTable("t", 4096,
		NewInt64Column("i", ints), NewFloat64Column("f", floats), NewStringColumn("s", strs))
	comp := compressedCopy(t, raw)

	read := func(tab *Table, rs RowRanges) []string {
		var out []string
		r := NewReader(tab, []int{0, 1, 2}, rs, nil)
		b := vector.NewBatch(r.Kinds())
		for r.Next(b) {
			for i := 0; i < b.Len(); i++ {
				out = append(out, fmt.Sprintf("%d|%x|%s",
					b.Cols[0].I64[i], math.Float64bits(b.Cols[1].F64[i]), b.Cols[2].Str[i]))
			}
		}
		return out
	}
	for trial := 0; trial < 40; trial++ {
		var rs RowRanges
		pos := rng.Intn(300)
		for len(rs) < 1+trial%4 {
			ln := 1 + rng.Intn(6000)
			if pos+ln > n {
				break
			}
			rs = append(rs, RowRange{pos, pos + ln})
			pos += ln + rng.Intn(2000)
		}
		if len(rs) == 0 {
			rs = RowRanges{{0, n}}
		}
		want := read(raw, rs)
		got := read(comp, rs)
		if len(got) != len(want) {
			t.Fatalf("trial %d: compressed read %d rows, raw %d (ranges %v)", trial, len(got), len(want), rs)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: row %d = %s compressed, %s raw", trial, i, got[i], want[i])
			}
		}
	}
}

// TestReaderPushdownSound checks the cheap predicate paths: a pushdown
// reader may keep false positives (the scan re-applies its filter) but must
// never drop a qualifying row, must emit rows in ascending order from the
// range set, and must agree with the raw reader after filtering.
func TestReaderPushdownSound(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n := 10_000
	ints := make([]int64, n)
	strs := make([]string, n)
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for i := range ints {
		ints[i] = int64(i/50) % 40
		strs[i] = words[(i/30)%len(words)]
	}
	raw := MustNewTable("t", 2048, NewInt64Column("i", ints), NewStringColumn("s", strs))
	comp := compressedCopy(t, raw)

	for trial := 0; trial < 60; trial++ {
		lo := rng.Int63n(40)
		hi := lo + rng.Int63n(10)
		wlo := words[rng.Intn(len(words))]
		push := []PushPred{
			{Col: 0, Iv: Interval{Lo: Bound{Set: true, I: lo}, Hi: Bound{Set: true, I: hi}}},
			{Col: 1, Iv: Interval{Lo: Bound{Set: true, S: wlo}}},
		}
		rs := RowRanges{{rng.Intn(1000), 5000 + rng.Intn(5000)}}
		r := NewReaderPush(comp, []int{0, 1}, rs, nil, push)
		b := vector.NewBatch(r.Kinds())
		matched := make(map[string]int) // "i|s" → count among emitted rows
		emitted := 0
		for r.Next(b) {
			for i := 0; i < b.Len(); i++ {
				matched[fmt.Sprintf("%d|%s", b.Cols[0].I64[i], b.Cols[1].Str[i])]++
				emitted++
			}
		}
		// Every qualifying row of the range set must have been emitted.
		want := 0
		for _, rr := range rs {
			for i := rr.Start; i < rr.End; i++ {
				if ints[i] >= lo && ints[i] <= hi && strs[i] >= wlo {
					want++
					key := fmt.Sprintf("%d|%s", ints[i], strs[i])
					if matched[key] == 0 {
						t.Fatalf("trial %d: pushdown dropped qualifying row %d (%s)", trial, i, key)
					}
					matched[key]--
				}
			}
		}
		if emitted < want {
			t.Fatalf("trial %d: pushdown emitted %d rows, %d qualify", trial, emitted, want)
		}
	}
}

// FuzzPushedWindows: pushdown never moves a batch cut. Over a compressed
// table whose int and string columns come in runs (so RLE and dictionary
// chunks occur), a reader with a pushed interval and one without, over the
// same two ranges, must yield the same rows inside the interval batch for
// batch once batches holding no such row are skipped; and every pushed
// batch lies inside one BatchSize window of a range, cut from the range's
// start, in window order. Seeded with TestReaderPushdownSound's cases.
func FuzzPushedWindows(f *testing.F) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 60; trial++ {
		lo := rng.Int63n(40)
		span := uint8(rng.Int63n(10))
		word := uint8(rng.Intn(5))
		s0, e0 := uint16(rng.Intn(1000)), uint16(5000+rng.Intn(5000))
		f.Add(uint16(10_000), uint8(49), uint8(29), lo, span, word, s0, e0, uint16(0), uint16(0))
	}
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	f.Fuzz(func(t *testing.T, n uint16, intRun, strRun uint8, lo int64, span, word uint8, s0, e0, s1, e1 uint16) {
		rows := 1 + int(n)%12_000
		ints, strs, ids := make([]int64, rows), make([]string, rows), make([]int64, rows)
		for i := range ints {
			ints[i] = int64(i/(1+int(intRun))) % 40
			strs[i] = words[(i/(1+int(strRun)))%len(words)]
			ids[i] = int64(i)
		}
		tab := MustNewTable("t", 2048, NewInt64Column("i", ints), NewStringColumn("s", strs), NewInt64Column("id", ids))
		tab.Compress()
		iv := Interval{Lo: Bound{Set: true, I: lo}, Hi: Bound{Set: true, I: lo + int64(span)}}
		push := []PushPred{{Col: 0, Iv: iv}}
		var siv Interval
		if int(word) < len(words) {
			siv = Interval{Lo: Bound{Set: true, S: words[word]}}
			push = append(push, PushPred{Col: 1, Iv: siv})
		}
		var rs RowRanges
		for _, se := range [][2]uint16{{s0, e0}, {s1, e1}} {
			a, b := int(se[0])%(rows+1), int(se[1])%(rows+1)
			rs = append(rs, RowRange{Start: min(a, b), End: max(a, b)})
		}
		var windows RowRanges
		for _, r := range rs {
			for w := r.Start; w < r.End; w += vector.BatchSize {
				windows = append(windows, RowRange{Start: w, End: min(r.End, w+vector.BatchSize)})
			}
		}
		// read returns, per batch holding a row inside the interval, those
		// rows' ids.
		read := func(push []PushPred) [][]int64 {
			r := NewReaderPush(tab, []int{0, 1, 2}, rs, nil, push)
			var out [][]int64
			wi := 0
			for b := vector.NewBatch(r.Kinds()); r.Next(b); {
				id := b.Cols[2].I64
				for wi < len(windows) && (id[0] < int64(windows[wi].Start) || id[0] >= int64(windows[wi].End)) {
					wi++
				}
				if wi == len(windows) {
					t.Fatalf("push=%v: batch from row %d lies in no window after the last batch's", push != nil, id[0])
				}
				var in []int64
				for k, x := range id {
					if x < int64(windows[wi].Start) || x >= int64(windows[wi].End) || (k > 0 && x <= id[k-1]) {
						t.Fatalf("push=%v: batch holds row %d outside its window [%d,%d) or out of order",
							push != nil, x, windows[wi].Start, windows[wi].End)
					}
					if iv.passI64(b.Cols[0].I64[k]) && siv.passStr(b.Cols[1].Str[k]) {
						in = append(in, x)
					}
				}
				wi++
				if len(in) > 0 {
					out = append(out, in)
				}
			}
			return out
		}
		if got, want := read(push), read(nil); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("pushed reader's qualifying batches\n%.300v\nunpushed reader's\n%.300v", got, want)
		}
	})
}

// TestZonemapCompressedPruneSound re-runs the zonemap soundness property on
// a compressed table, whose zones equal the encoder's per-chunk min/max and
// whose page granularity is the chunk granularity.
func TestZonemapCompressedPruneSound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 5000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(1000)
	}
	tab := MustNewTable("t", 512, NewInt64Column("v", vals))
	tab.Compress()
	for trial := 0; trial < 50; trial++ {
		lo := rng.Int63n(1000)
		hi := lo + rng.Int63n(200)
		keep := tab.PruneZonemap("v", Interval{
			Lo: Bound{Set: true, I: lo},
			Hi: Bound{Set: true, I: hi},
		}, nil)
		inKeep := make([]bool, n)
		for _, r := range keep {
			for i := r.Start; i < r.End; i++ {
				inKeep[i] = true
			}
		}
		for i, v := range vals {
			if v >= lo && v <= hi && !inKeep[i] {
				t.Fatalf("compressed zonemap pruned qualifying row %d (v=%d in [%d,%d])", i, v, lo, hi)
			}
		}
	}
	// Clustered data must actually prune: a narrow interval on sorted values
	// keeps a strict subset.
	sorted := make([]int64, n)
	for i := range sorted {
		sorted[i] = int64(i)
	}
	st := MustNewTable("s", 512, NewInt64Column("v", sorted))
	st.Compress()
	keep := st.PruneZonemap("v", Interval{Lo: Bound{Set: true, I: 100}, Hi: Bound{Set: true, I: 200}}, nil)
	if keep.Rows() >= n {
		t.Fatalf("compressed zonemap pruned nothing on sorted data (kept %d of %d)", keep.Rows(), n)
	}
}

// TestCompressionPropagates checks the materialization paths BDCC and PK
// tables take: Permute and AppendRows of a compressed table re-encode their
// result in the new row order, and the re-encoded data round-trips.
func TestCompressionPropagates(t *testing.T) {
	n := 2000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 10)
	}
	tab := MustNewTable("t", 4096, NewInt64Column("v", vals))
	tab.Compress()

	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(n - 1 - i)
	}
	pt, err := tab.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Compressed() || pt.MustColumn("v").Enc == nil {
		t.Fatal("Permute dropped compression")
	}
	got, _, _ := decodeAll(pt.MustColumn("v"))
	for i := range got {
		if got[i] != vals[n-1-i] {
			t.Fatalf("permuted row %d = %d, want %d", i, got[i], vals[n-1-i])
		}
	}

	at, err := tab.AppendRows(RowRanges{{0, 100}})
	if err != nil {
		t.Fatal(err)
	}
	if !at.Compressed() || at.MustColumn("v").Enc == nil {
		t.Fatal("AppendRows dropped compression")
	}
	if at.Rows() != n+100 {
		t.Fatalf("appended table has %d rows, want %d", at.Rows(), n+100)
	}

	// Raw tables stay raw through the same paths.
	rt := MustNewTable("r", 4096, NewInt64Column("v", vals))
	prt, err := rt.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	if c := prt.MustColumn("v"); prt.Compressed() || len(c.Enc.Chunks) != 1 || c.Enc.Chunks[0].Enc != EncRaw {
		t.Fatal("Permute invented compression on a raw table")
	}
}

// refStrColumn is the string-column encoder as it was before dictionary
// viability was decided on counts: collect the distinct values (up to the
// cap), sort them, only then test dictionary + codes against raw, and pack
// codes by hashing every value again. It returns what Compress must still
// produce: the column dictionary and each chunk's encoding, size and payload.
func refStrColumn(vals []string, chunkRows int) (dict []string, bitw uint8, dictBytes int64, chunks []Chunk) {
	distinct := make(map[string]uint32, 1024)
	var rawBytes int64
	for _, s := range vals {
		rawBytes += int64(len(s))
		if len(distinct) <= maxDictEntries {
			distinct[s] = 0
		}
	}
	var code map[string]uint32
	if len(distinct) <= maxDictEntries {
		for s := range distinct {
			dict = append(dict, s)
			dictBytes += int64(4 + len(s))
		}
		sort.Strings(dict)
		bitw = uint8(bits.Len(uint(len(dict) - 1)))
		if dictBytes+int64(vector.BitPackLen(len(vals), bitw)) < rawBytes {
			code = distinct
			for c, s := range dict {
				code[s] = uint32(c)
			}
		}
	}
	for start := 0; start < len(vals); start += chunkRows {
		v := vals[start:min(start+chunkRows, len(vals))]
		var rawB, rleB int64
		var runS []string
		var runN []int32
		for i, s := range v {
			rawB += int64(len(s))
			if i == 0 || s != v[i-1] {
				rleB += int64(8 + len(s))
				runS = append(runS, s)
				runN = append(runN, 0)
			}
			runN[len(runN)-1]++
		}
		ch := Chunk{Enc: EncRaw, Bytes: rawB, Start: start, Rows: len(v)}
		if code != nil {
			if dictB := int64(vector.BitPackLen(len(v), bitw)); dictB < ch.Bytes {
				ch.Enc, ch.Bytes = EncDict, dictB
			}
		}
		if rleB < ch.Bytes {
			ch.Enc, ch.Bytes = EncRLE, rleB
		}
		switch ch.Enc {
		case EncRLE:
			ch.RunS, ch.RunN = runS, runN
		case EncDict:
			ch.BitW = bitw
			ch.Packed = make([]byte, vector.BitPackLen(len(v), bitw))
			vector.BitPack(ch.Packed, len(v), bitw, func(i int) uint64 { return uint64(code[v[i]]) })
		}
		chunks = append(chunks, ch)
	}
	dictUsed := false
	for _, ch := range chunks {
		dictUsed = dictUsed || ch.Enc == EncDict
	}
	if !dictUsed {
		dict, bitw, dictBytes = nil, 0, 0
	}
	return dict, bitw, dictBytes, chunks
}

// TestDictEncodingUnchanged: Table.Compress yields, column for column and
// chunk for chunk, what the sort-first encoder yielded — over columns with a
// handful of values, a few thousand, all distinct, clustered runs, and
// 65 536 / 65 537 distinct values (the dictionary cap) — with all columns of
// a table sharing one scratch.
func TestDictEncodingUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	col := func(n int, f func(i int) string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	const n = 140000
	modes := []string{"MAIL", "SHIP", "AIR", "TRUCK", "RAIL", "FOB", "REG AIR"}
	cols := []*Column{
		NewStringColumn("past_the_cap", col(n, func(i int) string { return fmt.Sprintf("value-%014d", (i*31)%(maxDictEntries+1)) })),
		NewStringColumn("low", col(n, func(int) string { return modes[rng.Intn(7)] })),
		NewStringColumn("low_runs", col(n, func(i int) string { return []string{"A", "N", "R"}[i/9000%3] })),
		NewStringColumn("mid", col(n, func(int) string { return fmt.Sprintf("Clerk#%09d", rng.Intn(2000)) })),
		NewStringColumn("at_the_cap", col(n, func(i int) string { return fmt.Sprintf("value-%014d", (i*31)%maxDictEntries) })),
		NewStringColumn("short_unique", col(n, func(i int) string { return fmt.Sprint(i % 3000) })),
		NewStringColumn("all_distinct", col(n, func(i int) string { return fmt.Sprintf("comment %d about nothing in particular", i) })),
		NewStringColumn("one_value", col(n, func(int) string { return "DELIVER IN PERSON" })),
	}
	tab := MustNewTable("d", 4<<10, cols...)
	vals := make([][]string, len(cols))
	for i, c := range cols {
		vals[i] = c.Values().Str
	}
	tab.Compress()
	sawDict, sawNone := false, false
	for ci, c := range tab.Cols {
		e := c.Enc
		dict, bitw, dictBytes, chunks := refStrColumn(vals[ci], e.ChunkRows)
		if !slices.Equal(e.Dict, dict) || e.DictBits != bitw || e.DictBytes != dictBytes {
			t.Fatalf("%s: dictionary of %d entries at %d bits (%d B), the sort-first encoder keeps %d at %d bits (%d B)",
				c.Name, len(e.Dict), e.DictBits, e.DictBytes, len(dict), bitw, dictBytes)
		}
		if len(e.Chunks) != len(chunks) {
			t.Fatalf("%s: %d chunks, want %d", c.Name, len(e.Chunks), len(chunks))
		}
		for i, w := range chunks {
			g := e.Chunks[i]
			if g.Enc != w.Enc || g.Bytes != w.Bytes || g.Start != w.Start || g.Rows != w.Rows || g.BitW != w.BitW ||
				!bytes.Equal(g.Packed, w.Packed) || !slices.Equal(g.RunS, w.RunS) || !slices.Equal(g.RunN, w.RunN) {
				t.Fatalf("%s chunk %d: %s in %d B, the sort-first encoder writes %s in %d B (or the payloads differ)",
					c.Name, i, g.Enc, g.Bytes, w.Enc, w.Bytes)
			}
		}
		sawDict = sawDict || dict != nil
		sawNone = sawNone || dict == nil
		if _, _, got := decodeAll(c); !slices.Equal(got, vals[ci]) {
			t.Fatalf("%s does not decode back to its values", c.Name)
		}
	}
	if !sawDict || !sawNone {
		t.Fatalf("the columns must fall on both sides of the dictionary decision (kept %v, rejected %v)", sawDict, sawNone)
	}
	if d := tab.MustColumn("at_the_cap").Enc.Dict; len(d) != maxDictEntries {
		t.Fatalf("a column of exactly %d distinct values keeps a dictionary of %d", maxDictEntries, len(d))
	}
	if d := tab.MustColumn("past_the_cap").Enc.Dict; d != nil {
		t.Fatalf("a column of %d distinct values keeps a dictionary", maxDictEntries+1)
	}
}

// TestBatchColumnIsOneChunk: a batch column on the wire is the chunk a stored
// column of the same values with a single chunk holds — the same encoding
// picked, the same bytes written — for every kind and encoding, floats with
// both zeros and NaN payloads included. The batch adds its envelope and, per
// column, the kind and row count.
func TestBatchColumnIsOneChunk(t *testing.T) {
	const n = 1000
	rng := rand.New(rand.NewSource(77))
	odd := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000abc), math.Copysign(0, -1), 0, math.Inf(-1)}
	i64 := func(f func(i int) int64) *Column {
		v := make([]int64, n)
		for i := range v {
			v[i] = f(i)
		}
		return NewInt64Column("c", v)
	}
	f64 := func(f func(i int) float64) *Column {
		v := make([]float64, n)
		for i := range v {
			v[i] = f(i)
		}
		return NewFloat64Column("c", v)
	}
	str := func(f func(i int) string) *Column {
		v := make([]string, n)
		for i := range v {
			v[i] = f(i)
		}
		return NewStringColumn("c", v)
	}
	cases := []struct {
		name string
		col  *Column
		want Encoding
	}{
		{"int64 noise", i64(func(int) int64 { return rng.Int63() - rng.Int63() }), EncRaw},
		{"int64 wide runs", i64(func(i int) int64 { return int64(i/250) * 1_000_000_000_000_007 }), EncRLE},
		{"int64 narrow", i64(func(i int) int64 { return 1_000_000 + int64(i%97) }), EncFOR},
		{"float64 noise with odd values", f64(func(i int) float64 {
			if i%7 == 0 {
				return odd[rng.Intn(len(odd))]
			}
			return rng.Float64()
		}), EncRaw},
		{"float64 runs of odd values", f64(func(i int) float64 { return odd[i/100%len(odd)] }), EncRLE},
		{"string unique", str(func(i int) string { return fmt.Sprintf("customer-%06d-%d", i, rng.Int63()) }), EncRaw},
		{"string short runs", str(func(i int) string { return string(rune('a' + i/100)) }), EncRLE},
		{"string low cardinality", str(func(int) string { return []string{"AIR", "", "MAIL", "SHIP"}[rng.Intn(4)] }), EncDict},
	}
	for _, tc := range cases {
		c := tc.col
		vals := c.Values()
		c.finish()
		c.encodeAt(n) // chunks of n rows: one chunk
		if len(c.Enc.Chunks) != 1 || c.Enc.Chunks[0].Enc != tc.want {
			t.Fatalf("%s: %d chunks, the first %s; the case wants one %s chunk", tc.name, len(c.Enc.Chunks), c.Enc.Chunks[0].Enc, tc.want)
		}
		var w vector.ChunkWriter
		w.Body = append(w.Body, byte(c.Kind))
		w.Uvar(n)
		if c.Kind == vector.String {
			w.Dict(c.Enc.Dict)
		}
		w.Chunk(c.Kind, &c.Enc.Chunks[0])
		want := binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint64([]byte{0}, 0), 1)
		want = binary.LittleEndian.AppendUint32(want, uint32(len(w.Body)))
		want = binary.LittleEndian.AppendUint32(want, uint32(len(w.Heap)))
		want = append(append(want, w.Body...), w.Heap...)

		b := &vector.Batch{Cols: []*vector.Vector{vals}}
		got := b.Encode(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the batch column is %d bytes, the stored %s chunk behind the envelope %d — or they differ",
				tc.name, len(got), tc.want, len(want))
		}
		back, used, err := vector.DecodeBatch(got)
		if err != nil || used != len(got) {
			t.Fatalf("%s: decode: %v (%d of %d bytes)", tc.name, err, used, len(got))
		}
		v := back.Cols[0]
		if !slices.Equal(v.I64, vals.I64) || !slices.Equal(v.Str, vals.Str) || !slices.Equal(bitsOf(v.F64), bitsOf(vals.F64)) {
			t.Fatalf("%s: the column does not survive the batch codec bit for bit", tc.name)
		}
	}
}
