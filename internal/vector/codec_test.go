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
// (dict), constant floats (RLE on bits), plus incompressible noise columns
// that must fall back to raw.
func encodingBatch(n int) *Batch {
	b := NewBatch([]Kind{Int64, Int64, Int64, Float64, String, String})
	for i := 0; i < n; i++ {
		b.Cols[0].AppendInt64(int64(i / 64))                                                                             // runs → RLE
		b.Cols[1].AppendInt64(1_000_000 + int64(i%97))                                                                   // narrow → FOR
		b.Cols[2].AppendInt64(int64(uint64(i)*0x9e3779b97f4a7c15) - 3)                                                   // noise → raw
		b.Cols[3].AppendFloat64(2.25)                                                                                    // constant → RLE
		b.Cols[4].AppendString([]string{"auto", "house", "tools"}[i%3])                                                  // dict
		b.Cols[5].AppendString(string(rune('a'+i%26)) + "-" + string(rune('0'+i%10)) + "x" + string(rune('A'+(i/7)%26))) // high-card
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

// refEncodeStrCol is the string-column encoder as it was before viability
// was decided on counts: collect the distinct values, sort them, only then
// cost the candidates, and pack dictionary codes by hashing every value a
// second time. Encode's output must not have moved by a byte.
func refEncodeStrCol(buf []byte, v []string) []byte {
	n := len(v)
	if n == 0 {
		return append(buf, wireRaw)
	}
	rawB, rleB := 0, 0
	distinct := make(map[string]uint32, 64)
	for i, s := range v {
		rawB += 4 + len(s)
		if i == 0 || s != v[i-1] {
			rleB += 8 + len(s)
		}
		distinct[s] = 0
	}
	dict := make([]string, 0, len(distinct))
	dictB := 4 + 1
	for s := range distinct {
		dict = append(dict, s)
		dictB += 4 + len(s)
	}
	sort.Strings(dict)
	bitw := uint8(bits.Len(uint(len(dict) - 1)))
	dictB += BitPackLen(n, bitw)
	tag, best := wireRaw, rawB
	if dictB < best {
		tag, best = wireDict, dictB
	}
	if rleB < best {
		tag = wireRLE
	}
	buf = append(buf, byte(tag))
	switch tag {
	case wireRaw:
		for _, s := range v {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			buf = append(buf, s...)
		}
	case wireRLE:
		var runs [][2]int // start, length
		for i := range v {
			if i == 0 || v[i] != v[i-1] {
				runs = append(runs, [2]int{i, 0})
			}
			runs[len(runs)-1][1]++
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(runs)))
		for _, r := range runs {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v[r[0]])))
			buf = append(buf, v[r[0]]...)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(r[1]))
		}
	case wireDict:
		for code, s := range dict {
			distinct[s] = uint32(code)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(dict)))
		for _, s := range dict {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			buf = append(buf, s...)
		}
		buf = append(buf, bitw)
		off := len(buf)
		buf = append(buf, make([]byte, BitPackLen(n, bitw))...)
		BitPack(buf[off:], n, bitw, func(i int) uint64 { return uint64(distinct[v[i]]) })
	}
	return buf
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

// TestDictEncodingUnchanged: Batch.Encode produces the bytes the sort-first
// encoder produced, whether or not the dictionary wins, and they decode back.
func TestDictEncodingUnchanged(t *testing.T) {
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
		want := []byte{0}
		want = binary.LittleEndian.AppendUint64(want, 0)
		want = binary.LittleEndian.AppendUint16(want, 2)
		for _, c := range b.Cols {
			want = append(want, byte(String))
			want = binary.LittleEndian.AppendUint32(want, uint32(len(vals)))
			want = refEncodeStrCol(want, c.Str)
		}
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
}
