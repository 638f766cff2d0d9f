package vector

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// rangeCase is one chunk and the values it encodes.
type rangeCase struct {
	name string
	ch   Chunk
	dict []string
	want *Vector
}

// forCase packs vals as a frame-of-reference chunk at exactly bitw bits.
func forCase(vals []int64, bitw int) rangeCase {
	base := vals[0]
	for _, v := range vals {
		base = min(base, v)
	}
	ch := Chunk{Enc: EncFOR, Rows: len(vals), Base: base}
	BitPack(ch.packed(len(vals), uint8(bitw)), vals, uint8(bitw), base)
	return rangeCase{name: fmt.Sprintf("for/w%d", bitw), ch: ch, want: &Vector{Kind: Int64, I64: vals}}
}

// runLens splits rows into runs of 1…maxRun rows.
func runLens(rng *rand.Rand, rows, maxRun int) []int32 {
	var lens []int32
	for left := rows; left > 0; {
		n := min(left, 1+rng.Intn(maxRun))
		lens, left = append(lens, int32(n)), left-n
	}
	return lens
}

// expand repeats vals[r] lens[r] times.
func expand[T any](vals []T, lens []int32) []T {
	var out []T
	for r, n := range lens {
		for range n {
			out = append(out, vals[r])
		}
	}
	return out
}

// appendRangeCases covers every encoding of every kind: FOR at the widths a
// stored column reaches (0 and 64 included), dictionaries of one and of
// MaxDictEntries entries, runs of one row and of many, and raw values.
func appendRangeCases(rng *rand.Rand, rows int) []rangeCase {
	var cases []rangeCase
	for _, bitw := range []int{0, 1, 7, 33, 57, 64} {
		vals := make([]int64, rows)
		base := int64(math.MinInt64) + int64(rng.Intn(1000))
		if bitw == 64 {
			base = math.MinInt64
		}
		top := ^uint64(0) >> (64 - bitw) // the largest delta, for bitw > 0
		for i := range vals {
			d := uint64(0)
			if bitw > 0 {
				d = rng.Uint64() & top
			}
			vals[i] = int64(uint64(base) + d)
		}
		if bitw > 0 {
			vals[rng.Intn(rows)] = int64(uint64(base) + top) // the width is exact
		}
		vals[rng.Intn(rows)] = base
		cases = append(cases, forCase(vals, bitw))
	}
	for _, entries := range []int{1, MaxDictEntries} {
		dict := make([]string, entries)
		for i := range dict {
			dict[i] = fmt.Sprintf("v%06d", i)
		}
		codes := make([]uint32, rows)
		for i := range codes {
			codes[i] = uint32(rng.Intn(entries))
		}
		codes[0], codes[rows-1] = 0, uint32(entries-1)
		vals := make([]string, rows)
		for i, c := range codes {
			vals[i] = dict[c]
		}
		ch := Chunk{Enc: EncDict, Rows: rows}
		bitw := uint8(bits.Len(uint(entries - 1)))
		BitPack(ch.packed(rows, bitw), codes, bitw, 0)
		cases = append(cases, rangeCase{name: fmt.Sprintf("dict/%d", entries), ch: ch, dict: dict, want: &Vector{Kind: String, Str: vals}})
	}
	for _, maxRun := range []int{1, 40} {
		lens := runLens(rng, rows, maxRun)
		runI := make([]int64, len(lens))
		runS := make([]string, len(lens))
		for r := range lens {
			runI[r] = rng.Int63() - rng.Int63()
			runS[r] = fmt.Sprint("run", rng.Intn(10))
		}
		name := fmt.Sprintf("rle/max%d/", maxRun)
		cases = append(cases,
			rangeCase{name: name + "i64", ch: Chunk{Enc: EncRLE, Rows: rows, RunI: runI, RunN: lens}, want: &Vector{Kind: Int64, I64: expand(runI, lens)}},
			rangeCase{name: name + "str", ch: Chunk{Enc: EncRLE, Rows: rows, RunS: runS, RunN: lens}, want: &Vector{Kind: String, Str: expand(runS, lens)}})
	}
	i64, f64, str := make([]int64, rows), make([]float64, rows), make([]string, rows)
	for i := range rows {
		i64[i], f64[i], str[i] = rng.Int63(), rng.NormFloat64(), fmt.Sprint(rng.Intn(1000))
	}
	return append(cases,
		rangeCase{name: "raw/i64", ch: Chunk{Enc: EncRaw, Rows: rows, ValI: i64}, want: &Vector{Kind: Int64, I64: i64}},
		rangeCase{name: "raw/f64", ch: Chunk{Enc: EncRaw, Rows: rows, ValF: f64}, want: &Vector{Kind: Float64, F64: f64}},
		rangeCase{name: "raw/str", ch: Chunk{Enc: EncRaw, Rows: rows, ValS: HeapOf(str)}, want: &Vector{Kind: String, Str: str}})
}

// sameRows reports whether a's rows [alo, alo+n) equal b's rows [blo, blo+n),
// floats by bit pattern.
func sameRows(a *Vector, alo int, b *Vector, blo, n int) bool {
	for i := range n {
		switch a.Kind {
		case Int64:
			if a.I64[alo+i] != b.I64[blo+i] {
				return false
			}
		case Float64:
			if math.Float64bits(a.F64[alo+i]) != math.Float64bits(b.F64[blo+i]) {
				return false
			}
		case String:
			if a.Str[alo+i] != b.Str[blo+i] {
				return false
			}
		}
	}
	return true
}

// TestAppendRangeMatchesValues appends windows [lo,hi) of every chunk case —
// empty ones, the whole chunk, random ones, and for run-length chunks every
// pairing of run edges with rows inside runs — onto a vector that already
// holds rows, and requires those rows kept and the window's values appended.
func TestAppendRangeMatchesValues(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	const rows = 1500
	for _, c := range appendRangeCases(rng, rows) {
		windows := [][2]int{{0, 0}, {rows, rows}, {rows / 2, rows / 2}, {0, rows}, {0, 1}, {rows - 1, rows}}
		for range 200 {
			lo := rng.Intn(rows + 1)
			windows = append(windows, [2]int{lo, lo + rng.Intn(rows+1-lo)})
		}
		if c.ch.Enc == EncRLE {
			var edges []int // run starts, and a row inside each run of two or more
			pos := 0
			for _, n := range c.ch.RunN[:min(len(c.ch.RunN), 12)] {
				edges = append(edges, pos)
				if n > 1 {
					edges = append(edges, pos+1+rng.Intn(int(n)-1))
				}
				pos += int(n)
			}
			for _, lo := range edges {
				for _, hi := range append(edges, rows) {
					if lo <= hi {
						windows = append(windows, [2]int{lo, hi})
					}
				}
			}
		}
		for _, w := range windows {
			lo, hi := w[0], w[1]
			pre := 3 + rng.Intn(3)
			dst := &Vector{Kind: c.want.Kind}
			c.ch.AppendRange(c.dict, rows-pre, rows, dst) // rows already present
			c.ch.AppendRange(c.dict, lo, hi, dst)
			if dst.Len() != pre+hi-lo {
				t.Fatalf("%s [%d,%d): %d rows after %d, want %d", c.name, lo, hi, dst.Len(), pre, pre+hi-lo)
			}
			if !sameRows(dst, 0, c.want, rows-pre, pre) || !sameRows(dst, pre, c.want, lo, hi-lo) {
				t.Fatalf("%s [%d,%d): appended rows differ from the chunk's values", c.name, lo, hi)
			}
		}
	}
}

// TestEncodeStrCodesMatchValues: EncodeStr decides a dictionary column's
// chunk from its codes — runs are code changes, bounds the least and
// greatest code, raw and RLE bytes the entries' lengths summed — and that
// must be the choice and the bytes the values give. Spans over alphabets of
// short and long values, in runs or not, at code widths up to 12 bits (a
// column's dictionary may be wider than a span's), so that raw, RLE and
// dictionary each win, are encoded from their codes and from their values
// alone: a chunk the codes do not dictionary-encode must be the values'
// chunk, and a dictionary chunk must have the values' bounds.
func TestEncodeStrCodesMatchValues(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	saw := map[Encoding]bool{}
	for k := range 400 {
		alphabet := make([]string, 1+rng.Intn(6))
		for i := range alphabet {
			alphabet[i] = strings.Repeat(string(rune('a'+rng.Intn(8))), 1+rng.Intn(3)*rng.Intn(8))
		}
		dict := slices.Compact(slices.Sorted(slices.Values(alphabet)))
		rows, maxRun := 1+rng.Intn(300), 1+rng.Intn(40)
		var vals []string
		for len(vals) < rows {
			s := dict[rng.Intn(len(dict))]
			for range 1 + rng.Intn(maxRun) {
				vals = append(vals, s)
			}
		}
		vals = vals[:rows]
		codes := make([]uint32, rows)
		for i, s := range vals {
			c, _ := slices.BinarySearch(dict, s)
			codes[i] = uint32(c)
		}
		bitw := uint8(max(bits.Len(uint(len(dict)-1)), rng.Intn(13)))
		var fromCodes, fromVals Chunk
		fromCodes.EncodeStr(HeapOf(vals), codes, dict, bitw)
		fromVals.EncodeStr(HeapOf(vals), nil, nil, 0)
		saw[fromCodes.Enc] = true
		if fromCodes.Enc == EncDict {
			if fromCodes.MinS != fromVals.MinS || fromCodes.MaxS != fromVals.MaxS || fromCodes.Bytes != int64(BitPackLen(rows, bitw)) {
				t.Fatalf("case %d: dictionary chunk of %d B bounded [%q,%q], the values' [%q,%q]",
					k, fromCodes.Bytes, fromCodes.MinS, fromCodes.MaxS, fromVals.MinS, fromVals.MaxS)
			}
			continue
		}
		if !reflect.DeepEqual(fromCodes, fromVals) {
			t.Fatalf("case %d: from codes %s in %d B, from values %s in %d B (or their runs or bounds differ)",
				k, fromCodes.Enc, fromCodes.Bytes, fromVals.Enc, fromVals.Bytes)
		}
	}
	if !saw[EncRaw] || !saw[EncRLE] || !saw[EncDict] {
		t.Fatalf("the spans must fall on every side of the race: saw %v", saw)
	}
}

// TestDecodeAllocatesNothing holds decoding into a presized destination to
// no allocation: AppendRange over frame-of-reference chunks and dictionary
// chunks (whose codes unpack through a block on the stack) and AppendCodes
// over the dictionary chunks, from an aligned and an unaligned row. An
// unpack dispatch that moved the block or the destination to the heap would
// allocate on every call.
func TestDecodeAllocatesNothing(t *testing.T) {
	const rows = 1500
	codes := make([]uint32, 0, rows)
	for _, c := range appendRangeCases(rand.New(rand.NewSource(57)), rows) {
		if c.ch.Enc != EncFOR && c.ch.Enc != EncDict {
			continue
		}
		dst := &Vector{Kind: c.want.Kind}
		c.ch.AppendRange(c.dict, 0, rows, dst)
		for _, lo := range []int{0, 3} {
			if n := testing.AllocsPerRun(20, func() {
				dst.I64, dst.Str = dst.I64[:0], dst.Str[:0]
				c.ch.AppendRange(c.dict, lo, rows, dst)
			}); n != 0 {
				t.Errorf("%s: AppendRange from row %d allocates %.1f times a call", c.name, lo, n)
			}
			if c.ch.Enc != EncDict {
				continue
			}
			if n := testing.AllocsPerRun(20, func() { codes = c.ch.AppendCodes(lo, rows, codes[:0], nil) }); n != 0 {
				t.Errorf("%s: AppendCodes from row %d allocates %.1f times a call", c.name, lo, n)
			}
		}
	}
}
