package storage

import (
	"slices"
	"sort"

	"bdcc/internal/vector"
)

// This file is what is about tables in the lightweight columnar compression
// layer; the chunk itself — its encodings, the modeled-cost race that picks
// one, its expansion and its byte form — is internal/vector's. Chunks are
// page-aligned at the column's raw width (one chunk of int64 values spans
// exactly one uncompressed 32 KB page), string chunks share one column-wide
// dictionary, and the encoded byte total feeds the modeled column width, so
// page charges, Algorithm 1's densest-column granularity choice, and the
// grid's mb_read all see post-compression bytes. Encodings are exact, which
// is what lets the equivalence oracle demand byte-identical query results
// with compression on and off. See docs/STORAGE.md for the format and cost
// model.

// The chunk and its encodings, under the names storage has always used.
type (
	Chunk    = vector.Chunk
	Encoding = vector.Encoding
)

const (
	EncRaw  = vector.EncRaw
	EncRLE  = vector.EncRLE
	EncDict = vector.EncDict
	EncFOR  = vector.EncFOR

	maxDictEntries = vector.MaxDictEntries
)

// ColumnEncoding is the encoded form of one column: uniform chunk
// granularity, the chunk list, and the column-wide sorted dictionary its
// dict chunks share. The modeled totals drive the column's encoded width.
type ColumnEncoding struct {
	ChunkRows int
	Chunks    []Chunk

	// Dict is the column's sorted dictionary (string columns only; nil when
	// no chunk dictionary-encodes). Sorted order makes code order equal
	// value order, so range predicates evaluate on codes directly.
	Dict      []string
	DictBits  uint8
	DictBytes int64

	// RawBytes is the modeled uncompressed size (rows at raw width);
	// EncodedBytes is the chunk total plus the dictionary (charged once).
	RawBytes     int64
	EncodedBytes int64
	// Counts tallies chunks per encoding, indexed by Encoding.
	Counts [vector.NumEncodings]int64
}

// encodeColumn builds the encoded form of c at the given chunk granularity
// (rows per uncompressed page, so chunks are page-aligned at raw width). par,
// when not nil, is the encoding of a column whose rows [0, inPlace) c holds
// at the same rows: its whole chunks there are kept as they are when c's
// chunks are as long and c's dictionary is par's (or neither has one). Those
// are exactly the chunks encoding c would build: a chunk's encoding depends
// only on its values and, for strings, on the dictionary's codes and width —
// and a chunk of a column whose viable dictionary settleDict dropped did not
// dictionary-encode, so it is what no dictionary gives. Nothing of par's
// heap may stay reachable, since a view keeps its whole heap alive: a kept
// raw chunk is re-windowed onto c's arrays, a kept dictionary chunk's bounds
// become entries of c's dictionary, and a string chunk of any other
// encoding, whose run values or values are views, is encoded again.
func encodeColumn(c *Column, chunkRows int, dict *vector.StrDict, par *ColumnEncoding, inPlace int) *ColumnEncoding {
	n := c.Len()
	e := &ColumnEncoding{ChunkRows: chunkRows, Chunks: make([]Chunk, (n+chunkRows-1)/chunkRows)}
	var codes []uint32 // per-row dictionary codes; nil: no dictionary
	if c.Kind == vector.String && n > 0 {
		e.Dict, codes, e.DictBits, e.DictBytes = dict.ColumnDict(c.Str)
	}
	kept := 0
	if par != nil && par.ChunkRows == chunkRows && slices.Equal(e.Dict, par.Dict) {
		kept = inPlace / chunkRows
	}
	for i := range e.Chunks {
		ch := &e.Chunks[i]
		start := i * chunkRows
		end := min(start+chunkRows, n)
		switch {
		case i < kept && (c.Kind != vector.String || par.Chunks[i].Enc == EncDict):
			*ch = par.Chunks[i]
			switch ch.Enc {
			case EncRaw:
				rewindow(ch, c, start, end)
			case EncDict: // its bounds become entries of c's dictionary
				lo, _ := slices.BinarySearch(e.Dict, ch.MinS)
				hi, _ := slices.BinarySearch(e.Dict, ch.MaxS)
				ch.MinS, ch.MaxS = e.Dict[lo], e.Dict[hi]
			}
		case c.Kind == vector.Int64:
			ch.EncodeI64(c.I64[start:end])
		case c.Kind == vector.Float64:
			ch.EncodeF64(c.F64[start:end])
		case c.Kind == vector.String:
			var chunkCodes []uint32
			if codes != nil {
				chunkCodes = codes[start:end]
			}
			ch.EncodeStr(c.Str.Window(start, end), chunkCodes, e.DictBits)
		}
		ch.Start = start
		e.EncodedBytes += ch.Bytes
		e.Counts[ch.Enc]++
	}
	switch c.Kind {
	case vector.Int64, vector.Float64:
		e.RawBytes = 8 * int64(n)
	case vector.String:
		e.RawBytes = int64(c.Str.Size())
	}
	e.settleDict()
	return e
}

// rewindow points the raw chunk ch at rows [start,end) of c's values.
func rewindow(ch *Chunk, c *Column, start, end int) {
	switch c.Kind {
	case vector.Int64:
		ch.ValI = c.I64[start:end]
	case vector.Float64:
		ch.ValF = c.F64[start:end]
	case vector.String:
		ch.ValS = c.Str.Window(start, end)
	}
}

// settleDict charges the dictionary to the column once its chunks are all
// known, or drops one no chunk uses.
func (e *ColumnEncoding) settleDict() {
	if e.Counts[EncDict] > 0 {
		e.EncodedBytes += e.DictBytes
	} else {
		e.Dict, e.DictBits, e.DictBytes = nil, 0, 0
	}
}

// rows returns the number of values the chunks cover.
func (e *ColumnEncoding) rows() int {
	if n := len(e.Chunks); n > 0 {
		return e.Chunks[n-1].Start + e.Chunks[n-1].Rows
	}
	return 0
}

// chunkIndex returns the chunk covering row r.
func (e *ColumnEncoding) chunkIndex(r int) int { return r / e.ChunkRows }

// appendSpan appends [lo,hi) to dst, merging with an adjacent predecessor.
func appendSpan(dst []RowRange, lo, hi int) []RowRange {
	if n := len(dst); n > 0 && dst[n-1].End == lo {
		dst[n-1].End = hi
		return dst
	}
	return append(dst, RowRange{lo, hi})
}

// pruneSpan appends to dst the sub-spans of rows [lo,hi) that can possibly
// satisfy iv, consulting the column's encoded chunks without materializing
// values: RLE runs wholly outside the interval are dropped (the selection
// indexes into runs, not rows), and dictionary chunks drop rows whose codes
// fall outside the interval's code range in the sorted dictionary. Chunks
// without a cheap path (raw, frame-of-reference) survive whole. The result
// is conservative — no row satisfying iv is ever dropped — so scans that
// re-apply the full predicate stay exact.
func (c *Column) pruneSpan(iv Interval, lo, hi int, dst []RowRange) []RowRange {
	if c.Enc == nil || c.Kind == vector.Float64 {
		return appendSpan(dst, lo, hi)
	}
	for lo < hi {
		ci := c.Enc.chunkIndex(lo)
		ch := &c.Enc.Chunks[ci]
		segEnd := min(hi, ch.Start+ch.Rows)
		switch {
		case ch.Enc == EncRLE:
			dst = pruneRuns(ch, c.Kind, iv, lo, segEnd, dst)
		case ch.Enc == EncDict:
			dst = pruneCodes(ch, c.Enc.Dict, iv, lo, segEnd, dst)
		default:
			dst = appendSpan(dst, lo, segEnd)
		}
		lo = segEnd
	}
	return dst
}

// passI64 reports whether an int64 value can satisfy the interval.
func (iv Interval) passI64(x int64) bool {
	return (!iv.Lo.Set || x >= iv.Lo.I) && (!iv.Hi.Set || x <= iv.Hi.I)
}

// passStr reports whether a string value can satisfy the interval.
func (iv Interval) passStr(s string) bool {
	return (!iv.Lo.Set || s >= iv.Lo.S) && (!iv.Hi.Set || s <= iv.Hi.S)
}

// pruneRuns keeps the sub-spans of [lo,hi) whose RLE run value passes iv.
func pruneRuns(ch *Chunk, kind vector.Kind, iv Interval, lo, hi int, dst []RowRange) []RowRange {
	pos := ch.Start
	for r, n := range ch.RunN {
		runEnd := pos + int(n)
		if runEnd > lo && pos < hi {
			ok := false
			switch kind {
			case vector.Int64:
				ok = iv.passI64(ch.RunI[r])
			case vector.String:
				ok = iv.passStr(ch.RunS[r])
			}
			if ok {
				dst = appendSpan(dst, max(pos, lo), min(runEnd, hi))
			}
		}
		pos = runEnd
		if pos >= hi {
			break
		}
	}
	return dst
}

// pruneCodes keeps the rows of [lo,hi) whose dictionary code lies inside
// the interval's code range — an equality or range check on codes, before
// any string gather. An interval with no matching dictionary entry drops
// the whole span.
func pruneCodes(ch *Chunk, dict []string, iv Interval, lo, hi int, dst []RowRange) []RowRange {
	loCode, hiCode := uint64(0), uint64(len(dict)-1)
	if iv.Lo.Set {
		loCode = uint64(sort.SearchStrings(dict, iv.Lo.S))
	}
	if iv.Hi.Set {
		i := sort.SearchStrings(dict, iv.Hi.S)
		if i < len(dict) && dict[i] == iv.Hi.S {
			hiCode = uint64(i)
		} else if i == 0 {
			return dst // every dictionary entry is above the interval
		} else {
			hiCode = uint64(i - 1)
		}
	}
	if loCode > hiCode {
		return dst
	}
	spanLo := -1
	var blk [256]uint64
	for base := lo; base < hi; base += len(blk) {
		codes := blk[:min(len(blk), hi-base)]
		vector.BitUnpack(codes, ch.Packed, base-ch.Start, ch.BitW)
		for k, code := range codes {
			i := base + k
			if code >= loCode && code <= hiCode {
				if spanLo < 0 {
					spanLo = i
				}
			} else if spanLo >= 0 {
				dst = appendSpan(dst, spanLo, i)
				spanLo = -1
			}
		}
	}
	if spanLo >= 0 {
		dst = appendSpan(dst, spanLo, hi)
	}
	return dst
}
