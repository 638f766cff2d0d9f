package storage

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"bdcc/internal/vector"
)

// This file is the lightweight columnar compression layer: per-column-chunk
// encodings chosen by modeled cost. BDCC's z-order co-clustering makes
// column values locally homogeneous inside each cell, which is exactly the
// condition under which run-length, dictionary and frame-of-reference
// encodings pay off — the compression style of the paper's VectorWise host
// system. Chunks are page-aligned at the column's raw width (one chunk of
// int64 values spans exactly one uncompressed 32 KB page), each chunk keeps
// the cheapest of the candidate encodings, and the encoded byte total feeds
// the modeled column width, so page charges, Algorithm 1's densest-column
// granularity choice, and the grid's mb_read all see post-compression bytes.
// Encodings are exact: a decoded chunk reproduces the raw values bit for
// bit (floats run-length-encode on their IEEE-754 bit patterns), which is
// what lets the equivalence oracle demand byte-identical query results with
// compression on and off. See docs/STORAGE.md for the format and cost model.

// Encoding identifies the compression scheme of one chunk.
type Encoding uint8

const (
	// EncRaw is the uncompressed fallback: values at their raw width.
	EncRaw Encoding = iota
	// EncRLE is run-length encoding: (value, run length) pairs.
	EncRLE
	// EncDict is dictionary encoding: bit-packed codes into a sorted
	// per-column dictionary (shared across the column's chunks).
	EncDict
	// EncFOR is frame-of-reference encoding for int64: a chunk-local base
	// plus bit-packed unsigned deltas.
	EncFOR

	numEncodings
)

// String implements fmt.Stringer.
func (e Encoding) String() string {
	switch e {
	case EncRaw:
		return "raw"
	case EncRLE:
		return "rle"
	case EncDict:
		return "dict"
	case EncFOR:
		return "for"
	}
	return "enc?"
}

// maxDictEntries bounds the per-column dictionary: columns with more
// distinct values than this never dictionary-encode (their codes would be
// nearly as wide as the values).
const maxDictEntries = 1 << 16

// Chunk is one encoded page-aligned span of a column. Only the fields of
// its encoding are populated; Min/Max of the chunk's values are computed
// during encoding (from runs or codes, not by an extra row loop) and feed
// the zonemap directly.
type Chunk struct {
	Enc   Encoding
	Start int   // first row of the span
	Rows  int   // rows in the span
	Bytes int64 // modeled encoded size

	// EncRLE: run values (RunF holds IEEE-754 bits for exactness) and run
	// lengths, parallel slices.
	RunI []int64
	RunF []uint64
	RunS []string
	RunN []int32

	// EncRaw: the chunk's values — a window of the column's retained arrays,
	// or arrays decoded from a column frame (wire.go) on an adopted column,
	// which retains nothing else.
	ValI []int64
	ValF []float64
	ValS []string

	// EncFOR: base + bit-packed deltas; EncDict reuses Packed for the
	// bit-packed dictionary codes at the column's DictBits width.
	Base   int64
	BitW   uint8
	Packed []byte

	// Per-chunk value bounds (same comparison semantics as the zonemap
	// row loops; for floats, NaNs neither raise nor lower the bounds).
	MinI, MaxI int64
	MinF, MaxF float64
	MinS, MaxS string
}

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
	Counts [numEncodings]int64
}

// ChunkBuf is reusable decode scratch: one chunk's values, materialized.
type ChunkBuf struct {
	I64 []int64
	F64 []float64
	Str []string

	codes []uint64 // unpacked dictionary codes of the chunk being decoded
}

// encodeColumn builds the encoded form of c at the given chunk granularity
// (rows per uncompressed page, so chunks are page-aligned at raw width).
func encodeColumn(c *Column, chunkRows int, dict *vector.StrDict) *ColumnEncoding {
	n := c.Len()
	e := &ColumnEncoding{ChunkRows: chunkRows, Chunks: make([]Chunk, 0, (n+chunkRows-1)/chunkRows)}
	var codes []uint32 // per-row dictionary codes; nil: no dictionary
	if c.Kind == vector.String && n > 0 {
		codes = e.buildDict(c.Str, dict)
	}
	for start := 0; start < n; start += chunkRows {
		end := min(start+chunkRows, n)
		var ch Chunk
		switch c.Kind {
		case vector.Int64:
			ch = encodeI64Chunk(c.I64[start:end])
		case vector.Float64:
			ch = encodeF64Chunk(c.F64[start:end])
		case vector.String:
			var chunkCodes []uint32
			if codes != nil {
				chunkCodes = codes[start:end]
			}
			ch = e.encodeStrChunk(c.Str[start:end], chunkCodes)
		}
		ch.Start, ch.Rows = start, end-start
		e.Chunks = append(e.Chunks, ch)
		e.EncodedBytes += ch.Bytes
		e.Counts[ch.Enc]++
	}
	switch c.Kind {
	case vector.Int64, vector.Float64:
		e.RawBytes = 8 * int64(n)
	case vector.String:
		for _, s := range c.Str {
			e.RawBytes += int64(len(s))
		}
	}
	if e.Counts[EncDict] > 0 {
		e.EncodedBytes += e.DictBytes
	} else {
		e.Dict, e.DictBits, e.DictBytes = nil, 0, 0
	}
	return e
}

// buildDict collects the column's sorted dictionary when it is viable: few
// enough distinct values, and dictionary plus packed codes modeled smaller
// than the raw column. Both tests need only the distinct values' count and
// byte sum, so they run before the dictionary is sorted — a column that will
// not dictionary-encode never pays for the sort. It returns the dictionary
// code of every row, or nil when the column should not dictionary-encode.
func (e *ColumnEncoding) buildDict(vals []string, d *vector.StrDict) []uint32 {
	if !d.Collect(vals, maxDictEntries) {
		return nil
	}
	var rawBytes int64
	for _, s := range vals {
		rawBytes += int64(len(s))
	}
	bitw := uint8(bits.Len(uint(d.Len() - 1)))
	dictBytes := int64(4*d.Len() + d.Bytes)
	if dictBytes+int64(vector.BitPackLen(len(vals), bitw)) >= rawBytes {
		return nil
	}
	e.Dict, e.DictBits, e.DictBytes = d.Sort(), bitw, dictBytes
	return d.IDs
}

func encodeI64Chunk(v []int64) Chunk {
	rows := len(v)
	runs := 1
	mn, mx := v[0], v[0]
	for i := 1; i < rows; i++ {
		if v[i] != v[i-1] {
			runs++
		}
		if v[i] < mn {
			mn = v[i]
		}
		if v[i] > mx {
			mx = v[i]
		}
	}
	bitw := uint8(bits.Len64(uint64(mx) - uint64(mn)))
	ch := Chunk{Enc: EncRaw, Bytes: 8 * int64(rows), MinI: mn, MaxI: mx}
	if rleB := 12 * int64(runs); rleB < ch.Bytes {
		ch.Enc, ch.Bytes = EncRLE, rleB
	}
	if forB := 9 + int64(vector.BitPackLen(rows, bitw)); forB < ch.Bytes {
		ch.Enc, ch.Bytes = EncFOR, forB
	}
	switch ch.Enc {
	case EncRLE:
		ch.RunI = make([]int64, 0, runs)
		ch.RunN = make([]int32, 0, runs)
		appendRunsI64(&ch, v)
	case EncFOR:
		ch.Base, ch.BitW = mn, bitw
		ch.Packed = make([]byte, vector.BitPackLen(rows, bitw))
		vector.BitPack(ch.Packed, rows, bitw, func(i int) uint64 { return uint64(v[i]) - uint64(mn) })
	default:
		ch.ValI = v
	}
	return ch
}

func appendRunsI64(ch *Chunk, v []int64) {
	cur, n := v[0], int32(1)
	for _, x := range v[1:] {
		if x == cur {
			n++
			continue
		}
		ch.RunI = append(ch.RunI, cur)
		ch.RunN = append(ch.RunN, n)
		cur, n = x, 1
	}
	ch.RunI = append(ch.RunI, cur)
	ch.RunN = append(ch.RunN, n)
}

func encodeF64Chunk(v []float64) Chunk {
	rows := len(v)
	runs := 1
	mn, mx := v[0], v[0]
	prev := math.Float64bits(v[0])
	for i := 1; i < rows; i++ {
		b := math.Float64bits(v[i])
		if b != prev {
			runs++
			prev = b
		}
		if v[i] < mn {
			mn = v[i]
		}
		if v[i] > mx {
			mx = v[i]
		}
	}
	ch := Chunk{Enc: EncRaw, Bytes: 8 * int64(rows), MinF: mn, MaxF: mx}
	if rleB := 12 * int64(runs); rleB < ch.Bytes {
		ch.Enc, ch.Bytes = EncRLE, rleB
		ch.RunF = make([]uint64, 0, runs)
		ch.RunN = make([]int32, 0, runs)
		cur, n := math.Float64bits(v[0]), int32(1)
		for _, x := range v[1:] {
			if b := math.Float64bits(x); b == cur {
				n++
			} else {
				ch.RunF = append(ch.RunF, cur)
				ch.RunN = append(ch.RunN, n)
				cur, n = b, 1
			}
		}
		ch.RunF = append(ch.RunF, cur)
		ch.RunN = append(ch.RunN, n)
	} else {
		ch.ValF = v
	}
	return ch
}

// encodeStrChunk costs the candidates in one run walk (run values cover
// every distinct value of the chunk, so the chunk's Min/Max fall out of the
// walk without a dedicated row loop).
func (e *ColumnEncoding) encodeStrChunk(v []string, codes []uint32) Chunk {
	rows := len(v)
	runs := 1
	var rawB, rleB int64
	mn, mx := v[0], v[0]
	rleB = int64(8 + len(v[0]))
	rawB = int64(len(v[0]))
	for i := 1; i < rows; i++ {
		rawB += int64(len(v[i]))
		if v[i] != v[i-1] {
			runs++
			rleB += int64(8 + len(v[i]))
			if v[i] < mn {
				mn = v[i]
			}
			if v[i] > mx {
				mx = v[i]
			}
		}
	}
	ch := Chunk{Enc: EncRaw, Bytes: rawB, MinS: mn, MaxS: mx}
	if codes != nil {
		if dictB := int64(vector.BitPackLen(rows, e.DictBits)); dictB < ch.Bytes {
			ch.Enc, ch.Bytes = EncDict, dictB
		}
	}
	if rleB < ch.Bytes {
		ch.Enc, ch.Bytes = EncRLE, rleB
	}
	switch ch.Enc {
	case EncRLE:
		ch.RunS = make([]string, 0, runs)
		ch.RunN = make([]int32, 0, runs)
		cur, n := v[0], int32(1)
		for _, x := range v[1:] {
			if x == cur {
				n++
			} else {
				ch.RunS = append(ch.RunS, cur)
				ch.RunN = append(ch.RunN, n)
				cur, n = x, 1
			}
		}
		ch.RunS = append(ch.RunS, cur)
		ch.RunN = append(ch.RunN, n)
	case EncDict:
		ch.BitW = e.DictBits
		ch.Packed = make([]byte, vector.BitPackLen(rows, e.DictBits))
		vector.BitPack(ch.Packed, rows, e.DictBits, func(i int) uint64 { return uint64(codes[i]) })
	default:
		ch.ValS = v
	}
	return ch
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

// DecodeChunk materializes chunk ci of the column into buf, resetting it
// first. Raw chunks copy their values; the other encodings reconstruct the
// exact original values.
func (c *Column) DecodeChunk(ci int, buf *ChunkBuf) {
	ch := &c.Enc.Chunks[ci]
	switch c.Kind {
	case vector.Int64:
		buf.I64 = slices.Grow(buf.I64[:0], ch.Rows)[:ch.Rows]
		switch ch.Enc {
		case EncRaw:
			copy(buf.I64, ch.ValI)
		case EncRLE:
			fillRuns(buf.I64, ch.RunI, ch.RunN)
		case EncFOR:
			vector.BitUnpack(buf.I64, ch.Packed, 0, ch.BitW)
			for i := range buf.I64 {
				buf.I64[i] += ch.Base
			}
		}
	case vector.Float64:
		buf.F64 = slices.Grow(buf.F64[:0], ch.Rows)[:ch.Rows]
		switch ch.Enc {
		case EncRaw:
			copy(buf.F64, ch.ValF)
		case EncRLE:
			pos := 0
			for r, b := range ch.RunF {
				run := buf.F64[pos : pos+int(ch.RunN[r])]
				for k := range run {
					run[k] = math.Float64frombits(b)
				}
				pos += len(run)
			}
		}
	case vector.String:
		buf.Str = slices.Grow(buf.Str[:0], ch.Rows)[:ch.Rows]
		switch ch.Enc {
		case EncRaw:
			copy(buf.Str, ch.ValS)
		case EncRLE:
			fillRuns(buf.Str, ch.RunS, ch.RunN)
		case EncDict:
			buf.codes = slices.Grow(buf.codes[:0], ch.Rows)[:ch.Rows]
			vector.BitUnpack(buf.codes, ch.Packed, 0, ch.BitW)
			for i, code := range buf.codes {
				buf.Str[i] = c.Enc.Dict[code]
			}
		}
	}
}

// fillRuns expands run-length pairs into dst, whose length is the runs' sum.
func fillRuns[T any](dst []T, vals []T, lens []int32) {
	pos := 0
	for r, val := range vals {
		run := dst[pos : pos+int(lens[r])]
		for k := range run {
			run[k] = val
		}
		pos += len(run)
	}
}

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
			dst = ch.pruneRuns(c.Kind, iv, lo, segEnd, dst)
		case ch.Enc == EncDict:
			dst = ch.pruneCodes(c.Enc.Dict, iv, lo, segEnd, dst)
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
func (ch *Chunk) pruneRuns(kind vector.Kind, iv Interval, lo, hi int, dst []RowRange) []RowRange {
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
func (ch *Chunk) pruneCodes(dict []string, iv Interval, lo, hi int, dst []RowRange) []RowRange {
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
