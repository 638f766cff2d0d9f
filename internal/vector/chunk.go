package vector

import (
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"strings"
)

// This file is the one home of an encoded span of values: the chunk, the
// modeled-cost race that picks its encoding, and its expansion back into
// values. A stored column is a sequence of chunks (internal/storage), a batch
// column on the wire is one chunk (codec.go); both are written and read as
// bytes by chunkwire.go. BDCC's z-order co-clustering makes column values
// locally homogeneous, which is exactly the condition under which run-length,
// dictionary and frame-of-reference encodings pay off — the compression style
// of the paper's VectorWise host system. Encodings are exact: a decoded chunk
// reproduces the values bit for bit (floats run-length-encode on their
// IEEE-754 bit patterns). docs/STORAGE.md has the cost model.

// Encoding identifies the compression scheme of one chunk.
type Encoding uint8

const (
	// EncRaw is the uncompressed fallback: values at their raw width.
	EncRaw Encoding = iota
	// EncRLE is run-length encoding: (value, run length) pairs.
	EncRLE
	// EncDict is dictionary encoding: bit-packed codes into a sorted
	// dictionary the chunk's column holds.
	EncDict
	// EncFOR is frame-of-reference encoding for int64: a chunk-local base
	// plus bit-packed unsigned deltas.
	EncFOR

	// NumEncodings sizes arrays indexed by Encoding.
	NumEncodings
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

// MaxDictEntries bounds a column's dictionary: columns with more distinct
// values than this never dictionary-encode (their codes would be nearly as
// wide as the values).
const MaxDictEntries = 1 << 16

// Chunk is one encoded span of a column. Only the fields of its encoding are
// populated (raw strings: a window of a heap); Min/Max are computed during
// encoding (from runs or codes, not a row loop) and feed zonemaps directly.
type Chunk struct {
	Enc   Encoding
	Start int   // first row of the span in its column
	Rows  int   // rows in the span
	Bytes int64 // modeled encoded size

	// EncRLE: run values (RunF holds IEEE-754 bits for exactness) and run
	// lengths, parallel slices.
	RunI []int64
	RunF []uint64
	RunS []string
	RunN []int32

	// EncRaw: the chunk's values — a window of the arrays (for strings, the
	// heap) it was encoded from, or of those its byte form was read into.
	ValI []int64
	ValF []float64
	ValS Heap

	// EncFOR: base + bit-packed deltas; EncDict reuses Packed for the
	// bit-packed dictionary codes at the dictionary's bit width.
	Base   int64
	BitW   uint8
	Packed []byte

	// Per-chunk value bounds (for floats, NaNs neither raise nor lower the
	// bounds).
	MinI, MaxI int64
	MinF, MaxF float64
	MinS, MaxS string
}

// reset empties ch for the next encode, keeping the memory of its run and
// packed slices: a caller that encodes many spans through one Chunk (the
// batch codec) allocates for the largest, a caller that keeps each Chunk (a
// stored column) starts from a zero Chunk and gets slices sized to fit.
func (ch *Chunk) reset() {
	*ch = Chunk{RunI: ch.RunI[:0], RunF: ch.RunF[:0], RunS: ch.RunS[:0], RunN: ch.RunN[:0], Packed: ch.Packed[:0]}
}

// pack fills ch.Packed with rows values of bitw bits.
func (ch *Chunk) pack(rows int, bitw uint8, val func(i int) uint64) {
	ch.BitW = bitw
	ch.Packed = append(ch.Packed, make([]byte, BitPackLen(rows, bitw))...)
	BitPack(ch.Packed, rows, bitw, val)
}

// appendRuns appends the runs of the rows values at(0), …, at(rows-1) to
// vals and lens, grown once to the run count.
func appendRuns[T comparable](vals []T, lens []int32, runs, rows int, at func(int) T) ([]T, []int32) {
	vals, lens = slices.Grow(vals, runs), slices.Grow(lens, runs)
	cur, n := at(0), int32(1)
	for i := 1; i < rows; i++ {
		if x := at(i); x == cur {
			n++
		} else {
			vals, lens = append(vals, cur), append(lens, n)
			cur, n = x, 1
		}
	}
	return append(vals, cur), append(lens, n)
}

// EncodeI64 makes ch the cheapest encoding of the non-empty span v: one pass
// costs the candidates (raw 8/value, RLE 12/run, FOR 9 + packed deltas).
func (ch *Chunk) EncodeI64(v []int64) {
	ch.reset()
	rows := len(v)
	runs := 1
	mn, mx := v[0], v[0]
	for i := 1; i < rows; i++ {
		if v[i] != v[i-1] {
			runs++
		}
		mn = min(mn, v[i])
		mx = max(mx, v[i])
	}
	bitw := uint8(bits.Len64(uint64(mx) - uint64(mn)))
	ch.Enc, ch.Rows, ch.Bytes, ch.MinI, ch.MaxI = EncRaw, rows, 8*int64(rows), mn, mx
	if rleB := 12 * int64(runs); rleB < ch.Bytes {
		ch.Enc, ch.Bytes = EncRLE, rleB
	}
	if forB := 9 + int64(BitPackLen(rows, bitw)); forB < ch.Bytes {
		ch.Enc, ch.Bytes = EncFOR, forB
	}
	switch ch.Enc {
	case EncRLE:
		ch.RunI, ch.RunN = appendRuns(ch.RunI, ch.RunN, runs, rows, func(i int) int64 { return v[i] })
	case EncFOR:
		ch.Base = mn
		ch.pack(rows, bitw, func(i int) uint64 { return uint64(v[i]) - uint64(mn) })
	default:
		ch.ValI = v
	}
}

// EncodeF64 makes ch the cheapest encoding of the non-empty span v: raw, or
// RLE over the IEEE-754 bit patterns (bit equality, so -0.0 and NaN payloads
// survive exactly).
func (ch *Chunk) EncodeF64(v []float64) {
	ch.reset()
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
	ch.Enc, ch.Rows, ch.Bytes, ch.MinF, ch.MaxF = EncRaw, rows, 8*int64(rows), mn, mx
	rleB := 12 * int64(runs)
	if rleB >= ch.Bytes {
		ch.ValF = v
		return
	}
	ch.Enc, ch.Bytes = EncRLE, rleB
	ch.RunF, ch.RunN = appendRuns(ch.RunF, ch.RunN, runs, rows, func(i int) uint64 { return math.Float64bits(v[i]) })
}

// EncodeStr makes ch the cheapest encoding of the non-empty span v, costing
// the candidates in one run walk (run values cover every distinct value of
// the span, so Min/Max fall out of the walk without a dedicated row loop).
// codes, when not nil, are the rows' codes in dict, the column's sorted
// dictionary of 1<<dictBits entries at most (StrDict.ColumnDict), and the
// walk is over them: runs are code changes, bounds the least and greatest
// code, raw and RLE bytes the entries' lengths summed — the choice and bytes
// the values give, so v is needed only by a raw chunk, and may be empty
// otherwise. nil codes mean the column keeps no dictionary. The dictionary
// itself is charged to the column, once, not to the chunk. Run values and
// bounds are views of v's heap or of dict.
func (ch *Chunk) EncodeStr(v Heap, codes []uint32, dict []string, dictBits uint8) {
	ch.reset()
	rows, runs, at := v.Len(), 1, v.At
	var mn, mx string
	var rawB, rleB int64
	if codes == nil {
		prev := v.At(0)
		mn, mx, rawB, rleB = prev, prev, int64(v.Size()), int64(8+len(prev))
		for i := 1; i < rows; i++ {
			if s := v.At(i); s != prev {
				runs++
				rleB += int64(8 + len(s))
				mn, mx, prev = min(mn, s), max(mx, s), s
			}
		}
	} else {
		rows, at = len(codes), func(i int) string { return dict[codes[i]] }
		lo, hi, prev := codes[0], codes[0], codes[0]
		rleB = int64(8 + len(dict[prev]))
		for _, c := range codes {
			n := int64(len(dict[c]))
			if rawB += n; c != prev {
				runs++
				rleB += 8 + n
				lo, hi, prev = min(lo, c), max(hi, c), c
			}
		}
		mn, mx = dict[lo], dict[hi]
	}
	ch.Enc, ch.Rows, ch.Bytes, ch.MinS, ch.MaxS = EncRaw, rows, rawB, mn, mx
	if dictB := int64(BitPackLen(rows, dictBits)); codes != nil && dictB < ch.Bytes {
		ch.Enc, ch.Bytes = EncDict, dictB
	}
	if rleB < ch.Bytes {
		ch.Enc, ch.Bytes = EncRLE, rleB
	}
	switch ch.Enc {
	case EncRLE:
		ch.RunS, ch.RunN = appendRuns(ch.RunS, ch.RunN, runs, rows, at)
	case EncDict:
		ch.pack(rows, dictBits, func(i int) uint64 { return uint64(codes[i]) })
	default:
		ch.ValS = v
	}
}

// StrDict is the scratch a string column's distinct values are numbered
// with, in one scan, before deciding on a dictionary: viability needs only
// Len and Bytes, so a column that will not dictionary-encode never pays for
// sorting its values, and one that will takes its codes from IDs instead of
// hashing every value a second time. Values are numbered through a flat
// table of id+1 slots (0: empty), a power of two at most half full, probed
// linearly from a maphash of the value; a value is known by the row it first
// occurs at, so the scratch holds no string and may be reused across columns
// and calls without pinning a heap. The zero value is ready.
type StrDict struct {
	// IDs[i] is the number of row i's value: by first occurrence after
	// Collect (or as a caller numbered it), by value order after Sort.
	IDs []uint32
	// Bytes is the summed length of the distinct values.
	Bytes int

	first      []uint32 // the row each distinct value first occurs at, by id
	slots      []uint32
	seed       maphash.Seed
	perm, code []uint32 // Sort's
}

// Collect scans vals. With limit > 0 it gives up, returning false, as soon as
// more than limit distinct values were seen.
func (d *StrDict) Collect(vals Heap, limit int) bool {
	n := vals.Len()
	size := 64 // at least twice the distinct values there can be
	for size < 2*n && (limit <= 0 || size < 2*limit) {
		size *= 2
	}
	if len(d.slots) < size {
		d.slots, d.seed = make([]uint32, size), maphash.MakeSeed()
	}
	clear(d.slots)
	d.first, d.IDs, d.Bytes = d.first[:0], slices.Grow(d.IDs[:0], n)[:n], 0
	mask := uint64(len(d.slots) - 1)
	for i := range n {
		s := vals.At(i)
		j := maphash.String(d.seed, s) & mask
		for d.slots[j] != 0 && vals.At(int(d.first[d.slots[j]-1])) != s {
			j = (j + 1) & mask
		}
		if d.slots[j] == 0 {
			if limit > 0 && len(d.first) == limit {
				return false
			}
			d.first = append(d.first, uint32(i))
			d.slots[j] = uint32(len(d.first))
			d.Bytes += len(s)
		}
		d.IDs[i] = d.slots[j] - 1
	}
	return true
}

// Len returns the number of distinct values collected.
func (d *StrDict) Len() int { return len(d.first) }

// Sort renumbers IDs, numbers of the n distinct values at returns, by the
// sorted dictionary of the values they use, so that code order is value
// order, returns that dictionary (at's strings) and sets Bytes to its summed
// length. Values no ID uses are dropped: a dictionary merged from an old one
// keeps only the entries its rows read, its codes the old ones renumbered.
func (d *StrDict) Sort(n int, at func(id uint32) string) []string {
	d.code = slices.Grow(d.code[:0], n)[:n]
	clear(d.code)
	for _, id := range d.IDs {
		d.code[id] = 1 // used; then its code
	}
	d.perm, d.Bytes = d.perm[:0], 0
	for id, used := range d.code {
		if used != 0 {
			d.perm = append(d.perm, uint32(id))
		}
	}
	slices.SortFunc(d.perm, func(a, b uint32) int { return strings.Compare(at(a), at(b)) })
	sorted := make([]string, len(d.perm))
	for c, id := range d.perm {
		sorted[c], d.code[id], d.Bytes = at(id), uint32(c), d.Bytes+len(at(id))
	}
	for i, id := range d.IDs {
		d.IDs[i] = d.code[id]
	}
	return sorted
}

// ColumnDict returns the sorted dictionary of the non-empty string column
// vals, every row's code in it (d.IDs, valid until d is used again), the bit
// width of the codes and the dictionary's modeled size — when a dictionary is
// viable (DictCost). Viability needs only the distinct values' count and byte
// sum, so it is tested before the dictionary is sorted. All-zero results mean
// the column keeps no dictionary.
func (d *StrDict) ColumnDict(vals Heap) (dict []string, codes []uint32, bitw uint8, dictBytes int64) {
	if !d.Collect(vals, MaxDictEntries) {
		return nil, nil, 0, 0
	}
	if bitw, dictBytes = DictCost(d.Len(), d.Bytes, vals.Len(), vals.Size()); dictBytes == 0 {
		return nil, nil, 0, 0
	}
	return d.Sort(d.Len(), func(id uint32) string { return vals.At(int(d.first[id])) }), d.IDs, bitw, dictBytes
}

// DictCost returns the code width and modeled size of a dictionary of entries
// values summing to bytes for a column of rows values summing to size; a size
// of 0 when it is not viable: more entries than MaxDictEntries, or dictionary
// plus packed codes modeled no smaller than the raw column.
func DictCost(entries, bytes, rows, size int) (uint8, int64) {
	bitw := uint8(bits.Len(uint(entries - 1)))
	if dictBytes := int64(4*entries + bytes); entries <= MaxDictEntries && dictBytes+int64(BitPackLen(rows, bitw)) < int64(size) {
		return bitw, dictBytes
	}
	return 0, 0
}

// AppendCodes appends to dst the codes of the chunk's rows [lo,hi) in its
// column's dictionary: a dictionary chunk's unpacked, the others' values
// numbered by code — an RLE chunk's once a run, a raw chunk's once a row.
func (ch *Chunk) AppendCodes(lo, hi int, dst []uint32, code func(string) uint32) []uint32 {
	dst, tail := grow(dst, hi-lo)
	switch ch.Enc {
	case EncDict:
		BitUnpack(tail, ch.Packed, lo, ch.BitW, 0)
	case EncRLE:
		fillRuns(tail, ch.RunS, ch.RunN, lo, code)
	default:
		for i := range tail {
			tail[i] = code(ch.ValS.At(lo + i))
		}
	}
	return dst
}

// AppendRange appends the chunk's rows [lo,hi) to dst, a vector of the
// chunk's column kind, decoding only those rows and straight into dst's tail:
// frame-of-reference and dictionary codes unpack from bit offset lo, runs fill
// from the run holding lo, raw values copy (strings as views). The values are
// the exact originals. dict is the dictionary the chunk's codes index, checked
// against them when the chunk was built or read.
func (ch *Chunk) AppendRange(dict []string, lo, hi int, dst *Vector) {
	if lo >= hi {
		return
	}
	switch dst.Kind {
	case Int64:
		var tail []int64
		dst.I64, tail = grow(dst.I64, hi-lo)
		switch ch.Enc {
		case EncRaw:
			copy(tail, ch.ValI[lo:])
		case EncRLE:
			fillRuns(tail, ch.RunI, ch.RunN, lo, func(v int64) int64 { return v })
		case EncFOR:
			BitUnpack(tail, ch.Packed, lo, ch.BitW, ch.Base)
		}
	case Float64:
		var tail []float64
		dst.F64, tail = grow(dst.F64, hi-lo)
		switch ch.Enc {
		case EncRaw:
			copy(tail, ch.ValF[lo:])
		case EncRLE:
			fillRuns(tail, ch.RunF, ch.RunN, lo, math.Float64frombits)
		}
	case String:
		var tail []string
		dst.Str, tail = grow(dst.Str, hi-lo)
		switch ch.Enc {
		case EncRaw:
			ch.ValS.Views(tail, lo)
		case EncRLE:
			fillRuns(tail, ch.RunS, ch.RunN, lo, func(v string) string { return v })
		case EncDict:
			var blk [256]uint64
			for base := 0; base < len(tail); base += len(blk) {
				codes := blk[:min(len(blk), len(tail)-base)]
				BitUnpack(codes, ch.Packed, lo+base, ch.BitW, 0)
				for i, code := range codes {
					tail[base+i] = dict[code]
				}
			}
		}
	}
}

// Window returns rows [lo,hi) of the raw chunk ch as a raw chunk over the
// same values.
func (ch *Chunk) Window(lo, hi int) Chunk {
	w := Chunk{Rows: hi - lo}
	switch {
	case ch.ValI != nil:
		w.ValI = ch.ValI[lo:hi]
	case ch.ValF != nil:
		w.ValF = ch.ValF[lo:hi]
	default:
		w.ValS = ch.ValS.Window(lo, hi)
	}
	return w
}

// grow extends s by n elements and returns it with the new tail.
func grow[T any](s []T, n int) ([]T, []T) {
	s = slices.Grow(s, n)[:len(s)+n]
	return s, s[len(s)-n:]
}

// fillRuns fills dst with the run-length expansion of vals and lens from row
// lo of the runs on, converting each run's value once.
func fillRuns[T, V any](dst []T, vals []V, lens []int32, lo int, conv func(V) T) {
	r := 0
	for ; lo >= int(lens[r]); r++ {
		lo -= int(lens[r])
	}
	for pos := 0; pos < len(dst); r, lo = r+1, 0 {
		run := dst[pos:min(len(dst), pos+int(lens[r])-lo)]
		v := conv(vals[r])
		for k := range run {
			run[k] = v
		}
		pos += len(run)
	}
}
