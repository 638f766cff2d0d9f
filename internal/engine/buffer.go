package engine

import (
	"slices"

	"bdcc/internal/expr"
	"bdcc/internal/vector"
)

// segShift and segMask address a Buffer's rows: row r is row r&segMask of
// segment r>>segShift.
const (
	segShift = 10
	segMask  = vector.BatchSize - 1
)

// Buffer is the engine's one row store: join builds, sort input, merge-join
// runs and aggregation keys. Rows live in
// BatchSize-row segments and are copied once, into the tail segment; only
// the first segment grows (up to BatchSize, so a small buffer stays small).
// Reads go through Gather, compare and keyEq, by row and column index. The
// footprint is logical — 8 bytes per scalar, 16 plus payload per string.
type Buffer struct {
	cols  [][]vector.Vector // per column, its segments; Reset keeps them
	n     int
	bytes int64
}

// NewBuffer returns an empty buffer for the schema.
func NewBuffer(schema expr.Schema) *Buffer {
	return &Buffer{cols: make([][]vector.Vector, len(schema))}
}

// Len returns the number of buffered rows.
func (b *Buffer) Len() int { return b.n }

// Bytes returns the estimated footprint of the buffered rows.
func (b *Buffer) Bytes() int64 { return b.bytes }

// segments returns the number of segments holding rows.
func (b *Buffer) segments() int { return (b.n + segMask) >> segShift }

// segment points view's columns at segment s.
func (b *Buffer) segment(s int, view *vector.Batch) {
	for c := range b.cols {
		view.Cols[c] = &b.cols[c][s]
	}
}

// AppendBatch buffers all rows of a batch (schemas must match).
func (b *Buffer) AppendBatch(batch *vector.Batch) { b.appendRows(batch.Cols, nil, 0, batch.Len()) }

// appendRows copies rows [lo, hi) of columns idx of src (nil: all of them),
// column for column, into the tail segment, opening the next segment
// whenever the tail is full.
func (b *Buffer) appendRows(src []*vector.Vector, idx []int, lo, hi int) {
	for lo < hi {
		s, k := b.n>>segShift, min(hi-lo, vector.BatchSize-b.n&segMask)
		capacity := vector.BatchSize
		if s == 0 {
			capacity = k // the first segment starts at its first rows
		}
		for c := range b.cols {
			v := src[c]
			if idx != nil {
				v = src[idx[c]]
			}
			if s == len(b.cols[c]) {
				b.cols[c] = append(b.cols[c], *vector.NewVector(v.Kind, capacity))
			}
			seg := &b.cols[c][s]
			switch v.Kind {
			case vector.Int64:
				seg.I64 = append(seg.I64, v.I64[lo:lo+k]...)
			case vector.Float64:
				seg.F64 = append(seg.F64, v.F64[lo:lo+k]...)
			case vector.String:
				seg.Str = append(seg.Str, v.Str[lo:lo+k]...)
				for _, str := range v.Str[lo : lo+k] {
					b.bytes += 16 + int64(len(str))
				}
				continue
			}
			b.bytes += 8 * int64(k)
		}
		b.n += k
		lo += k
	}
}

// Gather appends rows sel of every column c to dst[c], one loop per column;
// a negative row appends the kind's zero value (an outer join's miss).
func (b *Buffer) Gather(dst []*vector.Vector, sel []int32) {
	for c, segs := range b.cols {
		switch d := dst[c]; d.Kind {
		case vector.Int64:
			out := extend(&d.I64, len(sel))
			for i, r := range sel {
				if out[i] = 0; r >= 0 {
					out[i] = segs[r>>segShift].I64[r&segMask]
				}
			}
		case vector.Float64:
			out := extend(&d.F64, len(sel))
			for i, r := range sel {
				if out[i] = 0; r >= 0 {
					out[i] = segs[r>>segShift].F64[r&segMask]
				}
			}
		case vector.String:
			out := extend(&d.Str, len(sel))
			for i, r := range sel {
				if out[i] = ""; r >= 0 {
					out[i] = segs[r>>segShift].Str[r&segMask]
				}
			}
		}
	}
}

// extend lengthens *s by n values and returns them.
func extend[T any](s *[]T, n int) []T {
	l := len(*s)
	*s = slices.Grow(*s, n)[:l+n]
	return (*s)[l:]
}

// compare compares rows i and j of column c, like vector.Vector.Compare.
func (b *Buffer) compare(c int, i, j int32) int {
	segs := b.cols[c]
	return segs[i>>segShift].Compare(int(i&segMask), &segs[j>>segShift], int(j&segMask))
}

// Reset empties the buffer, keeping its segments.
func (b *Buffer) Reset() {
	for _, segs := range b.cols {
		for s := range b.segments() {
			segs[s].Reset()
		}
	}
	b.n, b.bytes = 0, 0
}
