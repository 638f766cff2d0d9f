package engine

import (
	"bdcc/internal/expr"
	"bdcc/internal/vector"
)

// Buffer is a columnar row accumulator used by blocking operators (hash
// join builds, sorts, buffered merge-join groups, aggregation group keys). It
// reports its byte footprint so operators can charge the memory tracker. The
// footprint is logical — 8 bytes per scalar, 16 plus payload per string,
// whatever the columns' capacity — so capacity is free to choose, and
// the appends double it: a build side that grows to table size is copied
// about twice, not the five times of append's 1.25× steps.
type Buffer struct {
	cols  []*vector.Vector
	bytes int64
}

// NewBuffer returns an empty buffer for the schema.
func NewBuffer(schema expr.Schema) *Buffer {
	b := &Buffer{}
	for _, c := range schema {
		b.cols = append(b.cols, vector.NewVector(c.Kind, 0))
	}
	return b
}

// Len returns the number of buffered rows.
func (b *Buffer) Len() int {
	if len(b.cols) == 0 {
		return 0
	}
	return b.cols[0].Len()
}

// Bytes returns the estimated footprint of the buffered rows.
func (b *Buffer) Bytes() int64 { return b.bytes }

// Col returns column c.
func (b *Buffer) Col(c int) *vector.Vector { return b.cols[c] }

// AppendBatch buffers all rows of a batch (schemas must match).
func (b *Buffer) AppendBatch(batch *vector.Batch) {
	for c, col := range b.cols {
		src := batch.Cols[c]
		col.AppendVector(src)
		if col.Kind == vector.String {
			for _, s := range src.Str {
				b.bytes += 16 + int64(len(s))
			}
		} else {
			b.bytes += 8 * int64(src.Len())
		}
	}
}

// AppendRow buffers row i of a batch.
func (b *Buffer) AppendRow(batch *vector.Batch, i int) {
	for c, col := range b.cols {
		col.Reserve(1)
		col.AppendFrom(batch.Cols[c], i)
		switch col.Kind {
		case vector.String:
			b.bytes += 16 + int64(len(batch.Cols[c].Str[i]))
		default:
			b.bytes += 8
		}
	}
}

// WriteRow appends row i's columns to an output batch.
func (b *Buffer) WriteRow(out *vector.Batch, i int, firstCol int) {
	for c, col := range b.cols {
		out.Cols[firstCol+c].AppendFrom(col, i)
	}
}

// Reset truncates the buffer, keeping capacity.
func (b *Buffer) Reset() {
	for _, c := range b.cols {
		c.Reset()
	}
	b.bytes = 0
}
