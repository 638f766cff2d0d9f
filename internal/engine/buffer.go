package engine

import (
	"bdcc/internal/expr"
	"bdcc/internal/vector"
)

// Buffer is a columnar row accumulator used by blocking operators (hash
// join builds, sorts, buffered merge-join groups). It reports its byte
// footprint so operators can charge the memory tracker.
type Buffer struct {
	schema expr.Schema
	cols   []*vector.Vector
	bytes  int64
}

// NewBuffer returns an empty buffer for the schema.
func NewBuffer(schema expr.Schema) *Buffer {
	b := &Buffer{schema: schema}
	for _, c := range schema {
		b.cols = append(b.cols, vector.NewVector(c.Kind, 0))
	}
	return b
}

// Schema returns the buffer's schema.
func (b *Buffer) Schema() expr.Schema { return b.schema }

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
		switch col.Kind {
		case vector.Int64:
			col.I64 = append(col.I64, src.I64...)
			b.bytes += 8 * int64(len(src.I64))
		case vector.Float64:
			col.F64 = append(col.F64, src.F64...)
			b.bytes += 8 * int64(len(src.F64))
		case vector.String:
			col.Str = append(col.Str, src.Str...)
			for _, s := range src.Str {
				b.bytes += 16 + int64(len(s))
			}
		}
	}
}

// AppendRow buffers row i of a batch.
func (b *Buffer) AppendRow(batch *vector.Batch, i int) {
	for c, col := range b.cols {
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

// Batches re-emits the buffered rows as batches of up to BatchSize rows,
// invoking fn for each. The batch passed to fn is reused.
func (b *Buffer) Batches(fn func(*vector.Batch) error) error {
	n := b.Len()
	out := vector.NewBatch(b.schema.Kinds())
	for lo := 0; lo < n; lo += vector.BatchSize {
		hi := lo + vector.BatchSize
		if hi > n {
			hi = n
		}
		out.Reset()
		for c, col := range b.cols {
			dst := out.Cols[c]
			switch col.Kind {
			case vector.Int64:
				dst.I64 = append(dst.I64, col.I64[lo:hi]...)
			case vector.Float64:
				dst.F64 = append(dst.F64, col.F64[lo:hi]...)
			case vector.String:
				dst.Str = append(dst.Str, col.Str[lo:hi]...)
			}
		}
		if err := fn(out); err != nil {
			return err
		}
	}
	return nil
}
