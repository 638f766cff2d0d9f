// Package storage implements the columnar table store the engine runs on:
// typed columns laid out in logical fixed-size pages, per-page MinMax
// (zonemap) indexes — the "MinMax indices on each table" the paper's host
// system creates automatically — row-range readers that charge a device-model
// accountant for the pages and access runs they touch, and utilities for
// re-clustering tables (stable sort by a computed key), which is how BDCC
// tables and primary-key tables are materialized.
package storage

import "bdcc/internal/vector"

// Column is a named, typed column of a stored table, and it is its chunks (Enc):
// an uncompressed column is one raw chunk over its values (strings: one heap
// in row order, vector.Heap, which readers hand out as views), a compressed
// one those Table.Compress built or a TableAdopter read. Every read of its
// values goes through AppendRange. A view's columns (Splice) have no chunks.
type Column struct {
	Name string
	Kind vector.Kind
	// Scale is an Int64 column's decimal scale: value v stands for v/10^Scale
	// (a DECIMAL(p,2) column stores cents). 0 for every other column.
	Scale uint8
	// Enc is the modeled on-disk form on a compressed table: the modeled
	// width (hence page charges) follows its encoded bytes.
	Enc *ColumnEncoding

	// width is the modeled bytes per value, computed by finish(). For string
	// columns it is the average string length (≥1): the raw bytes over the
	// rows; for numeric columns 8. Compressed columns override it with
	// encoded bytes per value (encode), so the densest-column granularity
	// choice of Algorithm 1 sees post-compression density.
	width float64
}

// NewInt64Column returns an int64 column over vals (not copied).
func NewInt64Column(name string, vals []int64) *Column {
	return rawColumn(name, vector.Int64, Chunk{ValI: vals})
}

// NewDecimalColumn returns an Int64 column of decimal scale scale over vals
// (not copied), each the value times 10^scale.
func NewDecimalColumn(name string, vals []int64, scale uint8) *Column {
	c := NewInt64Column(name, vals)
	c.Scale = scale
	return c
}

// NewFloat64Column returns a float64 column over vals (not copied).
func NewFloat64Column(name string, vals []float64) *Column {
	return rawColumn(name, vector.Float64, Chunk{ValF: vals})
}

// NewStringColumn returns a string column holding a copy of vals.
func NewStringColumn(name string, vals []string) *Column {
	return NewHeapColumn(name, vector.HeapOf(vals))
}

// NewHeapColumn returns a string column over h (not copied): bytes nothing
// writes again.
func NewHeapColumn(name string, h vector.Heap) *Column {
	return rawColumn(name, vector.String, Chunk{ValS: h})
}

// rawColumn returns the uncompressed column whose values are those of the
// raw chunk ch, which becomes its one chunk (none when it has no rows).
func rawColumn(name string, kind vector.Kind, ch Chunk) *Column {
	ch.Rows = len(ch.ValI) + len(ch.ValF) + ch.ValS.Len()
	ch.Bytes = 8 * int64(ch.Rows)
	if kind == vector.String {
		ch.Bytes = int64(ch.ValS.Size())
	}
	e := &ColumnEncoding{ChunkRows: max(ch.Rows, 1), RawBytes: ch.Bytes, EncodedBytes: ch.Bytes}
	if ch.Rows > 0 {
		e.Chunks, e.Counts[EncRaw] = []Chunk{ch}, 1
	}
	return &Column{Name: name, Kind: kind, Enc: e}
}

// AppendRange appends rows [lo,hi) of c to dst, a vector of c's kind, chunk
// by chunk through Chunk.AppendRange: the one loop that reads a stored
// column's values. Raw numbers are copied and raw strings are views of the
// column's heap; packed chunks decode only the rows asked for.
func (c *Column) AppendRange(lo, hi int, dst *vector.Vector) {
	e := c.Enc
	for p := lo; p < hi; {
		ch := &e.Chunks[e.chunkIndex(p)]
		end := min(hi, ch.Start+ch.Rows)
		ch.AppendRange(e.Dict, p-ch.Start, end-ch.Start, dst)
		p = end
	}
}

// Values returns every value of c in a new vector.
func (c *Column) Values() *vector.Vector {
	v := vector.NewVector(c.Kind, c.Len())
	c.AppendRange(0, c.Len(), v)
	return v
}

// raw returns c's rows when they are one raw chunk, else an empty chunk (a
// view's columns have no chunks).
func (c *Column) raw() Chunk {
	if e := c.Enc; e != nil && len(e.Chunks) == 1 && e.Chunks[0].Enc == EncRaw {
		return e.Chunks[0]
	}
	return Chunk{}
}

// Len returns the number of values.
func (c *Column) Len() int { return c.Enc.rows() }

// Width returns the modeled bytes per value, encoded where the column is:
// what its pages hold.
func (c *Column) Width() float64 { return c.width }

// finish computes the modeled raw width.
func (c *Column) finish() {
	c.width = 8
	if c.Kind == vector.String {
		c.width = strWidth(int(c.Enc.RawBytes), c.Len())
	}
}

// strWidth is the modeled width of a string column of n values and total
// bytes: the average length, at least 1.
func strWidth(total, n int) float64 {
	if n == 0 {
		return 1
	}
	return max(float64(total)/float64(n), 1)
}

// useEncodedWidth replaces the raw width by encoded bytes per value, where
// the encoding has any.
func (c *Column) useEncodedWidth() {
	if n := c.Len(); n > 0 && c.Enc.EncodedBytes > 0 {
		c.width = float64(c.Enc.EncodedBytes) / float64(n)
	}
}

// permute returns a copy of the column reordered so that row i of the result
// is row perm[i] of the original. The copy is raw: a compressed table
// re-encodes after permuting, so the encoding reflects the new row order.
func (c *Column) permute(perm []int32) *Column {
	vals, out := c.Values(), vector.NewVector(c.Kind, len(perm))
	if c.Kind != vector.String {
		out.AppendSelected(vals, perm)
		p := rawColumn(c.Name, c.Kind, Chunk{ValI: out.I64, ValF: out.F64})
		p.Scale = c.Scale
		return p
	}
	h := vector.MakeHeap(len(perm), int(c.Enc.RawBytes)) // the same bytes, in perm order
	for _, p := range perm {
		h.Append(vals.Str[p])
	}
	return NewHeapColumn(c.Name, h)
}
