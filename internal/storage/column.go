// Package storage implements the columnar table store the engine runs on:
// typed columns laid out in logical fixed-size pages, per-page MinMax
// (zonemap) indexes — the "MinMax indices on each table" the paper's host
// system creates automatically — row-range readers that charge a device-model
// accountant for the pages and access runs they touch, and utilities for
// re-clustering tables (stable sort by a computed key), which is how BDCC
// tables and primary-key tables are materialized.
package storage

import (
	"fmt"
	"math"

	"bdcc/internal/vector"
)

// Column is a named, typed column of a stored table. Exactly one of the data
// fields matching Kind is populated; strings are one heap in the table's row
// order (vector.Heap), which readers hand out as views.
type Column struct {
	Name string
	Kind vector.Kind
	I64  []int64
	F64  []float64
	Str  vector.Heap

	// Enc is the lightweight chunk encoding of the column (nil in raw mode).
	// A column the table encoded itself retains its raw values — they back
	// permutation, key extraction and raw-fallback chunks — while Enc is the
	// modeled on-disk form: readers materialize batches from it and the
	// modeled width (hence page charges) follows its encoded bytes. Built by
	// Table.Compress, or adopted from column frames (wire.go); an adopted
	// column has only Enc and serves scans, nothing that rearranges rows.
	Enc *ColumnEncoding

	// width is the modeled bytes per value, computed by finish(). For string
	// columns it is the average string length (≥1): the heap's length over
	// the rows; for numeric columns 8. Compressed columns override it with
	// encoded bytes per value (encode), so the densest-column granularity
	// choice of Algorithm 1 sees post-compression density.
	width float64
}

// NewInt64Column returns an int64 column over vals (not copied).
func NewInt64Column(name string, vals []int64) *Column {
	return &Column{Name: name, Kind: vector.Int64, I64: vals}
}

// NewFloat64Column returns a float64 column over vals (not copied).
func NewFloat64Column(name string, vals []float64) *Column {
	return &Column{Name: name, Kind: vector.Float64, F64: vals}
}

// NewStringColumn returns a string column holding a copy of vals.
func NewStringColumn(name string, vals []string) *Column {
	return NewHeapColumn(name, vector.HeapOf(vals))
}

// NewHeapColumn returns a string column over h (not copied): offsets from 0
// to its length, bytes nothing writes again.
func NewHeapColumn(name string, h vector.Heap) *Column {
	return &Column{Name: name, Kind: vector.String, Str: h}
}

// Len returns the number of values.
func (c *Column) Len() int {
	if c.Enc != nil {
		return c.Enc.rows()
	}
	return c.rawLen()
}

// rawLen returns the number of raw values (an adopted compressed column has
// none): only the field matching Kind is ever populated.
func (c *Column) rawLen() int { return len(c.I64) + len(c.F64) + c.Str.Len() }

// Width returns the modeled bytes per value. The densest (widest) column of a
// table drives Algorithm 1's granularity choice.
func (c *Column) Width() float64 { return c.width }

// finish computes the modeled width.
func (c *Column) finish() {
	switch c.Kind {
	case vector.Int64, vector.Float64:
		c.width = 8
	case vector.String:
		c.width = strWidth(c.Str.Size(), c.Str.Len())
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

// encode builds the chunk-encoded form at the given granularity (rows per
// page at raw width) and points the modeled width at the encoded bytes.
// finish() keeps the raw-mode width behavior untouched. dict is scratch
// reused from one column to the next; par and inPlace name chunks to keep
// (see encodeColumn).
func (c *Column) encode(chunkRows int, dict *vector.StrDict, par *ColumnEncoding, inPlace int) {
	c.Enc = encodeColumn(c, chunkRows, dict, par, inPlace)
	c.useEncodedWidth()
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
	out := &Column{Name: c.Name, Kind: c.Kind, width: c.width}
	switch c.Kind {
	case vector.Int64:
		out.I64 = make([]int64, len(perm))
		for i, p := range perm {
			out.I64[i] = c.I64[p]
		}
	case vector.Float64:
		out.F64 = make([]float64, len(perm))
		for i, p := range perm {
			out.F64[i] = c.F64[p]
		}
	case vector.String:
		out.Str = vector.MakeHeap(len(perm), c.Str.Size()) // the same bytes, in perm order
		for _, p := range perm {
			out.Str.AppendRange(c.Str, int(p), int(p)+1)
		}
	}
	return out
}

// reserve gives an empty column room for n values.
func (c *Column) reserve(n int) {
	switch c.Kind {
	case vector.Int64:
		c.I64 = make([]int64, 0, n)
	case vector.Float64:
		c.F64 = make([]float64, 0, n)
	case vector.String:
		c.Str = vector.MakeHeap(n, 0)
	}
}

// validate checks internal consistency against an expected row count, and
// that a string heap's offsets can address it. An empty string column gets
// the one offset an empty heap has.
func (c *Column) validate(rows int) error {
	if c.Kind == vector.String && c.Str.Offs == nil {
		c.Str = vector.MakeHeap(0, 0)
	}
	if c.Len() != rows {
		return fmt.Errorf("storage: column %q has %d rows, table has %d", c.Name, c.Len(), rows)
	}
	if len(c.Str.Bytes) > math.MaxUint32 {
		return fmt.Errorf("storage: column %q holds %d string bytes, over the 4 GiB a heap's offsets address", c.Name, len(c.Str.Bytes))
	}
	return nil
}
