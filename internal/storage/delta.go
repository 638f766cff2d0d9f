package storage

import (
	"fmt"

	"bdcc/internal/vector"
)

// This file implements the ingest side of storage: the check of a batch
// appended to a table, and the copy that extends a table by a batch (Concat;
// Splice, which copies nothing, is view.go's).

// Delta checks the batches appended to one table. It holds no rows — an
// append publishes them in the snapshot views it builds from the batch.
type Delta struct {
	base *Table
}

// NewDelta returns the batch check for the base table's schema.
func NewDelta(base *Table) *Delta { return &Delta{base: base} }

// Append checks one batch: it must be non-empty, uncompressed and match the
// base table's schema by name, kind and column order. It returns the batch's
// row count.
func (d *Delta) Append(rows *Table) (int, error) {
	if rows.Rows() == 0 {
		return 0, fmt.Errorf("storage: delta %q: empty append", d.base.Name)
	}
	if rows.Compressed() {
		return 0, fmt.Errorf("storage: delta %q: compressed append", d.base.Name)
	}
	if err := sameSchema(d.base, rows); err != nil {
		return 0, fmt.Errorf("storage: delta %q: %w", d.base.Name, err)
	}
	return rows.Rows(), nil
}

// Concat returns a new uncompressed table holding the first aRows rows of a
// followed by every row of b; schemas must match by name, kind and order.
// Snapshot views layer freshly ingested rows behind the base this way —
// consolidation re-encodes explicitly when the merge commits, so the un-merged
// tail is always served (and its I/O charged) at raw width. It is the splice
// of the runs [0, aRows) and b: its zones derive from a's as a Splice's do,
// on first use — or at once where a has them and the Concat copies, so that
// a's heap can go. The first Concat to keep all of a table Concat built
// appends b to a's values, into their spare capacity past what a shows where
// it fits; any other — of a loaded table, compressed or not, of a prefix, or
// a second one from a table — copies a's rows, read through its chunks, into
// values with room for half as many rows again, so a value is copied O(1)
// times over a chain of extensions.
func Concat(a *Table, aRows int, b *Table) (*Table, error) {
	a = a.Materialized()
	if err := checkConcat(a, aRows, b); err != nil {
		return nil, err
	}
	inPlace := aRows == a.Rows() && a.tip.CompareAndSwap(true, false)
	cols := make([]*Column, len(a.Cols))
	for i, c := range a.Cols {
		o := b.Cols[i]
		var ch Chunk
		if inPlace {
			ch = c.raw() // a Concat's column: one raw chunk
		} else {
			n, bytes := aRows+o.Len(), int(c.Enc.RawBytes+o.Enc.RawBytes)
			ch = rawRoom(c.Kind, n+n/2, bytes+bytes/2)
			appendRows(&ch, c.Kind, 0, aRows, c.AppendRange)
		}
		appendRows(&ch, c.Kind, 0, o.Len(), o.AppendRange)
		cols[i] = rawColumn(c.Name, c.Kind, ch)
	}
	n := int32(aRows)
	t, err := newTable(a.Name, a.PageSize, cols, lazyOver(a, []Run{{0, 0, n, 0}, {n, 0, int32(b.Rows()), 1}}))
	if err != nil {
		return nil, err
	}
	if t.tip.Store(true); !inPlace { // a's zones view a's heap, which a copy lets go
		eachColumn(t.Cols, func(i int) {
			if t.lazy.par[i] != nil {
				t.zonemap(i)
			}
		})
		t.lazy.par = nil
	}
	return t, nil
}

// ConcatWidth returns the modeled width of the densest column of the table
// Concat(a, aRows, b) would build, without building it: a string column's
// bytes are those of a's first aRows rows plus b's.
func ConcatWidth(a *Table, aRows int, b *Table) float64 {
	var widest float64
	for i, c := range a.Cols {
		w := 8.0
		if c.Kind == vector.String {
			w = strWidth(a.runsOf().strBytes(i, aRows)+int(b.Cols[i].Enc.RawBytes), aRows+b.Rows())
		}
		widest = max(widest, w)
	}
	return widest
}

// checkConcat rejects operands Concat and Splice cannot combine.
func checkConcat(a *Table, aRows int, b *Table) error {
	if aRows < 0 || aRows > a.Rows() {
		return fmt.Errorf("storage: concat keeps %d of table %q's %d rows", aRows, a.Name, a.Rows())
	}
	if err := sameSchema(a, b); err != nil {
		return fmt.Errorf("storage: concat of %q and %q: %w", a.Name, b.Name, err)
	}
	return nil
}

// sameSchema rejects a b whose columns differ from a's by name, kind or order.
func sameSchema(a, b *Table) error {
	if len(a.Cols) != len(b.Cols) {
		return fmt.Errorf("%d vs %d columns", len(a.Cols), len(b.Cols))
	}
	for i, c := range a.Cols {
		if o := b.Cols[i]; c.Name != o.Name || c.Kind != o.Kind {
			return fmt.Errorf("column %d is %s %s vs %s %s", i, c.Kind, c.Name, o.Kind, o.Name)
		}
	}
	return nil
}
