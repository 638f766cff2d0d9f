package storage

import (
	"fmt"

	"bdcc/internal/vector"
)

// This file implements the ingest side of storage: the check of a batch
// appended to a table, and the gather of a table extended by a batch (Concat;
// Splice, which copies nothing and which an append publishes, is view.go's).

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
// followed by every row of b; schemas must match by name, kind and order. It
// is the two-run Splice of those rows gathered into arrays of its own
// (Materialized), for callers that need the rows in one place: an append
// publishes the Splice itself.
func Concat(a *Table, aRows int, b *Table) (*Table, error) {
	t, err := Splice(a, aRows, b, AppendRun(AppendRun(nil, 0, 0, int32(aRows)), 1, 0, int32(b.Rows())))
	if err != nil {
		return nil, err
	}
	return t.Materialized(), nil
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
