package storage

import (
	"fmt"
	"sync"

	"bdcc/internal/vector"
)

// This file implements the ingest side of storage: a delta store per table.
// An appended batch is kept as one self-validating segment — the column
// frames of the batch as a plain table (Table.Frames, wire.go) — and adopted
// back into columnar form (TableAdopter) when a merge consolidates base +
// delta, so a torn or corrupted segment is an error at merge time instead of
// wrong rows in a snapshot. Fresh rows are rewritten into clustered,
// compressed form by the background merge; the segments stay raw chunks.

// Delta is the append store of one table: a bounded sequence of segments
// sharing the base table's schema. Appends are serialized by an
// internal mutex; readers never touch the Delta directly — they read the
// immutable snapshot tables built from the batch at append time and from
// Prefix at merge time.
type Delta struct {
	name     string
	cols     []string
	kinds    []vector.Kind
	pageSize int64

	mu       sync.Mutex
	segs     []deltaSeg
	rows     int
	appended int64
}

// deltaSeg is one append batch: the column frames of its rows.
type deltaSeg struct {
	frames [][]byte
	rows   int
}

// deltaFrameBytes is where a segment's column frames close (Table.Frames):
// far above an append batch's column, so a segment is one frame per column.
const deltaFrameBytes = 4 << 20

// NewDelta returns an empty delta store adopting the base table's schema and
// page geometry.
func NewDelta(base *Table) *Delta {
	d := &Delta{name: base.Name, pageSize: base.PageSize}
	for _, c := range base.Cols {
		d.cols = append(d.cols, c.Name)
		d.kinds = append(d.kinds, c.Kind)
	}
	return d
}

// Rows returns the number of un-merged rows currently in the store.
func (d *Delta) Rows() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rows
}

// AppendedRows returns the lifetime row count appended to this store,
// including rows already merged away.
func (d *Delta) AppendedRows() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.appended
}

// Append adds the given rows to the store as one segment. The rows table must
// be uncompressed and match the delta's schema by name, kind and column order.
// It returns the visible row count after the append.
func (d *Delta) Append(rows *Table) (int, error) {
	if rows.Rows() == 0 {
		return 0, fmt.Errorf("storage: delta %q: empty append", d.name)
	}
	if err := d.checkSchema(rows); err != nil {
		return 0, err
	}
	seg := deltaSeg{frames: rows.Frames(deltaFrameBytes), rows: rows.Rows()}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.segs = append(d.segs, seg)
	d.rows += rows.Rows()
	d.appended += int64(rows.Rows())
	return d.rows, nil
}

func (d *Delta) checkSchema(t *Table) error {
	if t.Compressed() {
		return fmt.Errorf("storage: delta %q: compressed append", d.name)
	}
	if len(t.Cols) != len(d.cols) {
		return fmt.Errorf("storage: delta %q: %d columns appended, schema has %d", d.name, len(t.Cols), len(d.cols))
	}
	for i, c := range t.Cols {
		if c.Name != d.cols[i] || c.Kind != d.kinds[i] {
			return fmt.Errorf("storage: delta %q: column %d is %s %s, schema has %s %s",
				d.name, i, c.Kind, c.Name, d.kinds[i], d.cols[i])
		}
	}
	return nil
}

// Prefix adopts the first k rows into an uncompressed columnar table in
// arrival order. k must fall on a segment boundary — appends are atomic, so
// every snapshot's visible count does. Only a merge (and the tests) decode
// the store: an append extends the views by the columnar batch it was handed.
func (d *Delta) Prefix(k int) (*Table, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if k > d.rows {
		return nil, fmt.Errorf("storage: delta %q: prefix %d exceeds %d rows", d.name, k, d.rows)
	}
	cols := make([]*Column, len(d.cols))
	for i := range cols {
		cols[i] = &Column{Name: d.cols[i], Kind: d.kinds[i]}
	}
	got := 0
	for _, seg := range d.segs {
		if got == k {
			break
		}
		if got+seg.rows > k {
			return nil, fmt.Errorf("storage: delta %q: prefix %d splits a %d-row segment at %d", d.name, k, seg.rows, got)
		}
		part, err := d.adopt(seg)
		if err != nil {
			return nil, err
		}
		for i, c := range cols {
			c.appendRows(part.Cols[i], 0, part.Rows())
		}
		got += seg.rows
	}
	return NewTable(d.name, d.pageSize, cols...)
}

// TruncatePrefix drops the first k rows (a completed merge's input). k must
// fall on a segment boundary.
func (d *Delta) TruncatePrefix(k int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	got := 0
	i := 0
	for ; i < len(d.segs) && got < k; i++ {
		got += d.segs[i].rows
	}
	if got != k {
		return fmt.Errorf("storage: delta %q: truncate %d not on a segment boundary", d.name, k)
	}
	d.segs = append([]deltaSeg(nil), d.segs[i:]...)
	d.rows -= k
	return nil
}

// adopt verifies a segment's frames and rebuilds the batch they hold. Any
// damage — a failed checksum, a structure the frames' checks refuse, a frame
// missing or left over — is an error, never a panic or a half-adopted table.
func (d *Delta) adopt(seg deltaSeg) (*Table, error) {
	a, err := NewTableAdopter(d.name, d.pageSize, seg.rows, false, d.cols, d.kinds)
	if err != nil {
		return nil, err
	}
	for _, f := range seg.frames {
		if _, _, err := a.Add(f); err != nil {
			return nil, err
		}
	}
	return a.Table()
}

// Concat returns a new uncompressed table holding the first aRows rows of a
// followed by every row of b; schemas must match by name, kind and order.
// Snapshot views layer freshly ingested rows behind the base this way —
// consolidation re-encodes explicitly when the merge commits, so the un-merged
// tail is always served (and its I/O charged) at raw width. When all of a is
// kept, its zones — up to the page b continues — are carried over, not
// recomputed.
func Concat(a *Table, aRows int, b *Table) (*Table, error) {
	if err := checkConcat(a, aRows, b); err != nil {
		return nil, err
	}
	cols := make([]*Column, len(a.Cols))
	for i, c := range a.Cols {
		nc := &Column{Name: c.Name, Kind: c.Kind}
		nc.reserve(aRows + b.Rows())
		nc.appendRows(c, 0, aRows)
		nc.appendRows(b.Cols[i], 0, b.Rows())
		cols[i] = nc
	}
	var prev *Table
	if aRows == a.Rows() {
		prev = a
	}
	return newTable(a.Name, a.PageSize, cols, prev)
}

// Splice returns the uncompressed table whose row i is row src[i] of the
// concatenation Concat(a, aRows, b) would build: one copy and one zonemap
// build where Concat followed by Permute (and AppendRows, when src repeats
// rows) makes three of each. src may have any length.
func Splice(a *Table, aRows int, b *Table, src []int32) (*Table, error) {
	if err := checkConcat(a, aRows, b); err != nil {
		return nil, err
	}
	cols := make([]*Column, len(a.Cols))
	for i, c := range a.Cols {
		o := b.Cols[i]
		nc := &Column{Name: c.Name, Kind: c.Kind}
		switch c.Kind {
		case vector.Int64:
			nc.I64 = gather(c.I64[:aRows], o.I64, src)
		case vector.Float64:
			nc.F64 = gather(c.F64[:aRows], o.F64, src)
		case vector.String:
			nc.Str = gather(c.Str[:aRows], o.Str, src)
		}
		cols[i] = nc
	}
	return NewTable(a.Name, a.PageSize, cols...)
}

// gather returns out with out[i] = (a followed by b)[src[i]]. Runs of
// consecutive rows of a — the retained order between two spliced-in rows —
// move as one block copy.
func gather[T any](a, b []T, src []int32) []T {
	out := make([]T, len(src))
	n := int32(len(a))
	for i := 0; i < len(src); {
		p := src[i]
		if p >= n {
			out[i] = b[p-n]
			i++
			continue
		}
		j := i + 1
		for j < len(src) && src[j] == src[j-1]+1 && src[j] < n {
			j++
		}
		copy(out[i:j], a[p:])
		i = j
	}
	return out
}

// ConcatWidth returns the modeled width of the densest column of the table
// Concat(a, aRows, b) would build, without building it.
func ConcatWidth(a *Table, aRows int, b *Table) float64 {
	var widest float64
	for i, c := range a.Cols {
		w := 8.0
		if c.Kind == vector.String {
			total := 0
			for _, s := range c.Str[:aRows] {
				total += len(s)
			}
			for _, s := range b.Cols[i].Str {
				total += len(s)
			}
			w = strWidth(total, aRows+b.Rows())
		}
		widest = max(widest, w)
	}
	return widest
}

func checkConcat(a *Table, aRows int, b *Table) error {
	if aRows < 0 || aRows > a.Rows() {
		return fmt.Errorf("storage: concat keeps %d of table %q's %d rows", aRows, a.Name, a.Rows())
	}
	if len(a.Cols) != len(b.Cols) {
		return fmt.Errorf("storage: concat of %q and %q: %d vs %d columns", a.Name, b.Name, len(a.Cols), len(b.Cols))
	}
	for i, c := range a.Cols {
		o := b.Cols[i]
		if c.Name != o.Name || c.Kind != o.Kind {
			return fmt.Errorf("storage: concat of %q: column %d is %s %s vs %s %s",
				a.Name, i, c.Kind, c.Name, o.Kind, o.Name)
		}
	}
	return nil
}
