package storage

import (
	"fmt"
	"sync"

	"bdcc/internal/vector"
)

// This file implements the ingest side of storage: the append ledger of a
// table, and the copies that extend a table by a batch (Concat, Splice).

// Delta is the append ledger of one table: it checks each batch against the
// base table's schema and counts the rows not yet merged. It holds no rows —
// an append publishes them in the snapshot views it builds from the batch,
// and a merge re-encodes those views and clears the ledger.
type Delta struct {
	name  string
	cols  []string
	kinds []vector.Kind

	mu       sync.Mutex
	rows     int
	appended int64
}

// NewDelta returns an empty ledger for the base table's schema.
func NewDelta(base *Table) *Delta {
	d := &Delta{name: base.Name}
	for _, c := range base.Cols {
		d.cols = append(d.cols, c.Name)
		d.kinds = append(d.kinds, c.Kind)
	}
	return d
}

// Rows returns the number of un-merged rows.
func (d *Delta) Rows() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rows
}

// AppendedRows returns the lifetime row count appended, including rows
// already merged away.
func (d *Delta) AppendedRows() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.appended
}

// Append checks one batch and counts its rows. The batch must be non-empty,
// uncompressed and match the ledger's schema by name, kind and column order.
// It returns the un-merged row count after the append.
func (d *Delta) Append(rows *Table) (int, error) {
	if rows.Rows() == 0 {
		return 0, fmt.Errorf("storage: delta %q: empty append", d.name)
	}
	if err := d.checkSchema(rows); err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
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

// Clear zeroes the un-merged count: a merge has published every row.
func (d *Delta) Clear() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rows = 0
}

// Concat returns a new uncompressed table holding the first aRows rows of a
// followed by every row of b; schemas must match by name, kind and order.
// Snapshot views layer freshly ingested rows behind the base this way —
// consolidation re-encodes explicitly when the merge commits, so the un-merged
// tail is always served (and its I/O charged) at raw width. It is the splice
// of the runs [0, aRows) and b: zones are derived from a's as Splice derives
// them. The first Concat to keep all of a table Concat built writes b into
// the spare capacity of a's arrays and heaps, past what a shows; any other —
// of a loaded table, of a prefix, or a second one from a table — copies.
func Concat(a *Table, aRows int, b *Table) (*Table, error) {
	if err := checkConcat(a, aRows, b); err != nil {
		return nil, err
	}
	inPlace := aRows == a.Rows() && a.tip.CompareAndSwap(true, false)
	cols := make([]*Column, len(a.Cols))
	for i, c := range a.Cols {
		o := b.Cols[i]
		nc := &Column{Name: c.Name, Kind: c.Kind}
		switch c.Kind {
		case vector.Int64:
			nc.I64 = append(room(c.I64[:aRows], len(o.I64), inPlace), o.I64...)
		case vector.Float64:
			nc.F64 = append(room(c.F64[:aRows], len(o.F64), inPlace), o.F64...)
		case vector.String:
			nc.Str = vector.Heap{Bytes: room(c.Str.Bytes[:c.Str.Offs[aRows]], o.Str.Size(), inPlace),
				Offs: room(c.Str.Offs[:aRows+1], o.Str.Len(), inPlace)}
			nc.Str.AppendRange(o.Str, 0, o.Str.Len())
		}
		cols[i] = nc
	}
	n := int32(aRows)
	sp := &spliced{parent: a, aRows: aRows, runs: []run{{0, 0, n}, {n, n, int32(b.Rows())}}}
	t, err := newTable(a.Name, a.PageSize, cols, sp)
	if err == nil {
		t.tip.Store(true)
	}
	return t, err
}

// room returns a with room for n more values: a itself when inPlace and
// they fit in its spare capacity, else a copy with room for half as many
// values again, so a value is copied O(1) times over a chain of extensions.
func room[T any](a []T, n int, inPlace bool) []T {
	if m := len(a) + n; !inPlace || m > cap(a) {
		out := make([]T, len(a), m+m/2)
		copy(out, a)
		a = out
	}
	return a
}

// Splice returns the uncompressed table whose row i is row src[i] of the
// concatenation Concat(a, aRows, b) would build: one copy where Concat
// followed by Permute (and AppendRows, when src repeats rows) makes three.
// Its zones are derived from a's, so a value is read only on a page that
// does not keep a parent page's bound row, or that holds rows of b (see
// derivePages). src may have any length.
func Splice(a *Table, aRows int, b *Table, src []int32) (*Table, error) {
	if err := checkConcat(a, aRows, b); err != nil {
		return nil, err
	}
	return (&spliced{parent: a, aRows: aRows, runs: spliceRuns(src, aRows)}).build(b, len(src))
}

// build returns the uncompressed table of the n rows sp's runs copy from the
// first aRows rows of its parent followed by b's (nil: no batch), with its
// zones derived from the parent's.
func (sp *spliced) build(b *Table, n int) (*Table, error) {
	a := sp.parent
	cols := make([]*Column, len(a.Cols))
	for i, c := range a.Cols {
		o := &Column{}
		if b != nil {
			o = b.Cols[i]
		}
		nc := &Column{Name: c.Name, Kind: c.Kind}
		switch c.Kind {
		case vector.Int64:
			nc.I64 = gather(c.I64[:sp.aRows], o.I64, sp.runs, n)
		case vector.Float64:
			nc.F64 = gather(c.F64[:sp.aRows], o.F64, sp.runs, n)
		case vector.String:
			nc.Str = gatherHeap(c.Str, o.Str, sp, n)
		}
		cols[i] = nc
	}
	return newTable(a.Name, a.PageSize, cols, sp)
}

// spliced is how a table's rows were gathered: runs over the concatenation
// of the first aRows rows of parent and a batch.
type spliced struct {
	parent *Table
	aRows  int
	runs   []run
}

// run is n consecutive rows of a table from row at on, copied from the
// consecutive source rows from src on; a source row below aRows is the
// parent's, any other the batch's row src-aRows.
type run struct{ at, src, n int32 }

// spliceRuns cuts src into maximal runs of consecutive rows on one side of
// aRows: the retained order between two spliced-in rows is one run.
func spliceRuns(src []int32, aRows int) []run {
	var runs []run
	n := int32(aRows)
	for i := 0; i < len(src); {
		j := i + 1
		for j < len(src) && src[j] == src[j-1]+1 && (src[j] < n) == (src[i] < n) {
			j++
		}
		runs = append(runs, run{int32(i), src[i], int32(j - i)})
		i = j
	}
	return runs
}

// gather returns the n rows the runs copy from a followed by b, each run as
// one block copy.
func gather[T any](a, b []T, runs []run, n int) []T {
	out := make([]T, n)
	for _, r := range runs {
		from, s := a, int(r.src)
		if s >= len(a) {
			from, s = b, s-len(a)
		}
		copy(out[r.at:r.at+r.n], from[s:])
	}
	return out
}

// gatherHeap is gather for string heaps: the n rows sp's runs copy from the
// first sp.aRows values of a followed by b, each run's bytes as one block
// into a heap sized once.
func gatherHeap(a, b vector.Heap, sp *spliced, n int) vector.Heap {
	from := func(r run) (vector.Heap, int) {
		if s := int(r.src); s < sp.aRows {
			return a, s
		}
		return b, int(r.src) - sp.aRows
	}
	bytes := 0
	for _, r := range sp.runs {
		h, s := from(r)
		bytes += int(h.Offs[s+int(r.n)] - h.Offs[s])
	}
	out := vector.MakeHeap(n, bytes)
	for _, r := range sp.runs {
		h, s := from(r)
		out.AppendRange(h, s, s+int(r.n))
	}
	return out
}

// ConcatWidth returns the modeled width of the densest column of the table
// Concat(a, aRows, b) would build, without building it: a string column's
// bytes are its heap's offset at aRows plus b's heap.
func ConcatWidth(a *Table, aRows int, b *Table) float64 {
	var widest float64
	for i, c := range a.Cols {
		w := 8.0
		if c.Kind == vector.String {
			w = strWidth(int(c.Str.Offs[aRows])+b.Cols[i].Str.Size(), aRows+b.Rows())
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
	if len(a.Cols) != len(b.Cols) {
		return fmt.Errorf("storage: concat of %q and %q: %d vs %d columns", a.Name, b.Name, len(a.Cols), len(b.Cols))
	}
	for i, c := range a.Cols {
		o := b.Cols[i]
		if c.Name != o.Name || c.Kind != o.Kind {
			return fmt.Errorf("storage: concat of %q: column %d is %s %s vs %s %s",
				a.Name, i, c.Kind, c.Name, o.Kind, o.Name)
		}
		if c.rawLen() != c.Len() || o.rawLen() != o.Len() {
			return fmt.Errorf("storage: concat of %q and %q: column %s holds no raw values", a.Name, b.Name, c.Name)
		}
	}
	return nil
}
