package storage

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"bdcc/internal/vector"
)

// view is how a table Splice built holds its rows: as runs over materialized
// sources — the table at the root of the splice chain (a merged or loaded
// base, compressed or not) and each batch spliced in since — not in columns
// of its own. Splicing a view composes its runs, so no view reads through
// another: a scan reads each span from the sources run by run (read), a
// compressed root's pieces decoded, a batch's copied, strings as views. A
// plain table is read the same way, as one run over itself. A view is read
// at raw width, and its widths, pages and charged bytes are those of the
// table its runs gather, from per-run byte sums of its sources' string
// offsets (strOffsets). What needs a table of its own (Frames, Permute,
// Extract, Encoded, Concat) reads it through Materialized, which gathers
// once.
type view struct {
	srcs []*Table
	runs []run // in row order, covering the table's rows
	flat struct {
		once sync.Once
		t    *Table
	}
}

// runsOf returns the view t's rows are read through: its own, or t as one
// run over itself.
func (t *Table) runsOf() *view {
	if t.view != nil {
		return t.view
	}
	return &view{srcs: []*Table{t}, runs: []run{{0, 0, int32(t.rows), 0}}}
}

// read appends rows [lo,hi) of column ci to dst, each run's piece
// through its source's column (Column.AppendRange). k is the run to try
// first, before a search (the one the last read ended in); the one this read
// ends in is returned.
func (v *view) read(ci, lo, hi, k int, dst *vector.Vector) int {
	if lo >= hi {
		return k
	}
	if r := v.runs[k]; int32(lo) < r.at || int32(lo) >= r.at+r.n {
		k = locate(v.runs, int32(lo))
	}
	for {
		r := v.runs[k]
		end, s := min(hi, int(r.at+r.n)), int(r.src)+lo-int(r.at)
		v.srcs[r.source].Cols[ci].AppendRange(s, s+end-lo, dst)
		if lo = end; lo >= hi {
			return k
		}
		k++
	}
}

// run is n consecutive rows of a table from row at on, which are the
// consecutive rows from src on of source number source.
type run struct{ at, src, n, source int32 }

// lazyZones derives a table's zones (a Splice, in-place Concat, Materialized
// or merged Encoded result's) column by column on first use, and keeps them
// in memo: from par, the zones the table it was built from had then, over
// step, its runs over that table (source 0) and the batch (source 1); else
// from every value. It keeps those zones, not that table.
type lazyZones struct {
	par  []*zonemap
	step []run
	memo []atomic.Pointer[zonemap]
}

// lazyOver returns the lazy zones of a table built from a over step.
func lazyOver(a *Table, step []run) *lazyZones {
	lz := &lazyZones{par: make([]*zonemap, len(a.Cols)), step: step, memo: make([]atomic.Pointer[zonemap], len(a.Cols))}
	for i := range lz.par {
		lz.par[i] = a.known(i)
	}
	return lz
}

// Splice returns the table whose row i is row src[i] of the concatenation of
// the first aRows rows of a and every row of b: a view whose runs are src's,
// composed with a's when a is a view. Nothing is copied. When a derives its
// zones on use too, those it has with the rows holding their bounds — the
// columns its readers pruned on — are derived now, one batch away; any other
// on its first prune. src may have any length.
func Splice(a *Table, aRows int, b *Table, src []int32) (*Table, error) {
	b = b.Materialized()
	if err := checkConcat(a, aRows, b); err != nil {
		return nil, err
	}
	av := a.runsOf()
	from, srcs := av.runs, av.srcs
	v, step := &view{srcs: append(slices.Clip(srcs), b)}, spliceRuns(src, aRows)
	for _, r := range step {
		if r.source == 1 {
			r.source = int32(len(srcs))
			v.add(r)
			continue
		}
		for k := locate(from, r.src); r.n > 0; k++ {
			p := from[k]
			m := min(r.n, p.at+p.n-r.src)
			v.add(run{r.at, p.src + r.src - p.at, m, p.source})
			r.at, r.src, r.n = r.at+m, r.src+m, r.n-m
		}
	}
	t := v.table(a, len(src), step)
	eachColumn(t.Cols, func(i int, _ *vector.StrDict) {
		if z := t.lazy.par[i]; z != nil && z.minAt != nil && a.lazy != nil {
			t.zonemap(i)
		}
	})
	return t, nil
}

// spliceRuns cuts src into maximal runs of consecutive rows on one side of
// aRows: source 0 below it, source 1 (the batch, from its row 0) above.
func spliceRuns(src []int32, aRows int) []run {
	var runs []run
	n := int32(aRows)
	for i := 0; i < len(src); {
		j := i + 1
		for j < len(src) && src[j] == src[j-1]+1 && (src[j] < n) == (src[i] < n) {
			j++
		}
		r := run{int32(i), src[i], int32(j - i), 0}
		if r.src >= n {
			r.src, r.source = r.src-n, 1
		}
		runs = append(runs, r)
		i = j
	}
	return runs
}

// add appends the next run, extending the last when it continues it.
func (v *view) add(r run) {
	if k := len(v.runs) - 1; k >= 0 && v.runs[k].source == r.source && v.runs[k].src+v.runs[k].n == r.src {
		v.runs[k].n += r.n
		return
	}
	v.runs = append(v.runs, r)
}

// locate returns the index of the run holding row i.
func locate(runs []run, i int32) int {
	return sort.Search(len(runs), func(k int) bool { return runs[k].at+runs[k].n > i })
}

// table returns the n-row table over v with a's schema, its zones lazy over
// step from a's.
func (v *view) table(a *Table, n int, step []run) *Table {
	t := &Table{Name: a.Name, PageSize: a.PageSize, rows: n, byName: a.byName, Cols: make([]*Column, len(a.Cols)),
		lazy: lazyOver(a, step), view: v}
	for i, c := range a.Cols {
		t.Cols[i] = &Column{Name: c.Name, Kind: c.Kind, width: 8}
		if c.Kind == vector.String {
			t.Cols[i].width = strWidth(t.strBytes(i, n), n)
		}
	}
	return t
}

// strBytes returns the string bytes of the first rows rows of column ci,
// summed run by run from each source's offsets.
func (t *Table) strBytes(ci, rows int) int {
	v, total := t.runsOf(), 0
	offs := make([][]uint32, len(v.srcs))
	for _, r := range v.runs {
		if int(r.at) >= rows {
			break
		}
		if offs[r.source] == nil {
			offs[r.source] = v.srcs[r.source].strOffsets(ci)
		}
		o, s := offs[r.source], int(r.src)
		total += int(o[s+min(int(r.n), rows-int(r.at))] - o[s])
	}
	return total
}

// offsKey is the Derived key of a string column's offsets.
type offsKey int

// strOffsets returns where each row of string column ci of a table that is
// no view starts in its column's string bytes, and where the last ends: a
// raw column's heap offsets, else those of its rows read into one heap, once
// (Derived; a merge keeps those of the heap it encoded, see Encoded).
func (t *Table) strOffsets(ci int) []uint32 {
	if ch := t.Cols[ci].Enc.Chunks; len(ch) == 1 && ch[0].Enc == EncRaw {
		return ch[0].ValS.Offs
	}
	return t.Derived(offsKey(ci), func() any { return t.Cols[ci].raw().ValS.Offs }).([]uint32)
}

// viewSpan reads rows of a view for zone derivation — a span of a page, or
// the row of a kept bound — into one scratch vector, and takes their bounds
// from the values vals returns of it. A span mostly starts in the run the
// last one ended in, which is tried before a search.
func viewSpan[T cmp.Ordered](v *view, ci int, vals func(*vector.Vector) []T) span[T] {
	k := 0
	buf := &vector.Vector{Kind: v.srcs[0].Cols[ci].Kind}
	return func(lo, hi int) (T, T, int, int) {
		buf.Reset()
		k = v.read(ci, lo, hi, k, buf)
		mn, mx, mnAt, mxAt := minMax(vals(buf))
		return mn, mx, lo + mnAt, lo + mxAt
	}
}

// zonemap returns column ci's zones, deriving them on first use (see
// lazyZones); concurrent first uses may each derive, and all get the first
// kept.
func (t *Table) zonemap(ci int) *zonemap {
	lz := t.lazy
	if lz == nil {
		return &t.zones[ci]
	}
	if z := lz.memo[ci].Load(); z != nil {
		return z
	}
	var z zonemap
	switch {
	case t.zones != nil: // an encoded table's, from its chunks
		z = t.zones[ci]
	case lz.par != nil:
		z = t.deriveZonemap(ci, lz.step, lz.par[ci])
	default:
		z = t.deriveZonemap(ci, nil, nil)
	}
	lz.memo[ci].CompareAndSwap(nil, &z)
	return lz.memo[ci].Load()
}

// known returns column ci's zones if t has them without deriving, else nil.
func (t *Table) known(ci int) *zonemap {
	if t.lazy == nil {
		return &t.zones[ci]
	}
	return t.lazy.memo[ci].Load()
}

// settleZones derives the zones t has not, and keeps all of them eagerly.
func (t *Table) settleZones() {
	if t.lazy != nil {
		zones := make([]zonemap, len(t.Cols))
		eachColumn(t.Cols, func(i int, _ *vector.StrDict) { zones[i] = *t.zonemap(i) })
		t.zones, t.lazy = zones, nil
	}
}

// Materialized returns t when it holds its rows in arrays, and otherwise the
// table its runs gather, built on first use and kept. That table has the
// zones t has, their string bounds read again from its own heap.
func (t *Table) Materialized() *Table {
	if v := t.view; v != nil {
		v.flat.once.Do(func() { v.flat.t = v.gather(t, &lazyZones{memo: make([]atomic.Pointer[zonemap], len(t.Cols))}) })
		return v.flat.t
	}
	return t
}

// gather returns the table of the rows of v's view t, one copy per column,
// its zones lz seeded with those t has.
func (v *view) gather(t *Table, lz *lazyZones) *Table {
	out := &Table{Name: t.Name, PageSize: t.PageSize, rows: t.rows, byName: t.byName, Cols: make([]*Column, len(t.Cols)), lazy: lz}
	eachColumn(t.Cols, func(i int, _ *vector.StrDict) {
		bytes := 0
		if t.Cols[i].Kind == vector.String {
			bytes = t.strBytes(i, t.rows)
		}
		ch, k := rawRoom(t.Cols[i].Kind, t.rows, bytes), 0
		appendRows(&ch, t.Cols[i].Kind, 0, t.rows, func(lo, hi int, dst *vector.Vector) { k = v.read(i, lo, hi, k, dst) })
		c := rawColumn(t.Cols[i].Name, t.Cols[i].Kind, ch)
		c.finish()
		if out.Cols[i] = c; t.known(i) != nil {
			z := *t.known(i)
			if z.minS != nil { // bounds of c's heap, so that the sources' can go
				z.minS, z.maxS = make([]string, len(z.minAt)), make([]string, len(z.maxAt))
				for p := range z.minAt {
					z.minS[p], z.maxS[p] = ch.ValS.At(int(z.minAt[p])), ch.ValS.At(int(z.maxAt[p]))
				}
			}
			lz.memo[i].Store(&z)
		}
	})
	return out
}
