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
// sources — the table at the root of the splice chain (a merged base, whose
// raw arrays stay beside its chunks) and each batch spliced in since — not in
// arrays of its own. Splicing a view composes its runs, so no view reads
// through another: a scan copies each span from the sources run by run, its
// strings views of their heaps. A view is read at raw width, and its widths,
// pages and charged bytes are those of the table its runs gather, from
// per-run byte sums. What needs contiguous arrays (Frames, Permute, Extract,
// Encoded, Concat) reads them through Materialized, which gathers once.
type view struct {
	srcs []*Table
	runs []run // in row order, covering the table's rows
	flat struct {
		once sync.Once
		t    *Table
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
	from, srcs := []run{{0, 0, int32(a.rows), 0}}, []*Table{a}
	if a.view != nil {
		from, srcs = a.view.runs, a.view.srcs
	}
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

// strBytes returns the string bytes of the first rows rows of column ci.
func (t *Table) strBytes(ci, rows int) int {
	if t.view == nil {
		return int(t.Cols[ci].Str.Offs[rows])
	}
	total := 0
	for _, r := range t.view.runs {
		if int(r.at) >= rows {
			break
		}
		h, s := t.view.srcs[r.source].Cols[ci].Str, int(r.src)
		total += int(h.Offs[s+min(int(r.n), rows-int(r.at))] - h.Offs[s])
	}
	return total
}

// copySpan appends rows [lo,hi) of columns cols to out, each run's piece
// from its source's raw arrays.
func (v *view) copySpan(cols []int, out *vector.Batch, lo, hi int) {
	k0 := locate(v.runs, int32(lo))
	for i, ci := range cols {
		dst := out.Cols[i]
		for k, p := k0, lo; p < hi; k++ {
			r := &v.runs[k]
			end, s := min(hi, int(r.at+r.n)), int(r.src)+p-int(r.at)
			switch c := v.srcs[r.source].Cols[ci]; dst.Kind {
			case vector.Int64:
				dst.I64 = append(dst.I64, c.I64[s:s+end-p]...)
			case vector.Float64:
				dst.F64 = append(dst.F64, c.F64[s:s+end-p]...)
			case vector.String:
				n := len(dst.Str)
				dst.Str = slices.Grow(dst.Str, end-p)[:n+end-p]
				c.Str.Views(dst.Str[n:], s)
			}
			p = end
		}
	}
}

// viewSpan reads rows of a view for zone derivation: each run's piece as
// bounds reads it from the source column. A span mostly starts in the run
// the last one ended in, which is tried before a search.
func viewSpan[T cmp.Ordered](v *view, ci int, bounds func(c *Column, lo, hi int) (T, T, int, int)) span[T] {
	k := 0
	return func(lo, hi int) (T, T, int, int) {
		var acc candidates[T]
		if r := v.runs[k]; int32(lo) < r.at || int32(lo) >= r.at+r.n {
			k = locate(v.runs, int32(lo))
		}
		for ; ; k++ {
			r := v.runs[k]
			end, s := min(hi, int(r.at+r.n)), int(r.src)+lo-int(r.at)
			mn, mx, mnAt, mxAt := bounds(v.srcs[r.source].Cols[ci], s, s+end-lo)
			acc.add(mn, mx, mnAt+lo-s, mxAt+lo-s)
			if lo = end; lo >= hi {
				return acc.mn, acc.mx, acc.mnAt, acc.mxAt
			}
		}
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
		c := &Column{Name: t.Cols[i].Name, Kind: t.Cols[i].Kind}
		switch c.Kind {
		case vector.Int64:
			c.I64 = gatherRuns(v, t.rows, func(s *Table) []int64 { return s.Cols[i].I64 })
		case vector.Float64:
			c.F64 = gatherRuns(v, t.rows, func(s *Table) []float64 { return s.Cols[i].F64 })
		case vector.String:
			c.Str = vector.MakeHeap(t.rows, t.strBytes(i, t.rows))
			for _, r := range v.runs {
				c.Str.AppendRange(v.srcs[r.source].Cols[i].Str, int(r.src), int(r.src+r.n))
			}
		}
		c.finish()
		if out.Cols[i] = c; t.known(i) != nil {
			z := *t.known(i)
			if z.minS != nil { // bounds of c's heap, so that the sources' can go
				z.minS, z.maxS = make([]string, len(z.minAt)), make([]string, len(z.maxAt))
				for p := range z.minAt {
					z.minS[p], z.maxS[p] = c.Str.At(int(z.minAt[p])), c.Str.At(int(z.maxAt[p]))
				}
			}
			lz.memo[i].Store(&z)
		}
	})
	return out
}

// gatherRuns returns the n rows v's runs copy from the sources' arrays.
func gatherRuns[T any](v *view, n int, vals func(*Table) []T) []T {
	out := make([]T, n)
	for _, r := range v.runs {
		copy(out[r.at:r.at+r.n], vals(v.srcs[r.source])[r.src:])
	}
	return out
}
