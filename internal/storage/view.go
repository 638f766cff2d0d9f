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
// offsets (strOffsets). Encoded reads a view through its runs too (a
// dictionary column through its root's codes, dictCodes); what else needs a
// table of its own (Frames, Permute, Extract, Concat) reads it through
// Materialized, which gathers once.
type view struct {
	srcs []*Table
	runs []Run // in row order, covering the table's rows
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
	return &view{srcs: []*Table{t}, runs: []Run{{0, 0, int32(t.rows), 0}}}
}

// read appends rows [lo,hi) of column ci to dst, each run's piece
// through its source's column (Column.AppendRange). k is the run to try
// first, before a search (the one the last read ended in); the one this read
// ends in is returned.
func (v *view) read(ci, lo, hi, k int, dst *vector.Vector) int {
	if lo >= hi {
		return k
	}
	if r := v.runs[k]; int32(lo) < r.At || int32(lo) >= r.At+r.N {
		k = locate(v.runs, int32(lo))
	}
	for {
		r := v.runs[k]
		end, s := min(hi, int(r.At+r.N)), int(r.Src)+lo-int(r.At)
		v.srcs[r.Source].Cols[ci].AppendRange(s, s+end-lo, dst)
		if lo = end; lo >= hi {
			return k
		}
		k++
	}
}

// Run is N consecutive rows of a table from row At on, which are the
// consecutive rows from Src on of source number Source.
type Run struct{ At, Src, N, Source int32 }

// lazyZones derives a table's zones (a Splice, Materialized or merged
// Encoded result's) column by column on first use, and keeps them in memo:
// from par, the zones the table it was built from had then, over step, its
// runs over that table (source 0) and the batch (source 1); else from every
// value. It keeps those zones, not that table.
type lazyZones struct {
	par  []*zonemap
	step []Run
	memo []atomic.Pointer[zonemap]
}

// lazyOver returns the lazy zones of a table built from a over step.
func lazyOver(a *Table, step []Run) *lazyZones {
	lz := &lazyZones{par: make([]*zonemap, len(a.Cols)), step: step, memo: make([]atomic.Pointer[zonemap], len(a.Cols))}
	for i := range lz.par {
		lz.par[i] = a.known(i)
	}
	return lz
}

// Splice returns the table of step's rows — runs over the first aRows rows of
// a (source 0) and over b (source 1), in row order (AppendRun) — as a view
// whose runs are step's composed with a's; nothing is copied. When a derives
// its zones on use too, those it has with the rows holding their bounds — the
// columns its readers pruned on — are derived now, one batch away; any other
// on its first prune.
func Splice(a *Table, aRows int, b *Table, step []Run) (*Table, error) {
	b = b.Materialized()
	if err := checkConcat(a, aRows, b); err != nil {
		return nil, err
	}
	av := a.runsOf()
	from, srcs := av.runs, av.srcs
	v, n := &view{srcs: append(slices.Clip(srcs), b)}, 0
	for _, r := range step {
		if n += int(r.N); r.Source == 1 {
			v.runs = AppendRun(v.runs, int32(len(srcs)), r.Src, r.N)
			continue
		}
		v.runs = AppendPieces(v.runs, from, r.Src, r.N)
	}
	t := v.table(a, n, step)
	eachColumn(t.Cols, func(i int) {
		if z := t.lazy.par[i]; z != nil && z.minAt != nil && a.lazy != nil {
			t.zonemap(i)
		}
	})
	return t, nil
}

// AppendRun appends to runs, which hold a table's first rows in row order,
// the next n rows: those from row src on of source number source. It extends
// the last run when they continue it, and adds nothing when n is 0.
func AppendRun(runs []Run, source, src, n int32) []Run {
	if n == 0 {
		return runs
	}
	var at int32
	if k := len(runs) - 1; k >= 0 {
		if l := &runs[k]; l.Source == source && l.Src+l.N == src {
			l.N += n
			return runs
		}
		at = runs[k].At + runs[k].N
	}
	return append(runs, Run{at, src, n, source})
}

// AppendPieces appends to dst (which may be runs) the pieces of runs that
// hold their rows [lo, lo+n).
func AppendPieces(dst, runs []Run, lo, n int32) []Run {
	for k := locate(runs, lo); n > 0; k++ {
		p := runs[k]
		m := min(n, p.At+p.N-lo)
		dst, lo, n = AppendRun(dst, p.Source, p.Src+lo-p.At, m), lo+m, n-m
	}
	return dst
}

// locate returns the index of the run holding row i.
func locate(runs []Run, i int32) int {
	return sort.Search(len(runs), func(k int) bool { return runs[k].At+runs[k].N > i })
}

// table returns the n-row table over v with a's schema, its zones lazy over
// step from a's.
func (v *view) table(a *Table, n int, step []Run) *Table {
	t := &Table{Name: a.Name, PageSize: a.PageSize, rows: n, byName: a.byName, Cols: make([]*Column, len(a.Cols)),
		lazy: lazyOver(a, step), view: v}
	for i, c := range a.Cols {
		t.Cols[i] = &Column{Name: c.Name, Kind: c.Kind, width: 8}
		if c.Kind == vector.String {
			t.Cols[i].width = strWidth(v.strBytes(i, n), n)
		}
	}
	return t
}

// strBytes returns the string bytes of the first rows rows of column ci,
// summed run by run from each source's offsets.
func (v *view) strBytes(ci, rows int) int {
	total := 0
	offs := make([][]uint32, len(v.srcs))
	for _, r := range v.runs {
		if int(r.At) >= rows {
			break
		}
		if offs[r.Source] == nil {
			offs[r.Source] = v.srcs[r.Source].strOffsets(ci)
		}
		o, s := offs[r.Source], int(r.Src)
		total += int(o[s+min(int(r.N), rows-int(r.At))] - o[s])
	}
	return total
}

// offsKey is the Derived key of a string column's offsets.
type offsKey int

// strOffsets returns where each row of string column ci of a table that is
// no view starts in its column's string bytes, and where the last ends: a
// raw column's heap offsets, else summed once (Derived) from its rows, read a
// chunk at a time into one scratch vector of views — an Encoded table keeps
// those of the heap it encoded (see compress).
func (t *Table) strOffsets(ci int) []uint32 {
	e := t.Cols[ci].Enc
	if len(e.Chunks) == 1 && e.Chunks[0].Enc == EncRaw {
		return e.Chunks[0].ValS.Offs
	}
	return t.Derived(offsKey(ci), func() any {
		offs, buf := make([]uint32, 1, t.rows+1), &vector.Vector{Kind: vector.String}
		for i := range e.Chunks {
			buf.Str = buf.Str[:0]
			e.Chunks[i].AppendRange(e.Dict, 0, e.Chunks[i].Rows, buf)
			for _, s := range buf.Str {
				offs = append(offs, offs[len(offs)-1]+uint32(len(s)))
			}
		}
		return offs
	}).([]uint32)
}

// ColumnValues returns rows [lo,hi) of the named column in a new vector, read
// through t's rows: a view's runs (its columns hold no values of their own),
// without the gather Materialized keeps.
func (t *Table) ColumnValues(name string, lo, hi int) (*vector.Vector, error) {
	c, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	v := vector.NewVector(c.Kind, hi-lo)
	t.runsOf().read(t.ColumnIndex(name), lo, hi, 0, v)
	return v, nil
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
		eachColumn(t.Cols, func(i int) { zones[i] = *t.zonemap(i) })
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

// Merged returns the table a merge publishes for t: a view encoded from its
// runs (Encoded) where its root is compressed, else gathered once
// (Materialized); t itself where it holds arrays.
func (t *Table) Merged() *Table {
	if t.view != nil && t.view.srcs[0].compressed {
		return t.Encoded()
	}
	return t.Materialized()
}

// gather returns the table of the rows of v's view t, one copy per column,
// its zones lz seeded with those t has.
func (v *view) gather(t *Table, lz *lazyZones) *Table {
	out := &Table{Name: t.Name, PageSize: t.PageSize, rows: t.rows, byName: t.byName, Cols: make([]*Column, len(t.Cols)), lazy: lz}
	eachColumn(t.Cols, func(i int) {
		bytes := 0
		if t.Cols[i].Kind == vector.String {
			bytes = v.strBytes(i, t.rows)
		}
		ch := v.column(i, t.Cols[i].Kind, t.rows, bytes)
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

// dictCodes numbers the n rows of string column ci of v in d (IDs) by the
// sorted dictionary of their values, from the codes of v's root when it holds
// the column with one: a piece of the root is its codes (Chunk.AppendCodes),
// a batch's values are looked up in the root's dictionary, the few it lacks
// numbered on past its end, and StrDict.Sort drops the entries no row reads.
// It returns the dictionary, its codes' width and modeled size, and the rows'
// offsets (strOffsets) — all-zero results when the root keeps no dictionary
// or the rows' is not viable (vector.DictCost).
func (v *view) dictCodes(ci, n int, d *vector.StrDict) ([]string, uint8, int64, []uint32) {
	root := v.srcs[0].Cols[ci].Enc
	if root.Dict == nil {
		return nil, 0, 0, nil
	}
	entries, added := slices.Clip(root.Dict), map[string]int{}
	code := func(s string) uint32 {
		c, ok := slices.BinarySearch(root.Dict, s)
		if !ok {
			if c, ok = added[s]; !ok {
				c, added[s], entries = len(entries), len(entries), append(entries, s)
			}
		}
		return uint32(c)
	}
	d.IDs = slices.Grow(d.IDs[:0], n)
	buf := &vector.Vector{Kind: vector.String}
	for _, r := range v.runs {
		for lo, hi := int(r.Src), int(r.Src+r.N); r.Source == 0 && lo < hi; {
			ch := &root.Chunks[root.chunkIndex(lo)]
			end := min(hi, ch.Start+ch.Rows)
			d.IDs, lo = ch.AppendCodes(lo-ch.Start, end-ch.Start, d.IDs, code), end
		}
		if r.Source != 0 {
			buf.Str = buf.Str[:0]
			v.srcs[r.Source].Cols[ci].AppendRange(int(r.Src), int(r.Src+r.N), buf)
			for _, s := range buf.Str {
				d.IDs = append(d.IDs, code(s))
			}
		}
	}
	dict, offs := d.Sort(len(entries), func(id uint32) string { return entries[id] }), make([]uint32, n+1)
	for i, c := range d.IDs {
		offs[i+1] = offs[i] + uint32(len(dict[c]))
	}
	if bitw, dictBytes := vector.DictCost(len(dict), d.Bytes, n, int(offs[n])); dictBytes > 0 {
		return dict, bitw, dictBytes, offs
	}
	return nil, 0, 0, nil
}

// column returns the first n rows of column ci, of kind, as one raw chunk,
// read run by run: strings copied, a batch at a time, into one heap with
// room for bytes bytes.
func (v *view) column(ci int, kind vector.Kind, n, bytes int) Chunk {
	if kind != vector.String {
		out := vector.NewVector(kind, n)
		v.read(ci, 0, n, 0, out)
		return Chunk{ValI: out.I64, ValF: out.F64}
	}
	h, blk, k := vector.MakeHeap(n, bytes), &vector.Vector{Kind: vector.String}, 0
	for lo := 0; lo < n; lo += vector.BatchSize {
		blk.Str = blk.Str[:0]
		k = v.read(ci, lo, min(n, lo+vector.BatchSize), k, blk)
		for _, s := range blk.Str {
			h.Append(s)
		}
	}
	return Chunk{ValS: h}
}
