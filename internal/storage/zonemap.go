package storage

import (
	"cmp"

	"bdcc/internal/vector"
)

// zonemap holds per-page minimum and maximum values of one column. The host
// system of the paper ("Integration of VectorWise with Ingres", SIGMOD Record
// 2011) creates these MinMax indices automatically on every table; they are
// only selective when the table is clustered on (or correlated with) the
// filtered attribute — which is exactly how the paper's BDCC setup
// accelerates l_shipdate predicates through o_orderdate clustering.
//
// Each page also records a row holding its minimum and one holding its
// maximum (any occurrence). A splice or a concatenation moves its parent's
// rows in runs, so it derives a page's bounds from the parent pages whose
// bound rows it keeps and reads values only where it does not (derivePages);
// a splice's view does so on a column's first prune.
//
// Float64 columns have no zones and keep every page: no predicate yields a
// float interval (the planner prunes on integer and string bounds only), and
// the money columns are to become scaled integers.
//
// Compress keeps the raw zones: a chunk is a raw-width page, so its bounds
// are the page's. A table adopted from frames has only chunks and builds its
// zones from their bounds, without positions. Either way rowsPerPage is the
// raw-width page size, not the encoded-width rows-per-page of the I/O model.
type zonemap struct {
	rowsPerPage int
	minI        []int64
	maxI        []int64
	minS        []string
	maxS        []string
	// minAt and maxAt are, per page, a table row holding the page's minimum
	// and one holding its maximum; nil on zones built from chunks.
	minAt []int32
	maxAt []int32
}

// pages returns the number of zones (one per page or encoded chunk).
func (z *zonemap) pages() int {
	return max(len(z.minI), len(z.minS))
}

// minMax returns the minimum and maximum of the non-empty vals and the index
// of an occurrence of each. One comparison settles most values: mn ≤ mx
// holds throughout, so a new minimum is never a new maximum.
func minMax[T cmp.Ordered](vals []T) (mn, mx T, mnAt, mxAt int) {
	mn, mx = vals[0], vals[0]
	for i, v := range vals {
		if v < mn {
			mn, mnAt = v, i
		} else if v > mx {
			mx, mxAt = v, i
		}
	}
	return mn, mx, mnAt, mxAt
}

// span reads the bounds of rows [lo,hi) of a column, lo < hi, and the rows
// holding them (viewSpan).
type span[T cmp.Ordered] func(lo, hi int) (mn, mx T, mnAt, mxAt int)

// candidates folds values of one page, with their rows, into its bounds.
type candidates[T cmp.Ordered] struct {
	set        bool
	mn, mx     T
	mnAt, mxAt int
}

func (c *candidates[T]) add(mn, mx T, mnAt, mxAt int) {
	if !c.set {
		*c = candidates[T]{true, mn, mx, mnAt, mxAt}
		return
	}
	if mn < c.mn {
		c.mn, c.mnAt = mn, mnAt
	}
	if mx > c.mx {
		c.mx, c.mxAt = mx, mxAt
	}
}

// derivePages computes the per-page bounds of the n rows the runs hold, at
// rowsPerPage, and the rows holding them, reading the rows through span. par
// is the zonemap of the runs' source 0 (the parent); any other source is a
// batch. Where the pieces of one parent page that land
// in one output page hold that parent page's minimum (maximum) row, that row
// is mapped to the output and its value is the bound; otherwise those pieces
// are scanned. Batch rows always are. Every bound is read through span, so a
// string bound is a view of the new column's heap, never of the parent's.
func derivePages[T cmp.Ordered](n int, at span[T], rowsPerPage int, runs []Run, par *zonemap) (mins, maxs []T, minAt, maxAt []int32) {
	pages := (n + rowsPerPage - 1) / rowsPerPage
	mins, maxs, minAt, maxAt = make([]T, pages), make([]T, pages), make([]int32, pages), make([]int32, pages)
	parRows := par.rowsPerPage
	var acc candidates[T]
	scan := func(lo, hi int) { acc.add(at(lo, hi)) }
	var group []Run // consecutive pieces of one parent page in one output page
	flush := func() {
		if len(group) == 0 {
			return
		}
		p := int(group[0].Src) / parRows
		mnAt, mxAt := -1, -1
		for _, g := range group {
			if r := par.minAt[p]; r >= g.Src && r < g.Src+g.N {
				mnAt = int(g.At + r - g.Src)
			}
			if r := par.maxAt[p]; r >= g.Src && r < g.Src+g.N {
				mxAt = int(g.At + r - g.Src)
			}
		}
		if mnAt >= 0 {
			scan(mnAt, mnAt+1)
		}
		if mxAt >= 0 {
			scan(mxAt, mxAt+1)
		}
		if mnAt < 0 || mxAt < 0 {
			for _, g := range group {
				scan(int(g.At), int(g.At+g.N))
			}
		}
		group = group[:0]
	}
	k := 0
	for q := range pages {
		lo, hi := q*rowsPerPage, min((q+1)*rowsPerPage, n)
		acc = candidates[T]{}
		for pos := lo; pos < hi; {
			for int(runs[k].At+runs[k].N) <= pos {
				k++
			}
			r := runs[k]
			end := min(int(r.At+r.N), hi)
			s := int(r.Src) + pos - int(r.At)
			if r.Source != 0 {
				scan(pos, end)
				pos = end
				continue
			}
			for pos < end { // split at the parent's page edges
				p := s / parRows
				m := min(end-pos, (p+1)*parRows-s)
				if len(group) > 0 && int(group[0].Src)/parRows != p {
					flush()
				}
				group = append(group, Run{int32(pos), int32(s), int32(m), 0})
				pos, s = pos+m, s+m
			}
		}
		flush()
		mins[q], maxs[q], minAt[q], maxAt[q] = acc.mn, acc.mx, int32(acc.mnAt), int32(acc.mxAt)
	}
	return mins, maxs, minAt, maxAt
}

// deriveZonemap computes the zones of column ci at its raw-width pages. When
// its rows are the runs over a table whose zones par record the rows holding
// their bounds (source 0; any other source is a batch), they are derived from
// par's (derivePages); otherwise every value is read.
func (t *Table) deriveZonemap(ci int, runs []Run, par *zonemap) zonemap {
	if par == nil || par.minAt == nil {
		runs, par = []Run{{0, 0, int32(t.rows), 1}}, &zonemap{}
	}
	v, c := t.runsOf(), t.Cols[ci]
	z := zonemap{rowsPerPage: t.rowsPerPage(c)}
	switch c.Kind {
	case vector.Int64:
		at := viewSpan(v, ci, func(b *vector.Vector) []int64 { return b.I64 })
		z.minI, z.maxI, z.minAt, z.maxAt = derivePages(t.rows, at, z.rowsPerPage, runs, par)
	case vector.String:
		at := viewSpan(v, ci, func(b *vector.Vector) []string { return b.Str })
		z.minS, z.maxS, z.minAt, z.maxAt = derivePages(t.rows, at, z.rowsPerPage, runs, par)
	}
	return z
}

// zonemapFromChunks builds the zonemap of a compressed column from the
// per-chunk bounds the encoder computed: RLE and dictionary chunks yield
// min/max from their runs and codes, so no second row loop runs.
func zonemapFromChunks(c *Column) zonemap {
	e := c.Enc
	z := zonemap{rowsPerPage: e.ChunkRows}
	n := len(e.Chunks)
	switch c.Kind {
	case vector.Int64:
		z.minI, z.maxI = make([]int64, n), make([]int64, n)
		for i, ch := range e.Chunks {
			z.minI[i], z.maxI[i] = ch.MinI, ch.MaxI
		}
	case vector.String:
		z.minS, z.maxS = make([]string, n), make([]string, n)
		for i, ch := range e.Chunks {
			z.minS[i], z.maxS[i] = ch.MinS, ch.MaxS
		}
	}
	return z
}

// Bound is one endpoint of a value interval used for zonemap pruning: I on
// an Int64 column, S on a String column. An unbounded endpoint has Set=false.
type Bound struct {
	Set bool
	I   int64
	S   string
}

// Interval is a closed value interval [Lo, Hi] on a column; either endpoint
// may be absent.
type Interval struct {
	Lo Bound
	Hi Bound
}

// overlapsI64 reports whether values in [mn,mx] can lie in the interval.
func (iv Interval) overlapsI64(mn, mx int64) bool {
	return (!iv.Lo.Set || mx >= iv.Lo.I) && (!iv.Hi.Set || mn <= iv.Hi.I)
}

// overlapsStr reports whether values in [mn,mx] can lie in the interval.
func (iv Interval) overlapsStr(mn, mx string) bool {
	return (!iv.Lo.Set || mx >= iv.Lo.S) && (!iv.Hi.Set || mn <= iv.Hi.S)
}

// PruneZonemap intersects the given row ranges with the pages of column name
// whose [min,max] overlaps the interval, returning the refined row ranges.
// Pages (encoded chunks on a compressed column) are the pruning granularity;
// surviving ranges still require tuple-level re-evaluation of the predicate.
// A Float64 column has no zones and keeps every page.
func (t *Table) PruneZonemap(name string, iv Interval, in RowRanges) RowRanges {
	ci := t.ColumnIndex(name)
	if ci < 0 {
		return in
	}
	c := t.Cols[ci]
	if in == nil {
		in = FullRange(t.rows)
	}
	// Callers may pass range sets in count-table order, which after
	// small-group relocation is not offset-sorted; intersection requires
	// normalized operands.
	in = in.Normalize()
	if c.Kind == vector.Float64 {
		return in
	}
	z := t.zonemap(ci)
	var keep RowRanges
	for p := range z.pages() {
		if c.Kind == vector.Int64 && iv.overlapsI64(z.minI[p], z.maxI[p]) || c.Kind == vector.String && iv.overlapsStr(z.minS[p], z.maxS[p]) {
			keep = append(keep, RowRange{p * z.rowsPerPage, min((p+1)*z.rowsPerPage, t.rows)})
		}
	}
	return in.Intersect(keep.Normalize())
}
