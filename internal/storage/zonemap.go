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
// bound rows it keeps and reads values only where it does not (derivePages).
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

// minMaxAt returns the minimum and maximum of the values at(lo), …,
// at(hi-1), lo < hi, and the row of an occurrence of each. One comparison
// settles most values: mn ≤ mx holds throughout, so a new minimum is never
// a new maximum.
func minMaxAt[T cmp.Ordered](lo, hi int, at func(int) T) (mn, mx T, mnAt, mxAt int) {
	mn, mx, mnAt, mxAt = at(lo), at(lo), lo, lo
	for i := lo + 1; i < hi; i++ {
		if v := at(i); v < mn {
			mn, mnAt = v, i
		} else if v > mx {
			mx, mxAt = v, i
		}
	}
	return mn, mx, mnAt, mxAt
}

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

// derivePages computes the per-page bounds of the n rows sp gathered, at
// rowsPerPage, and the rows holding them; at(i) is the value of row i. par is
// the zonemap of sp's parent. Where the pieces of one parent page that land
// in one output page hold that parent page's minimum (maximum) row, that row
// is mapped to the output and its value is the bound; otherwise those pieces
// are scanned. Batch rows always are. Every bound is read through at, so a
// string bound is a view of the new column's heap, never of the parent's.
func derivePages[T cmp.Ordered](n int, at func(int) T, rowsPerPage int, sp *spliced, par *zonemap) (mins, maxs []T, minAt, maxAt []int32) {
	pages := (n + rowsPerPage - 1) / rowsPerPage
	mins, maxs, minAt, maxAt = make([]T, pages), make([]T, pages), make([]int32, pages), make([]int32, pages)
	parRows := par.rowsPerPage
	var acc candidates[T]
	scan := func(lo, hi int) { acc.add(minMaxAt(lo, hi, at)) }
	var group []run // consecutive pieces of one parent page in one output page
	flush := func() {
		if len(group) == 0 {
			return
		}
		p := int(group[0].src) / parRows
		mnAt, mxAt := -1, -1
		for _, g := range group {
			if r := par.minAt[p]; r >= g.src && r < g.src+g.n {
				mnAt = int(g.at + r - g.src)
			}
			if r := par.maxAt[p]; r >= g.src && r < g.src+g.n {
				mxAt = int(g.at + r - g.src)
			}
		}
		if mnAt >= 0 {
			acc.add(at(mnAt), at(mnAt), mnAt, mnAt)
		}
		if mxAt >= 0 {
			acc.add(at(mxAt), at(mxAt), mxAt, mxAt)
		}
		if mnAt < 0 || mxAt < 0 {
			for _, g := range group {
				scan(int(g.at), int(g.at+g.n))
			}
		}
		group = group[:0]
	}
	k := 0
	for q := range pages {
		lo, hi := q*rowsPerPage, min((q+1)*rowsPerPage, n)
		acc = candidates[T]{}
		for pos := lo; pos < hi; {
			for int(sp.runs[k].at+sp.runs[k].n) <= pos {
				k++
			}
			r := sp.runs[k]
			end := min(int(r.at+r.n), hi)
			s := int(r.src) + pos - int(r.at)
			if s >= sp.aRows {
				scan(pos, end)
				pos = end
				continue
			}
			for pos < end { // split at the parent's page edges
				p := s / parRows
				m := min(end-pos, (p+1)*parRows-s)
				if len(group) > 0 && int(group[0].src)/parRows != p {
					flush()
				}
				group = append(group, run{int32(pos), int32(s), int32(m)})
				pos, s = pos+m, s+m
			}
		}
		flush()
		mins[q], maxs[q], minAt[q], maxAt[q] = acc.mn, acc.mx, int32(acc.mnAt), int32(acc.mxAt)
	}
	return mins, maxs, minAt, maxAt
}

// buildZonemap computes the zonemap of c: from its chunks when it has them,
// else at rowsPerPage from its values. When c holds the rows sp gathered and
// the parent's zonemap par records the rows holding its bounds, the zones
// are derived from par's (derivePages); otherwise every value is read — the
// derivation over one run of batch rows.
func buildZonemap(c *Column, rowsPerPage int, sp *spliced, par *zonemap) zonemap {
	if c.Enc != nil {
		return zonemapFromChunks(c)
	}
	if par == nil || par.minAt == nil {
		sp, par = &spliced{runs: []run{{0, 0, int32(c.Len())}}}, &zonemap{}
	}
	z := zonemap{rowsPerPage: rowsPerPage}
	switch c.Kind {
	case vector.Int64:
		z.minI, z.maxI, z.minAt, z.maxAt = derivePages(len(c.I64), func(i int) int64 { return c.I64[i] }, rowsPerPage, sp, par)
	case vector.String:
		z.minS, z.maxS, z.minAt, z.maxAt = derivePages(c.Str.Len(), c.Str.At, rowsPerPage, sp, par)
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
		z.minI = make([]int64, n)
		z.maxI = make([]int64, n)
		for i, ch := range e.Chunks {
			z.minI[i], z.maxI[i] = ch.MinI, ch.MaxI
		}
	case vector.String:
		z.minS = make([]string, n)
		z.maxS = make([]string, n)
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
	z := t.zones[ci]
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
	var keep RowRanges
	rpp := z.rowsPerPage
	pages := z.pages()
	for p := 0; p < pages; p++ {
		ok := true
		switch c.Kind {
		case vector.Int64:
			if iv.Lo.Set && z.maxI[p] < iv.Lo.I {
				ok = false
			}
			if iv.Hi.Set && z.minI[p] > iv.Hi.I {
				ok = false
			}
		case vector.String:
			if iv.Lo.Set && z.maxS[p] < iv.Lo.S {
				ok = false
			}
			if iv.Hi.Set && z.minS[p] > iv.Hi.S {
				ok = false
			}
		}
		if ok {
			keep = append(keep, RowRange{p * rpp, min((p+1)*rpp, t.rows)})
		}
	}
	return in.Intersect(keep.Normalize())
}
