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
// On a compressed column the zonemap is built from the encoded chunks (one
// entry per chunk, chunk bounds computed during encoding without an extra row
// loop), so rowsPerPage is the chunk granularity — the raw-width page size —
// not the encoded-width rows-per-page of the I/O model.
type zonemap struct {
	rowsPerPage int
	minI        []int64
	maxI        []int64
	minF        []float64
	maxF        []float64
	minS        []string
	maxS        []string
}

// pages returns the number of zones (one per page or encoded chunk).
func (z *zonemap) pages() int {
	return max(max(len(z.minI), len(z.minF)), len(z.minS))
}

// minMaxOrd returns the minimum and maximum of a non-empty slice. For floats
// the `<`/`>` comparisons make NaN neutral: a NaN never replaces the running
// bound, matching the pruning semantics (NaN fails every range predicate).
// One comparison settles most values: mn ≤ mx holds throughout (a NaN first
// value stays both bounds), so a new minimum is never a new maximum.
func minMaxOrd[T cmp.Ordered](vals []T) (mn, mx T) {
	mn, mx = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < mn {
			mn = v
		} else if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// pageMinMax computes per-page bounds of vals at the given granularity. The
// bounds of the leading len(keepMin) pages are copied from keepMin/keepMax
// instead of being recomputed.
func pageMinMax[T cmp.Ordered](vals []T, rowsPerPage, pages int, keepMin, keepMax []T) (mns, mxs []T) {
	mns = make([]T, pages)
	mxs = make([]T, pages)
	keep := copy(mns, keepMin)
	copy(mxs, keepMax)
	for p := keep; p < pages; p++ {
		lo, hi := p*rowsPerPage, min((p+1)*rowsPerPage, len(vals))
		mns[p], mxs[p] = minMaxOrd(vals[lo:hi])
	}
	return mns, mxs
}

// buildZonemap computes the zonemap of c. When the column's leading rows are
// the rows prev was built over, prev's zones are carried over — all but the
// last, the only page that may have been partial — provided the page geometry
// did not move (a string column's rows-per-page follows its average length).
func buildZonemap(c *Column, rowsPerPage int, prev *zonemap) zonemap {
	if c.Enc != nil {
		return zonemapFromChunks(c)
	}
	n := c.Len()
	pages := (n + rowsPerPage - 1) / rowsPerPage
	z := zonemap{rowsPerPage: rowsPerPage}
	keep := 0
	if prev != nil && prev.rowsPerPage == rowsPerPage {
		keep = max(prev.pages()-1, 0)
	} else {
		prev = &zonemap{}
	}
	switch c.Kind {
	case vector.Int64:
		z.minI, z.maxI = pageMinMax(c.I64, rowsPerPage, pages, prev.minI[:keep], prev.maxI[:keep])
	case vector.Float64:
		z.minF, z.maxF = pageMinMax(c.F64, rowsPerPage, pages, prev.minF[:keep], prev.maxF[:keep])
	case vector.String:
		z.minS, z.maxS = pageMinMax(c.Str, rowsPerPage, pages, prev.minS[:keep], prev.maxS[:keep])
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
	case vector.Float64:
		z.minF = make([]float64, n)
		z.maxF = make([]float64, n)
		for i, ch := range e.Chunks {
			z.minF[i], z.maxF[i] = ch.MinF, ch.MaxF
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

// Bound is one endpoint of a value interval used for zonemap pruning.
// Unbounded endpoints are expressed with Open=false, Set=false.
type Bound struct {
	Set bool
	I   int64
	F   float64
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
		case vector.Float64:
			if iv.Lo.Set && z.maxF[p] < iv.Lo.F {
				ok = false
			}
			if iv.Hi.Set && z.minF[p] > iv.Hi.F {
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
