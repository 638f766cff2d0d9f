package storage

import "sort"

// RowRange is a half-open interval [Start, End) of row positions.
type RowRange struct {
	Start int
	End   int
}

// Len returns the number of rows in the range.
func (r RowRange) Len() int { return r.End - r.Start }

// RowRanges is an ordered, non-overlapping set of row ranges. The zero value
// is the empty set. Scans interpret a nil RowRanges as "all rows".
type RowRanges []RowRange

// FullRange returns the range set covering all n rows.
func FullRange(n int) RowRanges {
	if n == 0 {
		return RowRanges{}
	}
	return RowRanges{{0, n}}
}

// Normalize sorts the ranges, drops empty ones and merges overlapping or
// adjacent ones. It returns the normalized set.
func (rs RowRanges) Normalize() RowRanges {
	out := make(RowRanges, 0, len(rs))
	for _, r := range rs {
		if r.End > r.Start {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	merged := out[:0]
	for _, r := range out {
		if n := len(merged); n > 0 && r.Start <= merged[n-1].End {
			merged[n-1].End = max(merged[n-1].End, r.End)
			continue
		}
		merged = append(merged, r)
	}
	return merged
}

// Rows returns the total number of rows covered.
func (rs RowRanges) Rows() int {
	n := 0
	for _, r := range rs {
		n += r.Len()
	}
	return n
}

// Intersect returns the intersection of two normalized range sets.
func (rs RowRanges) Intersect(other RowRanges) RowRanges {
	var out RowRanges
	i, j := 0, 0
	for i < len(rs) && j < len(other) {
		a, b := rs[i], other[j]
		lo := max(a.Start, b.Start)
		hi := min(a.End, b.End)
		if lo < hi {
			out = append(out, RowRange{lo, hi})
		}
		if a.End < b.End {
			i++
		} else {
			j++
		}
	}
	return out
}

// Morsels splits the set into consecutive sub-sets ("morsels") of roughly
// rows rows each, for morsel-driven parallel scans: each morsel can be read
// by an independent worker, and concatenating the morsels in order yields
// exactly rs. Ranges are cut only at multiples of align rows from their
// start, so a Reader over the morsel sequence reproduces the exact batch
// boundaries of a Reader over rs (batches never span ranges, and within a
// range they are cut every align rows) — parallel scans merged in morsel
// order are byte-identical to the serial scan. rows is rounded up to a
// multiple of align; align must be positive.
func (rs RowRanges) Morsels(rows, align int) []RowRanges {
	rows = (max(rows, align) + align - 1) / align * align
	var out []RowRanges
	var cur RowRanges
	curRows := 0
	flush := func() {
		if len(cur) > 0 {
			out = append(out, cur)
			cur, curRows = nil, 0
		}
	}
	for _, r := range rs {
		for r.Len() > 0 {
			room := rows - curRows
			// Cut only at align multiples within the range so batch
			// boundaries are preserved; a morsel that cannot fit one more
			// aligned chunk is flushed instead of truncated unaligned.
			if room < align {
				flush()
				room = rows
			}
			take := r.Len()
			if take > room {
				take = room - room%align
			}
			cur = append(cur, RowRange{r.Start, r.Start + take})
			curRows += take
			r.Start += take
		}
	}
	flush()
	return out
}
