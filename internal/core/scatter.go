package core

import (
	"fmt"
	"sort"

	"bdcc/internal/storage"
)

// ScatterGroup is one group of a scatter scan: the rows of the BDCC table
// whose requested dimension bits equal GroupID, in count-table order. The
// group identifier is what the sandwich operators align join inputs and
// aggregation flushes on.
type ScatterGroup struct {
	GroupID uint64
	Ranges  storage.RowRanges
	Rows    int64
}

// ScatterPlan computes the group sequence of a scatter scan that retrieves
// the table in major order of the given dimension uses ("this scan can
// retrieve data in the orders (D1), (D2), (D1,D2), (D2,D1)"): useOrder lists
// use indices major to minor and groupBits how many (major) bits of each use
// form the group identifier. Offsets are calculated from T_COUNT; the scan
// touches only entries that survive the restriction (nil means all).
//
// Group identifiers are the concatenation of the selected bit prefixes,
// major use first; entries with equal identifiers merge into one group, and
// the emitted groups are ordered by identifier.
func (t *BDCCTable) ScatterPlan(useOrder []int, groupBits []int, restrict []CountEntry) ([]ScatterGroup, error) {
	if len(useOrder) != len(groupBits) {
		return nil, fmt.Errorf("core: scatter plan: %d uses but %d bit counts", len(useOrder), len(groupBits))
	}
	entries := restrict
	if entries == nil {
		entries = t.Count
	}
	type keyed struct {
		id uint64
		e  CountEntry
	}
	keyedEntries := make([]keyed, 0, len(entries))
	for _, e := range entries {
		var id uint64
		for i, ui := range useOrder {
			if ui < 0 || ui >= len(t.Uses) {
				return nil, fmt.Errorf("core: scatter plan: use index %d out of range", ui)
			}
			u := t.Uses[ui]
			avail := Ones(u.Mask)
			g := groupBits[i]
			if g > avail {
				return nil, fmt.Errorf("core: scatter plan: use %d has %d bits at count granularity, %d requested",
					ui, avail, g)
			}
			bits := GatherBits(e.Key, u.Mask, t.Bits)
			id = id<<uint(g) | (bits >> uint(avail-g))
		}
		keyedEntries = append(keyedEntries, keyed{id: id, e: e})
	}
	sort.SliceStable(keyedEntries, func(i, j int) bool { return keyedEntries[i].id < keyedEntries[j].id })
	var out []ScatterGroup
	for _, ke := range keyedEntries {
		r := storage.RowRange{Start: int(ke.e.Offset), End: int(ke.e.Offset + ke.e.Count)}
		if n := len(out); n > 0 && out[n-1].GroupID == ke.id {
			out[n-1].Ranges = append(out[n-1].Ranges, r)
			out[n-1].Rows += ke.e.Count
			continue
		}
		out = append(out, ScatterGroup{GroupID: ke.id, Ranges: storage.RowRanges{r}, Rows: ke.e.Count})
	}
	return out, nil
}

// SelectBins restricts the count table to groups whose bits of use u fall in
// the inclusive bin-number range [lo, hi] (expressed at the dimension's full
// granularity bits(D)). Boundary bins are included conservatively — the scan
// re-applies the tuple-level predicate. This is the _bdcc_ rewrite behind
// the paper's selection pushdown and selection propagation.
func (t *BDCCTable) SelectBins(u *DimensionUse, lo, hi uint64) []CountEntry {
	avail := Ones(u.Mask)
	shift := uint(u.Dim.Bits() - avail)
	loG, hiG := lo>>shift, hi>>shift
	var out []CountEntry
	for _, e := range t.Count {
		g := GatherBits(e.Key, u.Mask, t.Bits)
		if g >= loG && g <= hiG {
			out = append(out, e)
		}
	}
	return out
}

// SelectBinSet restricts the count table to groups whose bits of use u match
// the (reduced) bin prefix of any bin number in the set. The set members are
// at the dimension's full granularity.
func (t *BDCCTable) SelectBinSet(u *DimensionUse, bins BinSet) []CountEntry {
	reduced := bins.reduce(uint(u.Dim.Bits() - Ones(u.Mask)))
	var out []CountEntry
	for _, e := range t.Count {
		if reduced.Has(GatherBits(e.Key, u.Mask, t.Bits)) {
			out = append(out, e)
		}
	}
	return out
}

// IntersectEntries intersects two count-entry restrictions of the same
// table (both ordered by key).
func IntersectEntries(a, b []CountEntry) []CountEntry {
	var out []CountEntry
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Key < b[j].Key:
			i++
		case a[i].Key > b[j].Key:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// EntriesRanges converts count entries to row ranges of the table data.
func EntriesRanges(entries []CountEntry) storage.RowRanges {
	var out storage.RowRanges
	for _, e := range entries {
		out = append(out, storage.RowRange{Start: int(e.Offset), End: int(e.Offset + e.Count)})
	}
	return out.Normalize()
}

// TotalRows sums the tuple counts of count entries.
func TotalRows(entries []CountEntry) int64 {
	var n int64
	for _, e := range entries {
		n += e.Count
	}
	return n
}
