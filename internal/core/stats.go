package core

import (
	"fmt"
	"math/bits"
	"strings"
)

// GroupStats is the logarithmic group-size histogram Algorithm 1 collects
// "in a piggy-backed aggregation" during bulk load, one per possible
// count-table granularity: entry x counts groups of size [2^(x-1), 2^x).
// Correlated or hierarchical dimensions reveal themselves here as missing
// groups and skewed sizes, and Algorithm 1 reacts by choosing a higher
// granularity — the paper's "puff pastry does not hurt" property.
type GroupStats struct {
	// Granularity is the count-table bit granularity these stats describe.
	Granularity int
	// Groups[x] counts groups whose tuple count falls in [2^(x-1), 2^x).
	Groups []int64
	// Tuples[x] sums the tuple counts of those groups.
	Tuples []int64
	// NumGroups is the total number of (occupied) groups.
	NumGroups int64
	// TotalTuples is the table's tuple count.
	TotalTuples int64
}

// bucketOf returns the histogram bucket of a group of size n ≥ 1.
func bucketOf(n int64) int { return bits.Len64(uint64(n)) }

// addGroup records one group of size n.
func (g *GroupStats) addGroup(n int64) {
	b := bucketOf(n)
	for len(g.Groups) <= b {
		g.Groups = append(g.Groups, 0)
		g.Tuples = append(g.Tuples, 0)
	}
	g.Groups[b]++
	g.Tuples[b] += n
	g.NumGroups++
	g.TotalTuples += n
}

// String renders the histogram for diagnostics.
func (g *GroupStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "g=%d groups=%d:", g.Granularity, g.NumGroups)
	for x, n := range g.Groups {
		if n == 0 {
			continue
		}
		lo := int64(0)
		if x > 0 {
			lo = 1 << uint(x-1)
		}
		fmt.Fprintf(&b, " [%d,%d):%d", lo, int64(1)<<uint(x), n)
	}
	return b.String()
}

// TuplesInLargeGroups returns, exactly, how many tuples of the sorted
// full-granularity key column live in groups of at least minRows tuples when
// grouped at granularity g ≤ fullBits.
func TuplesInLargeGroups(keys []uint64, fullBits, g int, minRows int64) int64 {
	shift := uint(fullBits - g)
	var sum, run int64
	flush := func() {
		if run >= minRows {
			sum += run
		}
		run = 0
	}
	for i := range keys {
		if i > 0 && keys[i]>>shift != keys[i-1]>>shift {
			flush()
		}
		run++
	}
	flush()
	return sum
}

// GroupStats computes, from the table's sorted full-granularity keys, the
// group-size histogram at every granularity 1..FullBits, indexed by
// granularity-1. Nothing on the build or merge path reads them, so they are
// computed on demand. One pass: two neighbouring keys that first differ at
// bit d (from the low end) close a group at exactly the granularities that
// keep that bit, so the work is the rows plus the groups, not rows ×
// granularities.
func (t *BDCCTable) GroupStats() []*GroupStats {
	keys, fullBits := t.Keys(), t.FullBits
	out := make([]*GroupStats, fullBits)
	for g := range out {
		out[g] = &GroupStats{Granularity: g + 1}
	}
	start := make([]int, fullBits) // first row of the open group, by granularity-1
	for i := 1; i <= len(keys); i++ {
		d := fullBits // the end of the table closes every granularity's group
		if i < len(keys) {
			d = bits.Len64(keys[i] ^ keys[i-1])
		}
		for g := max(fullBits-d, 0); g < fullBits; g++ {
			out[g].addGroup(int64(i - start[g]))
			start[g] = i
		}
	}
	return out
}
