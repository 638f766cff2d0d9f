package core

import (
	"fmt"
	"math/bits"
	"sort"
)

// Bin is one entry 〈nᵢ, Vᵢ〉 of a dimension's sequence S(D). The value set Vᵢ
// is represented by its closed [Min, Max] key range — Definition 1 (ii)-(iii)
// guarantee bins never overlap and are value-ordered, so a range suffices.
type Bin struct {
	// No is the bin number nᵢ; creation assigns dense ascending numbers
	// 0..m-1, satisfying Definition 1 (i).
	No uint64
	// Min and Max delimit the bin's value set.
	Min KeyVal
	Max KeyVal
	// Weight is the total key frequency observed for this bin during
	// creation, kept for diagnostics and tests of binning balance.
	Weight int64
	// Unique marks singleton bins |Vᵢ| = 1 (Definition 1 (iv)).
	Unique bool
}

// Dimension is a BDCC dimension D = 〈T, K, S〉 (Definition 1): an order
// respecting surjective mapping from the dimension key domain of a host
// table onto bin numbers.
type Dimension struct {
	// Name identifies the dimension (the paper's D_NATION, D_DATE, ...).
	Name string
	// Table is T(D), the table hosting the dimension key.
	Table string
	// Key is K(D), the ordered list of key column names on Table.
	Key []string
	// Bins is S(D), ordered by bin number and by value range.
	Bins []Bin
}

// NumBins returns m(D) = |S|.
func (d *Dimension) NumBins() int { return len(d.Bins) }

// Bits returns bits(D) = ⌈log₂|S|⌉, the dimension granularity
// (Definition 1 (vi)).
func (d *Dimension) Bits() int {
	return BitsFor(len(d.Bins))
}

// BitsFor returns ⌈log₂ n⌉ for n ≥ 1 (and 0 for n ≤ 1).
func BitsFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len64(uint64(n - 1))
}

// BinOf returns bin_D(v), the bin number of key value v (Definition 1 (v)).
// Values outside every bin (unseen at creation time) map to the nearest bin
// in order, keeping the mapping total and monotone — required for range
// rewrites to stay correct over keys appended after the bins were cut.
func (d *Dimension) BinOf(v KeyVal) uint64 {
	i := sort.Search(len(d.Bins), func(i int) bool {
		return d.Bins[i].Max.Compare(v) >= 0
	})
	if i == len(d.Bins) {
		i = len(d.Bins) - 1
	}
	return d.Bins[i].No
}

// BinRange returns the inclusive bin-number interval covering all key values
// in [lo, hi]. Either bound may be nil for an open end. This is the mapping
// the query rewriter uses to turn a predicate on dimension key attributes
// into a _bdcc_ range restriction.
func (d *Dimension) BinRange(lo, hi *KeyVal) (uint64, uint64) {
	loBin := uint64(0)
	hiBin := uint64(len(d.Bins) - 1)
	if lo != nil {
		i := sort.Search(len(d.Bins), func(i int) bool {
			return d.Bins[i].Max.Compare(*lo) >= 0
		})
		if i == len(d.Bins) {
			i = len(d.Bins) - 1
		}
		loBin = d.Bins[i].No
	}
	if hi != nil {
		i := sort.Search(len(d.Bins), func(i int) bool {
			return d.Bins[i].Min.Compare(*hi) > 0
		})
		if i == 0 {
			i = 1
		}
		hiBin = d.Bins[i-1].No
	}
	hiBin = max(hiBin, loBin)
	return loBin, hiBin
}

// Validate checks the Definition 1 invariants: ascending bin numbers,
// non-overlapping and value-ordered bins.
func (d *Dimension) Validate() error {
	if len(d.Bins) == 0 {
		return fmt.Errorf("core: dimension %s has no bins", d.Name)
	}
	for i := range d.Bins {
		if d.Bins[i].Min.Compare(d.Bins[i].Max) > 0 {
			return fmt.Errorf("core: dimension %s bin %d has Min > Max", d.Name, i)
		}
		if i == 0 {
			continue
		}
		if d.Bins[i-1].No >= d.Bins[i].No {
			return fmt.Errorf("core: dimension %s bin numbers not ascending at %d", d.Name, i)
		}
		if d.Bins[i-1].Max.Compare(d.Bins[i].Min) >= 0 {
			return fmt.Errorf("core: dimension %s bins overlap or are unordered at %d", d.Name, i)
		}
	}
	return nil
}

// String implements fmt.Stringer.
func (d *Dimension) String() string {
	return fmt.Sprintf("%s(%d bits over %s.%v)", d.Name, d.Bits(), d.Table, d.Key)
}
