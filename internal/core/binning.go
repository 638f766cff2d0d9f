package core

import (
	"fmt"
	"sort"
)

// WeightedKey is one key value observation with a frequency weight. The
// dimension-creation algorithm of the companion tech report builds a
// histogram "on the union of all tables Tᵢ joined over dimension path Pᵢ,
// projecting only the dimension keys" — each using table contributes its key
// values weighted by occurrence, so dimension bins are balanced with respect
// to the data that will actually be clustered by them.
type WeightedKey struct {
	Val    KeyVal
	Weight int64
}

// CreateDimension builds a BDCC dimension over the observed weighted key
// values with at most 2^maxBits bins.
//
// If the number of distinct values fits into 2^maxBits, every distinct value
// receives its own (unique, Definition 1 (iv)) bin — this reproduces e.g. the
// paper's D_NATION with 25 singleton bins in 5 bits. Otherwise values are cut
// into equal-frequency bins at the weight quantiles, never splitting a single
// value across bins, so heavily skewed values simply occupy (up to) a bin of
// their own and their neighbours stay balanced.
func CreateDimension(name, table string, key []string, obs []WeightedKey, maxBits int) (*Dimension, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("core: dimension %s: no key values observed", name)
	}
	if maxBits < 0 || maxBits > 62 {
		return nil, fmt.Errorf("core: dimension %s: maxBits %d out of range", name, maxBits)
	}
	// Merge duplicates.
	sorted := append([]WeightedKey(nil), obs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Val.Compare(sorted[j].Val) < 0 })
	distinct := sorted[:0]
	for _, o := range sorted {
		if n := len(distinct); n > 0 && distinct[n-1].Val.Compare(o.Val) == 0 {
			distinct[n-1].Weight += o.Weight
			continue
		}
		distinct = append(distinct, o)
	}
	d := &Dimension{Name: name, Table: table, Key: key}
	maxBins := 1 << uint(maxBits)
	if len(distinct) <= maxBins {
		// One unique bin per distinct value.
		d.Bins = make([]Bin, len(distinct))
		for i, o := range distinct {
			d.Bins[i] = Bin{No: uint64(i), Min: o.Val, Max: o.Val, Weight: o.Weight, Unique: true}
		}
		return d, nil
	}
	// Equal-frequency cut at weight quantiles, aligned to distinct values.
	var total int64
	for _, o := range distinct {
		total += o.Weight
	}
	target := max(total/int64(maxBins), 1)
	var bins []Bin
	var cum int64
	open := false
	var cur Bin
	for i, o := range distinct {
		// Isolate heavy hitters: a value carrying a full bin's share of the
		// weight must not share a bin with its predecessors, so close the
		// open bin first.
		if open && o.Weight >= target && len(bins) < maxBins-1 {
			bins = append(bins, cur)
			open = false
		}
		if !open {
			cur = Bin{Min: o.Val}
			open = true
		}
		cur.Max = o.Val
		cur.Weight += o.Weight
		cum += o.Weight
		// Close the bin once cumulative weight reaches the next quantile
		// boundary for the bins produced so far.
		boundary := (int64(len(bins)) + 1) * total / int64(maxBins)
		if cum >= boundary && len(bins) < maxBins-1 && i < len(distinct)-1 {
			bins = append(bins, cur)
			open = false
		}
	}
	if open {
		bins = append(bins, cur)
	}
	for i := range bins {
		bins[i].No = uint64(i)
		bins[i].Unique = bins[i].Min.Compare(bins[i].Max) == 0
	}
	d.Bins = bins
	return d, nil
}

// DimensionBits returns the granularity Algorithm 2 (ii) assigns to a new
// dimension: "a fixed maximal granularity derived from the usage and the
// number of distinct values" — min(capBits, ⌈log₂ ndv⌉).
func DimensionBits(ndv int64, capBits int) int {
	b := BitsFor(int(ndv))
	if b > capBits {
		return capBits
	}
	return b
}
