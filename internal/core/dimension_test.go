package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// makeIntDim builds a dimension over the given int values (weight 1 each).
func makeIntDim(t *testing.T, name string, vals []int64, maxBits int) *Dimension {
	t.Helper()
	obs := make([]WeightedKey, len(vals))
	for i, v := range vals {
		obs[i] = WeightedKey{Val: IntKey(v), Weight: 1}
	}
	d, err := CreateDimension(name, "t", []string{"k"}, obs, maxBits)
	if err != nil {
		t.Fatalf("CreateDimension: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return d
}

// TestCreateDimensionUniqueBins reproduces the paper's D_NATION shape: 25
// distinct values fit 2^5 bins, so every value gets its own unique bin and
// bits(D) = 5.
func TestCreateDimensionUniqueBins(t *testing.T) {
	vals := make([]int64, 0, 100)
	for v := int64(0); v < 25; v++ {
		for r := 0; r < 4; r++ { // duplicates must merge
			vals = append(vals, v)
		}
	}
	d := makeIntDim(t, "d_nation", vals, 5)
	if d.NumBins() != 25 {
		t.Fatalf("bins = %d, want 25", d.NumBins())
	}
	if d.Bits() != 5 {
		t.Fatalf("bits = %d, want 5", d.Bits())
	}
	for i, b := range d.Bins {
		if !b.Unique {
			t.Errorf("bin %d not unique", i)
		}
		if b.Weight != 4 {
			t.Errorf("bin %d weight = %d, want 4", i, b.Weight)
		}
	}
}

// TestCreateDimensionEqualFrequency checks quantile binning balance on a
// uniform domain larger than the bin budget.
func TestCreateDimensionEqualFrequency(t *testing.T) {
	vals := make([]int64, 0, 4096)
	for v := int64(0); v < 4096; v++ {
		vals = append(vals, v)
	}
	d := makeIntDim(t, "d_uniform", vals, 4)
	if d.NumBins() != 16 {
		t.Fatalf("bins = %d, want 16", d.NumBins())
	}
	for i, b := range d.Bins {
		if b.Weight != 256 {
			t.Errorf("bin %d weight = %d, want 256", i, b.Weight)
		}
	}
}

// TestCreateDimensionSkew checks that a heavy hitter occupies its own bin
// without starving its neighbours: frequency-based binning "when faced with
// skew" per the companion tech report.
func TestCreateDimensionSkew(t *testing.T) {
	var obs []WeightedKey
	obs = append(obs, WeightedKey{Val: IntKey(500), Weight: 100000})
	for v := int64(0); v < 64; v++ {
		if v != 500 {
			obs = append(obs, WeightedKey{Val: IntKey(v), Weight: 10})
		}
	}
	d, err := CreateDimension("d_skew", "t", []string{"k"}, obs, 3)
	if err != nil {
		t.Fatalf("CreateDimension: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// The heavy value must be alone in its bin.
	hb := d.Bins[d.BinOf(IntKey(500))]
	if !hb.Unique {
		t.Errorf("heavy hitter shares bin [%v..%v]", hb.Min, hb.Max)
	}
}

// TestBinOfMonotone checks Definition 1: bin_D respects value order.
func TestBinOfMonotone(t *testing.T) {
	prop := func(raw []int64, maxBits uint8) bool {
		if len(raw) == 0 {
			return true
		}
		mb := int(maxBits%10) + 1
		obs := make([]WeightedKey, len(raw))
		for i, v := range raw {
			obs[i] = WeightedKey{Val: IntKey(v % 1000), Weight: 1}
		}
		d, err := CreateDimension("d", "t", []string{"k"}, obs, mb)
		if err != nil {
			return false
		}
		if d.Validate() != nil {
			return false
		}
		sorted := append([]int64(nil), raw...)
		for i := range sorted {
			sorted[i] %= 1000
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		var prev uint64
		for i, v := range sorted {
			b := d.BinOf(IntKey(v))
			if i > 0 && b < prev {
				return false
			}
			prev = b
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestReduceCongruence checks Definition 1 (vii): reducing granularity is
// exactly chopping low bin bits: bin_{D|g}(v) = bin_D(v) >> (bits(D)-g).
// TestBinRangeCoversPredicateValues checks that BinRange returns a bin
// interval covering every value satisfying lo ≤ v ≤ hi.
func TestBinRangeCoversPredicateValues(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]int64, 300)
	for i := range vals {
		vals[i] = rng.Int63n(500)
	}
	d := makeIntDim(t, "d", vals, 4)
	for trial := 0; trial < 200; trial++ {
		lo := rng.Int63n(500)
		hi := lo + rng.Int63n(100)
		lk, hk := IntKey(lo), IntKey(hi)
		bLo, bHi := d.BinRange(&lk, &hk)
		for _, v := range vals {
			if v >= lo && v <= hi {
				b := d.BinOf(IntKey(v))
				if b < bLo || b > bHi {
					t.Fatalf("value %d in [%d,%d] has bin %d outside [%d,%d]", v, lo, hi, b, bLo, bHi)
				}
			}
		}
	}
}

// TestBinRangeOpenEnds checks half-open predicate ranges.
func TestBinRangeOpenEnds(t *testing.T) {
	d := makeIntDim(t, "d", []int64{10, 20, 30, 40}, 2)
	lo := IntKey(25)
	bLo, bHi := d.BinRange(&lo, nil)
	if bHi != uint64(d.NumBins()-1) {
		t.Errorf("open upper end: hi bin %d, want %d", bHi, d.NumBins()-1)
	}
	if bLo != d.BinOf(IntKey(30)) {
		t.Errorf("lo bin %d, want bin of 30 (%d)", bLo, d.BinOf(IntKey(30)))
	}
	hi := IntKey(25)
	bLo, bHi = d.BinRange(nil, &hi)
	if bLo != 0 {
		t.Errorf("open lower end: lo bin %d, want 0", bLo)
	}
	if bHi != d.BinOf(IntKey(20)) {
		t.Errorf("hi bin %d, want bin of 20 (%d)", bHi, d.BinOf(IntKey(20)))
	}
}

// TestCompositeKeyPrefixRange reproduces the paper's D_NATION rewrite: with
// key (n_regionkey, n_nationkey) ordered region-major, an equality on the
// region determines a consecutive bin range.
func TestCompositeKeyPrefixRange(t *testing.T) {
	var obs []WeightedKey
	for region := int64(0); region < 5; region++ {
		for nation := int64(0); nation < 5; nation++ {
			obs = append(obs, WeightedKey{Val: Key(KeyPart{I: region}, KeyPart{I: nation*5 + region}), Weight: 1})
		}
	}
	d, err := CreateDimension("d_nation", "nation", []string{"n_regionkey", "n_nationkey"}, obs, 5)
	if err != nil {
		t.Fatalf("CreateDimension: %v", err)
	}
	if d.NumBins() != 25 || d.Bits() != 5 {
		t.Fatalf("bins=%d bits=%d, want 25/5", d.NumBins(), d.Bits())
	}
	// Region 2 spans bins [10,14]: lo = (2,-inf) approximated by (2, min).
	lo := Key(KeyPart{I: 2}, KeyPart{I: -1 << 62})
	hi := Key(KeyPart{I: 2}, KeyPart{I: 1 << 62})
	bLo, bHi := d.BinRange(&lo, &hi)
	if bLo != 10 || bHi != 14 {
		t.Errorf("region 2 bin range = [%d,%d], want [10,14]", bLo, bHi)
	}
}

// TestKeyValCompare checks lexicographic composite ordering.
func TestKeyValCompare(t *testing.T) {
	cases := []struct {
		a, b KeyVal
		want int
	}{
		{IntKey(1), IntKey(2), -1},
		{IntKey(2), IntKey(2), 0},
		{StrKey("abc"), StrKey("abd"), -1},
		{Key(KeyPart{I: 1}, KeyPart{I: 5}), Key(KeyPart{I: 1}, KeyPart{I: 6}), -1},
		{Key(KeyPart{I: 2}, KeyPart{I: 0}), Key(KeyPart{I: 1}, KeyPart{I: 9}), 1},
		{Key(KeyPart{I: 1}), Key(KeyPart{I: 1}, KeyPart{I: 0}), -1},
	}
	for i, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("case %d: %v vs %v = %d, want %d", i, c.a, c.b, got, c.want)
		}
		if got := c.b.Compare(c.a); got != -c.want {
			t.Errorf("case %d reversed: got %d, want %d", i, got, -c.want)
		}
	}
}

// TestDimensionBits checks the Algorithm 2 (ii) granularity rule.
func TestDimensionBits(t *testing.T) {
	cases := []struct {
		ndv  int64
		cap  int
		want int
	}{
		{25, 13, 5},          // paper's D_NATION
		{20_000_000, 13, 13}, // paper's D_PART at SF100
		{2406, 13, 12},       // o_orderdate NDV (see DESIGN.md on the paper's 13)
		{1, 13, 0},
		{2, 13, 1},
		{8192, 13, 13},
		{8193, 13, 13},
	}
	for _, c := range cases {
		if got := DimensionBits(c.ndv, c.cap); got != c.want {
			t.Errorf("DimensionBits(%d,%d) = %d, want %d", c.ndv, c.cap, got, c.want)
		}
	}
}
