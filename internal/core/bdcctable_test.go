package core

import (
	"math/rand"
	"testing"

	"bdcc/internal/iosim"
	"bdcc/internal/storage"
)

// buildTestTable creates a storage table of n rows with a dimension key
// column "k" uniform in [0, domain) and a payload column, plus a dimension
// over it, and BDCC-clusters the table on that single dimension.
func buildTestTable(t *testing.T, n int, domain int64, maxBits int, opt BuildOptions) (*BDCCTable, *Dimension, []int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	k := make([]int64, n)
	payload := make([]int64, n)
	for i := range k {
		k[i] = rng.Int63n(domain)
		payload[i] = int64(i)
	}
	tab := storage.MustNewTable("t", 32<<10,
		storage.NewInt64Column("k", k),
		storage.NewInt64Column("payload", payload),
	)
	obs := make([]WeightedKey, n)
	for i, v := range k {
		obs[i] = WeightedKey{Val: IntKey(v), Weight: 1}
	}
	dim, err := CreateDimension("d_k", "t", []string{"k"}, obs, maxBits)
	if err != nil {
		t.Fatalf("CreateDimension: %v", err)
	}
	bins := make([]uint64, n)
	for i, v := range k {
		bins[i] = dim.BinOf(IntKey(v))
	}
	bt, err := BuildBDCCTable("t", tab, []UseBinding{{Dim: dim, BinNos: bins}}, opt)
	if err != nil {
		t.Fatalf("BuildBDCCTable: %v", err)
	}
	if err := bt.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return bt, dim, k
}

// TestBuildSortsOnBDCC checks Definition 4: the stored table is sorted on
// _bdcc_, i.e. on the dimension bin of k for a single-use table.
func TestBuildSortsOnBDCC(t *testing.T) {
	bt, dim, _ := buildTestTable(t, 5000, 1000, 6, BuildOptions{DisableRelocation: true})
	kc := bt.Data.MustColumn("k").Values()
	var prev uint64
	for i, v := range kc.I64 {
		b := dim.BinOf(IntKey(v))
		if i > 0 && b < prev {
			t.Fatalf("row %d: bin %d after bin %d — not sorted on _bdcc_", i, b, prev)
		}
		prev = b
	}
}

// TestBuildPreservesMultiset checks the clustering is a permutation.
func TestBuildPreservesMultiset(t *testing.T) {
	bt, _, orig := buildTestTable(t, 3000, 500, 5, BuildOptions{DisableRelocation: true})
	count := make(map[int64]int)
	for _, v := range orig {
		count[v]++
	}
	for _, v := range bt.Data.MustColumn("k").Values().I64 {
		count[v]--
	}
	for v, c := range count {
		if c != 0 {
			t.Fatalf("value %d count off by %d after clustering", v, c)
		}
	}
}

// TestCountTableInvariants checks T_COUNT: ordered keys, counts summing to
// the row count, offsets delimiting consecutive runs.
func TestCountTableInvariants(t *testing.T) {
	bt, _, _ := buildTestTable(t, 8000, 256, 8, BuildOptions{DisableRelocation: true})
	var sum int64
	next := int64(0)
	for i, e := range bt.Count {
		if e.Offset != next {
			t.Fatalf("entry %d offset %d, want %d", i, e.Offset, next)
		}
		next += e.Count
		sum += e.Count
	}
	if sum != bt.Rows() {
		t.Fatalf("count sums to %d, want %d", sum, bt.Rows())
	}
}

// TestAlgorithm1LineitemGranularity reproduces the paper's worked example:
// "Given that the highest density column l_comment has 550000 pages (using
// 32KB), Algorithm 1 chose to cluster LINEITEM using granularity
// ⌈log₂ 550000⌉ = 20 bits". We scale the byte geometry down by 2¹⁰ (pages of
// 4 KB, 537 pages ≈ 550000/1024) keeping the page/AR ratio, so the chooser
// must land at ⌈log₂ 537⌉ = 10 bits on a uniform key.
func TestAlgorithm1LineitemGranularity(t *testing.T) {
	const pages = 537
	dev := iosim.Device{PageSize: 4096, SeqBandwidth: 1 << 30, AR: 4096, RandEfficiency: 0.8}
	// 512 rows per 4 KB page of an 8-byte column: n = 512*pages rows, so
	// groups at the expected granularity hold hundreds of rows and binomial
	// noise is negligible (as it is for the paper's SF100 LINEITEM).
	n := 512 * pages
	rng := rand.New(rand.NewSource(1))
	k := make([]int64, n)
	for i := range k {
		k[i] = rng.Int63n(1 << 13)
	}
	tab := storage.MustNewTable("li", dev.PageSize, storage.NewInt64Column("k", k))
	obs := make([]WeightedKey, n)
	for i, v := range k {
		obs[i] = WeightedKey{Val: IntKey(v), Weight: 1}
	}
	dim, err := CreateDimension("d", "li", []string{"k"}, obs, 13)
	if err != nil {
		t.Fatalf("CreateDimension: %v", err)
	}
	bins := make([]uint64, n)
	for i, v := range k {
		bins[i] = dim.BinOf(IntKey(v))
	}
	bt, err := BuildBDCCTable("li", tab, []UseBinding{{Dim: dim, BinNos: bins}},
		BuildOptions{Device: dev, DisableRelocation: true})
	if err != nil {
		t.Fatalf("BuildBDCCTable: %v", err)
	}
	if want := BitsFor(pages); bt.Bits != want {
		t.Errorf("chosen granularity = %d bits, want ⌈log₂ %d⌉ = %d", bt.Bits, pages, want)
	}
}

// TestAlgorithm1TinyTableFullGranularity checks the NATION behaviour: a
// table far below AR keeps full granularity (all 5 bits in the paper).
func TestAlgorithm1TinyTableFullGranularity(t *testing.T) {
	bt, dim, _ := buildTestTable(t, 25, 25, 5, BuildOptions{})
	if bt.Bits != bt.FullBits {
		t.Errorf("tiny table clustered at %d of %d bits, want full granularity", bt.Bits, bt.FullBits)
	}
	if bt.FullBits != dim.Bits() {
		t.Errorf("full bits %d != dimension bits %d", bt.FullBits, dim.Bits())
	}
}

// TestSelectBinsMatchesFilter checks the pushdown rewrite: scanning only the
// count groups of a bin range must return exactly the rows a full filter
// would (boundary bins may add rows, but never lose any; with unique bins
// the match is exact).
func TestSelectBinsMatchesFilter(t *testing.T) {
	bt, dim, _ := buildTestTable(t, 4000, 64, 6, BuildOptions{DisableRelocation: true})
	kc := bt.Data.MustColumn("k").Values()
	for lo := int64(0); lo < 64; lo += 7 {
		hi := lo + 10
		lk, hk := IntKey(lo), IntKey(hi)
		bLo, bHi := dim.BinRange(&lk, &hk)
		entries := bt.SelectBins(bt.Uses[0], bLo, bHi)
		got := make(map[int]bool)
		for _, r := range EntriesRanges(entries) {
			for i := r.Start; i < r.End; i++ {
				got[i] = true
			}
		}
		for i, v := range kc.I64 {
			if v >= lo && v <= hi && !got[i] {
				t.Fatalf("row %d (k=%d in [%d,%d]) not covered by bin selection", i, v, lo, hi)
			}
		}
	}
}

// TestScatterPlanIsPermutation checks that a scatter plan's ranges cover
// every row exactly once and that groups are emitted in ascending group-id
// order.
func TestScatterPlanIsPermutation(t *testing.T) {
	bt, _, _ := buildTestTable(t, 6000, 512, 6, BuildOptions{DisableRelocation: true})
	g := Ones(bt.Uses[0].Mask)
	for gb := 1; gb <= g; gb++ {
		plan, err := bt.ScatterPlan([]int{0}, []int{gb}, nil)
		if err != nil {
			t.Fatalf("ScatterPlan(%d bits): %v", gb, err)
		}
		seen := make([]bool, bt.Data.Rows())
		var prev uint64
		for i, grp := range plan {
			if i > 0 && grp.GroupID <= prev {
				t.Fatalf("group ids not ascending at %d", i)
			}
			prev = grp.GroupID
			for _, r := range grp.Ranges {
				for j := r.Start; j < r.End; j++ {
					if seen[j] {
						t.Fatalf("row %d emitted twice", j)
					}
					seen[j] = true
				}
			}
		}
		n := 0
		for _, s := range seen {
			if s {
				n++
			}
		}
		if n != bt.Data.Rows() {
			t.Fatalf("scatter plan covers %d of %d rows", n, bt.Data.Rows())
		}
	}
}

// TestScatterPlanMajorOrder checks that the emitted stream is ordered by the
// requested dimension's bins — the "any major-minor order" property of the
// BDCC scan, on a two-dimensional table.
func TestScatterPlanMajorOrder(t *testing.T) {
	n := 4000
	rng := rand.New(rand.NewSource(5))
	a := make([]int64, n)
	b := make([]int64, n)
	for i := range a {
		a[i] = rng.Int63n(64)
		b[i] = rng.Int63n(64)
	}
	tab := storage.MustNewTable("t", 32<<10,
		storage.NewInt64Column("a", a), storage.NewInt64Column("b", b))
	mk := func(name string, vals []int64) (*Dimension, []uint64) {
		obs := make([]WeightedKey, n)
		for i, v := range vals {
			obs[i] = WeightedKey{Val: IntKey(v), Weight: 1}
		}
		d, err := CreateDimension(name, "t", []string{name}, obs, 6)
		if err != nil {
			t.Fatalf("CreateDimension: %v", err)
		}
		bins := make([]uint64, n)
		for i, v := range vals {
			bins[i] = d.BinOf(IntKey(v))
		}
		return d, bins
	}
	da, ba := mk("a", a)
	db, bb := mk("b", b)
	bt, err := BuildBDCCTable("t", tab,
		[]UseBinding{{Dim: da, BinNos: ba}, {Dim: db, BinNos: bb}},
		BuildOptions{DisableRelocation: true})
	if err != nil {
		t.Fatalf("BuildBDCCTable: %v", err)
	}
	// Retrieve in major order of dimension b (use index 1).
	gb := Ones(bt.Uses[1].Mask)
	plan, err := bt.ScatterPlan([]int{1}, []int{gb}, nil)
	if err != nil {
		t.Fatalf("ScatterPlan: %v", err)
	}
	bc := bt.Data.MustColumn("b").Values()
	var prevBin uint64
	first := true
	for _, grp := range plan {
		for _, r := range grp.Ranges {
			for i := r.Start; i < r.End; i++ {
				bin := db.BinOf(IntKey(bc.I64[i])) >> uint(db.Bits()-gb)
				if !first && bin < prevBin {
					t.Fatalf("stream not in dimension-b major order at row %d", i)
				}
				if bin != grp.GroupID {
					t.Fatalf("row %d: bin prefix %d but group id %d", i, bin, grp.GroupID)
				}
				prevBin, first = bin, false
			}
		}
	}
}

// TestRelocationSmallGroups checks the post-load relocation: small groups
// move to a consecutive area at the end, the count table stays consistent,
// and no tuples are lost or duplicated in the scanned extents.
func TestRelocationSmallGroups(t *testing.T) {
	// Zipf-ish skew: a few huge bins plus a long tail of tiny ones.
	n := 20000
	rng := rand.New(rand.NewSource(13))
	k := make([]int64, n)
	for i := range k {
		if rng.Intn(100) < 90 {
			k[i] = rng.Int63n(4) // 90% in 4 values
		} else {
			k[i] = 4 + rng.Int63n(252)
		}
	}
	tab := storage.MustNewTable("t", 32<<10, storage.NewInt64Column("k", k))
	obs := make([]WeightedKey, n)
	for i, v := range k {
		obs[i] = WeightedKey{Val: IntKey(v), Weight: 1}
	}
	dim, err := CreateDimension("d", "t", []string{"k"}, obs, 8)
	if err != nil {
		t.Fatalf("CreateDimension: %v", err)
	}
	bins := make([]uint64, n)
	for i, v := range k {
		bins[i] = dim.BinOf(IntKey(v))
	}
	dev := iosim.Device{PageSize: 4096, SeqBandwidth: 1 << 30, AR: 4096, RandEfficiency: 0.8}
	bt, err := BuildBDCCTable("t", tab, []UseBinding{{Dim: dim, BinNos: bins}},
		BuildOptions{Device: dev})
	if err != nil {
		t.Fatalf("BuildBDCCTable: %v", err)
	}
	if err := bt.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if bt.RelocatedRows == 0 {
		t.Skip("no relocation triggered for this distribution")
	}
	if bt.Data.Rows() != int(bt.Rows()+bt.RelocatedRows) {
		t.Fatalf("data rows %d, want base %d + relocated %d", bt.Data.Rows(), bt.Rows(), bt.RelocatedRows)
	}
	// Scanning all count entries yields exactly one copy of every tuple.
	total := int64(0)
	seen := make(map[int64]int64)
	kc := bt.Data.MustColumn("k").Values()
	for _, e := range bt.Count {
		for i := e.Offset; i < e.Offset+e.Count; i++ {
			seen[kc.I64[i]]++
		}
		total += e.Count
		if e.Relocated && e.Offset < bt.Rows() {
			t.Fatalf("relocated entry points into the base area (offset %d)", e.Offset)
		}
	}
	if total != bt.Rows() {
		t.Fatalf("count entries cover %d tuples, want %d", total, bt.Rows())
	}
	want := make(map[int64]int64)
	for _, v := range k {
		want[v]++
	}
	for v, c := range want {
		if seen[v] != c {
			t.Fatalf("value %d seen %d times via count table, want %d", v, seen[v], c)
		}
	}
}

// TestMajorMinorBuild checks the hand-tuned ordering variant used by the
// paper's "Other Orderings" comparison.
func TestMajorMinorBuild(t *testing.T) {
	bt, _, _ := buildTestTable(t, 2000, 128, 7, BuildOptions{MajorMinor: true, DisableRelocation: true})
	// Single use: major-minor equals round-robin; masks must cover all bits.
	if err := bt.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupStatsHistogram checks the log₂ histogram bookkeeping.
func TestGroupStatsHistogram(t *testing.T) {
	keys := []uint64{0, 0, 0, 1, 1, 2, 3, 3, 3, 3} // at 2 bits: groups 3,2,1,4
	stats := (&BDCCTable{SortedKeys: keys, FullBits: 2}).GroupStats()
	gs := stats[1] // granularity 2
	if gs.NumGroups != 4 || gs.TotalTuples != 10 {
		t.Fatalf("groups=%d tuples=%d, want 4/10", gs.NumGroups, gs.TotalTuples)
	}
	// Buckets: size 1 → bucket 1; size 2,3 → bucket 2; size 4 → bucket 3.
	if gs.Groups[1] != 1 || gs.Groups[2] != 2 || gs.Groups[3] != 1 {
		t.Fatalf("bucket counts = %v", gs.Groups)
	}
	if got := TuplesInLargeGroups(keys, 2, 2, 3); got != 7 {
		t.Fatalf("tuples in groups ≥3 = %d, want 7", got)
	}
	if got := TuplesInLargeGroups(keys, 2, 1, 5); got != 10 {
		t.Fatalf("at granularity 1 (groups 5,5): tuples ≥5 = %d, want 10", got)
	}
}
