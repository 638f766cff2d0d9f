package core

import (
	"math/rand"
	"slices"
	"testing"
)

// modelSet is the map the planner's bin sets used to be; the bitset must
// behave exactly like it.
type modelSet map[uint64]bool

func checkSet(t *testing.T, label string, n int, got BinSet, want modelSet) {
	t.Helper()
	if got.Count() != len(want) {
		t.Fatalf("%s: %d bins, model has %d", label, got.Count(), len(want))
	}
	for b := uint64(0); b < uint64(n)+130; b++ {
		if got.Has(b) != want[b] {
			t.Fatalf("%s: Has(%d) = %v, model says %v", label, b, got.Has(b), want[b])
		}
	}
}

// selectTable is a one-use BDCC table whose count table holds every group
// key at `avail` bits of a dimension with n bins.
func selectTable(n, avail int) (*BDCCTable, *DimensionUse) {
	u := &DimensionUse{Dim: &Dimension{Name: "d", Bins: make([]Bin, n)}, Mask: 1<<uint(avail) - 1}
	bt := &BDCCTable{Name: "t", Bits: avail, Uses: []*DimensionUse{u}}
	for k := uint64(0); k < 1<<uint(avail); k++ {
		bt.Count = append(bt.Count, CountEntry{Key: k, Count: 1, Offset: int64(k)})
	}
	return bt, u
}

// TestBinSetMatchesMapModel drives the bitset and a map[uint64]bool model
// through the planner's operations — range fill, union by repeated adds,
// AND, popcount and SelectBinSet's shift reduction — for the TPC-H
// dimension sizes (1 bin, D_NATION's 25, D_PART's 8192) and a ragged one.
func TestBinSetMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 25, 100, 8192} {
		random := func() (BinSet, modelSet) {
			s, m := NewBinSet(n), modelSet{}
			for i := rng.Intn(4); i > 0; i-- {
				lo := uint64(rng.Intn(n))
				hi := lo + uint64(rng.Intn(n-int(lo)))
				s.AddRange(lo, hi)
				for b := lo; b <= hi; b++ {
					m[b] = true
				}
			}
			for i := rng.Intn(8); i > 0; i-- {
				b := uint64(rng.Intn(n))
				s.Add(b)
				m[b] = true
			}
			return s, m
		}
		checkSet(t, "empty", n, NewBinSet(n), modelSet{})
		full, fullModel := NewBinSet(n), modelSet{}
		full.AddRange(0, uint64(n-1))
		for b := 0; b < n; b++ {
			fullModel[uint64(b)] = true
		}
		checkSet(t, "full range", n, full, fullModel)
		rounds := 200
		if n > 1000 {
			rounds = 20
		}
		for round := 0; round < rounds; round++ {
			a, am := random()
			b, bm := random()
			checkSet(t, "fill", n, a, am)
			aBefore, bBefore := slices.Clone(a), slices.Clone(b)
			and, andModel := a.And(b), modelSet{}
			for x := range am {
				if bm[x] {
					andModel[x] = true
				}
			}
			checkSet(t, "and", n, and, andModel)
			if !slices.Equal(a, aBefore) || !slices.Equal(b, bBefore) {
				t.Fatalf("And mutated an input (n=%d)", n)
			}
			// The shift reduction, at every count-table granularity of the use.
			dimBits := BitsFor(n)
			for avail := 0; avail <= dimBits; avail++ {
				bt, u := selectTable(n, avail)
				shift := uint(dimBits - avail)
				prefixes := modelSet{}
				for x := range am {
					prefixes[x>>shift] = true
				}
				var want []uint64
				for _, e := range bt.Count {
					if prefixes[e.Key] {
						want = append(want, e.Key)
					}
				}
				var got []uint64
				for _, e := range bt.SelectBinSet(u, a) {
					got = append(got, e.Key)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d avail=%d: SelectBinSet picks groups %v, model %v", n, avail, got, want)
				}
			}
			if !slices.Equal(a, aBefore) {
				t.Fatalf("SelectBinSet mutated its set (n=%d)", n)
			}
		}
	}
	// nil is the planner's "unrestricted" and is never stored; handed to the
	// set operations anyway it is the empty set.
	var none BinSet
	checkSet(t, "nil", 0, none, modelSet{})
	for _, avail := range []int{0, 3} {
		bt, u := selectTable(8, avail)
		if got := bt.SelectBinSet(u, none); len(got) != 0 {
			t.Fatalf("nil set selected %d groups", len(got))
		}
	}
}

// TestKeyBinsExtended checks the index constructor against a map: keys in
// any order, later rows winning on a repeated key, extension leaving the
// extended index untouched, and AddBins over ascending probe keys.
func TestKeyBinsExtended(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	model := map[int64]uint64{}
	var idx *KeyBins
	for round := 0; round < 20; round++ {
		n := rng.Intn(50)
		keys, bins := make([]int64, n), make([]uint64, n)
		for i := range keys {
			keys[i] = int64(rng.Intn(300)) - 100
			bins[i] = uint64(rng.Intn(64))
		}
		var before KeyBins
		if idx != nil {
			before = KeyBins{Keys: slices.Clone(idx.Keys), Bins: slices.Clone(idx.Bins)}
		}
		next := idx.extended(keys, bins)
		if idx != nil && (!slices.Equal(idx.Keys, before.Keys) || !slices.Equal(idx.Bins, before.Bins)) {
			t.Fatalf("round %d: extended modified its receiver", round)
		}
		idx = next
		for i, k := range keys {
			model[k] = bins[i]
		}
		if len(idx.Keys) != len(model) || len(idx.Bins) != len(model) {
			t.Fatalf("round %d: index holds %d keys, model %d", round, len(idx.Keys), len(model))
		}
		for i, k := range idx.Keys {
			if i > 0 && idx.Keys[i-1] >= k {
				t.Fatalf("round %d: keys not strictly ascending at %d", round, i)
			}
			if idx.Bins[i] != model[k] {
				t.Fatalf("round %d: key %d maps to bin %d, model %d", round, k, idx.Bins[i], model[k])
			}
		}
		var probe []int64
		want := NewBinSet(64)
		for k := int64(-120); k < 220; k += int64(1 + rng.Intn(3)) {
			probe = append(probe, k)
			if b, ok := model[k]; ok {
				want.Add(b)
			}
		}
		got := NewBinSet(64)
		idx.AddBins(got, probe)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: AddBins = %v, model %v", round, got, want)
		}
	}
}
