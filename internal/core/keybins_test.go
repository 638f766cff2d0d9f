package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"bdcc/internal/catalog"
	"bdcc/internal/iosim"
	"bdcc/internal/storage"
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

// checkKeyBins holds idx to model: ascending distinct keys, each mapped to
// the model's bin, and AddBins over ascending probe keys.
func checkKeyBins(t *testing.T, label string, rng *rand.Rand, idx *KeyBins, model map[int64]uint64) {
	t.Helper()
	if len(idx.Keys) != len(model) || len(idx.Bins) != len(model) {
		t.Fatalf("%s: index holds %d keys, model %d", label, len(idx.Keys), len(model))
	}
	top := int64(0)
	for i, k := range idx.Keys {
		if i > 0 && idx.Keys[i-1] >= k {
			t.Fatalf("%s: keys not strictly ascending at %d", label, i)
		}
		if idx.Bins[i] != model[k] {
			t.Fatalf("%s: key %d maps to bin %d, model %d", label, k, idx.Bins[i], model[k])
		}
		top = max(top, k)
	}
	var probe []int64
	want := NewBinSet(64)
	for k := int64(-120); k < top+20; k += int64(1 + rng.Intn(3)) {
		probe = append(probe, k)
		if b, ok := model[k]; ok {
			want.Add(b)
		}
	}
	got := NewBinSet(64)
	idx.AddBins(got, probe)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: AddBins = %v, model %v", label, got, want)
	}
}

// sharesArrays reports whether b's keys and bins extend a's in place.
func sharesArrays(a, b *KeyBins) bool {
	return len(a.Keys) > 0 && len(b.Keys) > 0 && &a.Keys[0] == &b.Keys[0] && &a.Bins[0] == &b.Bins[0]
}

// TestKeyBinsExtended checks the index constructor against a map: keys in
// any order, later rows winning on a repeated key, extension leaving the
// extended index untouched, and AddBins over ascending probe keys. Odd rounds
// draw keys from the index's last on: when all lie above it, the first
// extension of an index appends into its arrays' spare capacity, sharing
// them, while a second extension of the same index after one that did
// (every fourth round) and a round reaching down to the last key or below
// copy — and neither writes what the extended index, or its first
// extension, shows.
func TestKeyBinsExtended(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	model := map[int64]uint64{}
	var idx *KeyBins
	top := int64(-100) // above every key of idx
	draw := func(n int, above bool) ([]int64, []uint64) {
		keys, bins := make([]int64, n), make([]uint64, n)
		for i := range keys {
			if keys[i] = int64(rng.Intn(300)) - 100; above {
				keys[i] = top + int64(rng.Intn(200))
			}
			bins[i] = uint64(rng.Intn(64))
		}
		return keys, bins
	}
	clone := func(x *KeyBins) *KeyBins {
		if x == nil {
			return &KeyBins{}
		}
		return &KeyBins{Keys: slices.Clone(x.Keys), Bins: slices.Clone(x.Bins)}
	}
	same := func(a, b *KeyBins) bool { return slices.Equal(a.Keys, b.Keys) && slices.Equal(a.Bins, b.Bins) }
	copies, inPlace := 0, 0
	for round := 0; round < 40; round++ {
		above := round%2 == 1
		keys, bins := draw(1+rng.Intn(50), above)
		before := clone(idx)
		next := idx.extended(keys, bins)
		first := clone(next)
		switch {
		case idx == nil || len(idx.Keys) == 0:
		case slices.Min(keys) > idx.Keys[len(idx.Keys)-1]:
			if len(next.Keys) <= cap(idx.Keys) && !sharesArrays(idx, next) {
				t.Fatalf("round %d: keys above the last did not extend the index in place", round)
			}
			inPlace++
		default:
			if sharesArrays(idx, next) || cap(next.Keys) != len(before.Keys)+len(keys)+(len(before.Keys)+len(keys))/2 {
				t.Fatalf("round %d: keys reaching below the last did not copy with room for half again", round)
			}
			copies++
		}
		if idx != nil && !same(idx, before) {
			t.Fatalf("round %d: extended modified its receiver", round)
		}
		if round%4 == 3 {
			twinModel := maps.Clone(model)
			k2, b2 := draw(1+rng.Intn(20), true)
			for i, k := range k2 {
				twinModel[k] = b2[i]
			}
			twin := idx.extended(k2, b2)
			if sharesArrays(idx, next) && sharesArrays(idx, twin) {
				t.Fatalf("round %d: a second extension of one index shared its arrays", round)
			}
			if !same(idx, before) || !same(next, first) {
				t.Fatalf("round %d: a second extension wrote what the index or its first extension shows", round)
			}
			checkKeyBins(t, fmt.Sprintf("round %d, second extension", round), rng, twin, twinModel)
			if !sharesArrays(idx, twin) {
				copies++
			}
		}
		idx = next
		for i, k := range keys {
			model[k] = bins[i]
			top = max(top, k)
		}
		checkKeyBins(t, fmt.Sprintf("round %d", round), rng, idx, model)
	}
	if inPlace == 0 || copies == 0 {
		t.Fatalf("%d extensions in place, %d copies: both paths must run", inPlace, copies)
	}
	t.Run("while read", keyBinsExtendedWhileRead)
}

// keyBinsExtendedWhileRead extends an index in place while another
// goroutine reads it: the extension writes only past what the index shows,
// so the reader sees the same bins throughout (run it under -race).
func keyBinsExtendedWhileRead(t *testing.T) {
	const n = 2000
	keys, bins := make([]int64, n), make([]uint64, n)
	for i := range keys {
		keys[i], bins[i] = int64(2*i), uint64(i%64)
	}
	parent := (*KeyBins)(nil).extended(keys, bins)
	want := NewBinSet(64)
	parent.AddBins(want, keys)
	done := make(chan struct{})
	defer func() { <-done }()
	go func() {
		defer close(done)
		for range 200 {
			got := NewBinSet(64)
			parent.AddBins(got, keys)
			if !slices.Equal(got, want) {
				t.Error("the index changed under its reader")
				return
			}
		}
	}()
	child := parent
	for r := 0; r < 20; r++ {
		k, b := make([]int64, 10), make([]uint64, 10)
		for i := range k {
			k[i], b[i] = int64(2*n+10*r+i), uint64(63-i)
		}
		next := child.extended(k, b)
		if !sharesArrays(child, next) {
			t.Fatalf("extension %d: ascending keys did not extend in place", r)
		}
		child = next
	}
	if len(parent.Keys) != n || len(child.Keys) != n+200 {
		t.Fatalf("parent holds %d keys, child %d; want %d and %d", len(parent.Keys), len(child.Keys), n, n+200)
	}
}

// compositeDDL has a fact table f that reaches dimensions d_pa (hosted on p)
// and d_region (hosted on d) over a two-column foreign key into p: the hop
// leaving f has no key→bin index, so binding an appended batch of f resolves
// its keys, by value, against the stored form of p and d.
const compositeDDL = `
CREATE TABLE d (dkey INT, region VARCHAR(8), PRIMARY KEY (dkey));
CREATE TABLE p (pa INT, pb INT, p_d INT, PRIMARY KEY (pa, pb),
    CONSTRAINT fk_p_d FOREIGN KEY (p_d) REFERENCES d);
CREATE TABLE f (fkey INT, f_a INT, f_b INT, PRIMARY KEY (fkey),
    CONSTRAINT fk_f_p FOREIGN KEY (f_a, f_b) REFERENCES p);
CREATE INDEX region_idx ON d (region);
CREATE INDEX pa_idx ON p (pa);
CREATE INDEX pd_idx ON p (p_d);
CREATE INDEX fp_idx ON f (f_a, f_b);
`

// pRows returns rows [from, from+n) of p: row i has the key (i/4, i%4) and
// references, nine times in ten, one of d's first two rows.
func pRows(rng *rand.Rand, from, n int) *storage.Table {
	pa, pb, pd := make([]int64, n), make([]int64, n), make([]int64, n)
	for i := range pa {
		pa[i], pb[i], pd[i] = int64((from+i)/4), int64((from+i)%4), rng.Int63n(2)
		if rng.Intn(10) == 0 {
			pd[i] = 2 + rng.Int63n(6)
		}
	}
	return storage.MustNewTable("p", 4096, storage.NewInt64Column("pa", pa), storage.NewInt64Column("pb", pb), storage.NewInt64Column("p_d", pd))
}

// fRows returns rows [from, from+n) of f, each referencing one of p's first
// refs rows.
func fRows(rng *rand.Rand, from, n, refs int) *storage.Table {
	key, fa, fb := make([]int64, n), make([]int64, n), make([]int64, n)
	for i := range key {
		r := rng.Intn(refs)
		key[i], fa[i], fb[i] = int64(from+i), int64(r/4), int64(r%4)
	}
	return storage.MustNewTable("f", 4096, storage.NewInt64Column("fkey", key), storage.NewInt64Column("f_a", fa), storage.NewInt64Column("f_b", fb))
}

// TestBatchBindsOverCompositeKey covers the binder's fallback for a hop
// without a key→bin index: a batch of f, whose uses all leave over the
// two-column fk_f_p, binds by value against p's stored form — the loaded
// clustering, then an un-merged view after p took a batch — exactly as
// BindUses binds its rows over the combined insertion-order tables, with
// relocation on (p's stored form then holds relocated duplicates) and off.
// The appended f equals the from-scratch rebuild, and a batch whose
// composite key p does not hold is rejected with the resolver's error. Every
// table has a design, so the binder reads them all from their clusterings
// and is handed no other table.
func TestBatchBindsOverCompositeKey(t *testing.T) {
	const nD, nP, nF = 8, 400, 2000
	schema := catalog.MustParseDDL(compositeDDL)
	design, err := (&Advisor{Schema: schema}).Design()
	if err != nil {
		t.Fatal(err)
	}
	regions := []string{"east", "north", "south", "west"}
	dk, dr := make([]int64, nD), make([]string, nD)
	for i := range dk {
		dk[i], dr[i] = int64(i), regions[i%len(regions)]
	}
	d := storage.MustNewTable("d", 4096, storage.NewInt64Column("dkey", dk), storage.NewStringColumn("region", dr))
	dev := iosim.Device{PageSize: 4096, SeqBandwidth: 1 << 30, AR: 1024, RandEfficiency: 0.8}
	for _, reloc := range []bool{true, false} {
		opt := BuildOptions{Device: dev, DisableRelocation: !reloc}
		rng := rand.New(rand.NewSource(11))
		p, f := pRows(rng, 0, nP), fRows(rng, 0, nF, nP)
		db, err := (&Builder{Schema: schema, Tables: map[string]*storage.Table{"d": d, "p": p, "f": f}, Options: opt}).Build(design)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range design.Table("f").Uses {
			if u.Path[0] != "fk_f_p" || db.KeyBins(u.Dim, u.Path) != nil {
				t.Fatalf("f's use of %s over %v is not the unindexed composite hop", u.Dim, u.Path)
			}
		}
		if got := db.Tables["p"].RelocatedRows > 0; got != reloc {
			t.Fatalf("relocation %v: p relocated %d rows", reloc, db.Tables["p"].RelocatedRows)
		}
		pBatch, fBatch := pRows(rng, nP, 40), fRows(rng, nF, 300, nP+40)
		combined := map[string]*storage.Table{"d": d}
		for _, c := range []struct{ base, batch *storage.Table }{{p, pBatch}, {f, fBatch}} {
			if combined[c.base.Name], err = storage.Concat(c.base, c.base.Rows(), c.batch); err != nil {
				t.Fatal(err)
			}
		}
		early := fRows(rng, nF, 300, nP)
		got, err := BindBatch(db, schema, nil, "f", early)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BindUses(db, schema, map[string]*storage.Table{"d": d, "p": p, "f": early}, "f", 0)
		if err != nil {
			t.Fatal(err)
		}
		sameUses(t, fmt.Sprintf("relocation %v, over the loaded p", reloc), got, want)

		withP, err := db.AppendRows(schema, nil, "p", pBatch, opt)
		if err != nil {
			t.Fatal(err)
		}
		if withP.Tables["p"].Data.Cols[0].Len() != 0 {
			t.Fatal("p's un-merged form holds values of its own: it is no view")
		}
		if got, err = BindBatch(withP, schema, nil, "f", fBatch); err != nil {
			t.Fatal(err)
		}
		if want, err = BindUses(withP, schema, combined, "f", nF); err != nil {
			t.Fatal(err)
		}
		sameUses(t, fmt.Sprintf("relocation %v, over p's un-merged view", reloc), got, want)

		withF, err := withP.AppendRows(schema, nil, "f", fBatch, opt)
		if err != nil {
			t.Fatal(err)
		}
		reb, err := RebuildWithDesign(db, schema, combined, opt)
		if err != nil {
			t.Fatal(err)
		}
		got2, want2 := withF.Tables["f"], reb.Tables["f"]
		if !slices.Equal(got2.Count, want2.Count) || !slices.Equal(got2.Keys(), want2.Keys()) {
			t.Fatalf("relocation %v: appended f differs from the from-scratch rebuild", reloc)
		}

		dangling := storage.MustNewTable("f", 4096, storage.NewInt64Column("fkey", []int64{nF + 300, nF + 301}),
			storage.NewInt64Column("f_a", []int64{0, nP}), storage.NewInt64Column("f_b", []int64{0, 0}))
		_, err = withP.AppendRows(schema, nil, "f", dangling, opt)
		if err == nil || !strings.Contains(err.Error(), "foreign key fk_f_p: row 1 of f has no match in p") {
			t.Fatalf("relocation %v: a dangling composite key: %v", reloc, err)
		}
	}
}

// sameUses compares two bindings of one table's uses.
func sameUses(t *testing.T, label string, got, want []UseBinding) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d uses, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Dim != want[i].Dim || !slices.Equal(got[i].Path, want[i].Path) || !slices.Equal(got[i].BinNos, want[i].BinNos) {
			t.Fatalf("%s: use %d (%s over %v) binds differently", label, i, want[i].Dim.Name, want[i].Path)
		}
	}
}
