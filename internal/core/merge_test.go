package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bdcc/internal/iosim"
	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// mergeFixture builds a base table clustered on a single local dimension whose
// bins were cut over the base data only, plus an un-clustered delta whose keys
// partly fall outside the observed domain (BinOf clamps those to the nearest
// bin, the production drift case). Payloads number rows globally so any lost,
// duplicated or misplaced row is visible.
func mergeFixture(t testing.TB, nBase, nDelta int, seed int64) (*Dimension, *storage.Table, *storage.Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mk := func(n, off int, outOfRange bool) *storage.Table {
		k := make([]int64, n)
		pay := make([]int64, n)
		for i := range k {
			k[i] = rng.Int63n(256)
			if outOfRange && rng.Intn(4) == 0 {
				k[i] = 300 + rng.Int63n(50)
			}
			pay[i] = int64(off + i)
		}
		return storage.MustNewTable("t", 4<<10,
			storage.NewInt64Column("k", k), storage.NewInt64Column("payload", pay))
	}
	baseTab := mk(nBase, 0, false)
	deltaTab := mk(nDelta, nBase, true)
	obs := make([]WeightedKey, nBase)
	for i, v := range baseTab.MustColumn("k").Values().I64 {
		obs[i] = WeightedKey{Val: IntKey(v), Weight: 1}
	}
	dim, err := CreateDimension("d_k", "t", []string{"k"}, obs, 6)
	if err != nil {
		t.Fatalf("CreateDimension: %v", err)
	}
	return dim, baseTab, deltaTab
}

func binsOf(dim *Dimension, tab *storage.Table, from int) []uint64 {
	keys := tab.MustColumn("k").Values().I64[from:]
	bins := make([]uint64, len(keys))
	for i, v := range keys {
		bins[i] = dim.BinOf(IntKey(v))
	}
	return bins
}

func sliceRows(t testing.TB, tab *storage.Table, lo, hi int) *storage.Table {
	t.Helper()
	cols := make([]*storage.Column, len(tab.Cols))
	for i, c := range tab.Cols {
		cols[i] = storage.NewInt64Column(c.Name, c.Values().I64[lo:hi])
	}
	return storage.MustNewTable(tab.Name, tab.PageSize, cols...)
}

// readColumn returns column ci of tab as a scan reads it.
func readColumn(tab *storage.Table, ci int) *vector.Vector {
	r := storage.NewReader(tab, []int{ci}, nil, nil)
	b := vector.NewBatch(r.Kinds())
	out := &vector.Vector{Kind: tab.Cols[ci].Kind}
	for r.Next(b) {
		out.AppendVector(b.Cols[0])
	}
	return out
}

// readInt64 returns the named int64 column of tab as a scan reads it.
func readInt64(t *testing.T, tab *storage.Table, name string) []int64 {
	t.Helper()
	return readColumn(tab, tab.ColumnIndex(name)).I64
}

func sameBDCCTable(t *testing.T, got, want *BDCCTable) {
	t.Helper()
	if got.Bits != want.Bits || got.FullBits != want.FullBits {
		t.Fatalf("granularity %d/%d, want %d/%d", got.Bits, got.FullBits, want.Bits, want.FullBits)
	}
	if got.Rows() != want.Rows() || got.RelocatedRows != want.RelocatedRows {
		t.Fatalf("rows %d+%d relocated, want %d+%d", got.Rows(), got.RelocatedRows, want.Rows(), want.RelocatedRows)
	}
	gotKeys, wantKeys := got.Keys(), want.Keys()
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("%d sorted keys, want %d", len(gotKeys), len(wantKeys))
	}
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("sorted key %d = %#x, want %#x", i, gotKeys[i], wantKeys[i])
		}
	}
	if len(got.Count) != len(want.Count) {
		t.Fatalf("%d count entries, want %d", len(got.Count), len(want.Count))
	}
	for i, w := range want.Count {
		if got.Count[i] != w {
			t.Fatalf("count entry %d = %+v, want %+v", i, got.Count[i], w)
		}
	}
	if got.Data.Rows() != want.Data.Rows() {
		t.Fatalf("data rows %d, want %d", got.Data.Rows(), want.Data.Rows())
	}
	for _, name := range []string{"k", "payload"} {
		g, w := readInt64(t, got.Data, name), readInt64(t, want.Data, name)
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s[%d] = %d, want %d", name, i, g[i], w[i])
			}
		}
	}
}

// TestMergeMatchesFrozenRebuild pins the incremental path against the
// independent reference: splicing delta batches into the retained clustering
// (binary merge + count arithmetic) must produce, bit for bit, the same table
// as re-running Algorithm 1 from scratch over base-then-delta insertion order
// with the design frozen (same dimension, same granularity). Covered with
// relocation on (fresh decisions over the merged table) and off, and with the
// delta split across multiple merge calls.
func TestMergeMatchesFrozenRebuild(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opt     BuildOptions
		batches int
	}{
		{"one-batch-relocation", BuildOptions{}, 1},
		{"three-batches", BuildOptions{DisableRelocation: true}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nBase, nDelta := 6000, 900
			dim, baseTab, deltaTab := mergeFixture(t, nBase, nDelta, 7)
			base, err := BuildBDCCTable("t", baseTab,
				[]UseBinding{{Dim: dim, BinNos: binsOf(dim, baseTab, 0)}}, tc.opt)
			if err != nil {
				t.Fatalf("build base: %v", err)
			}
			cur := base
			for b := 0; b < tc.batches; b++ {
				lo, hi := b*nDelta/tc.batches, (b+1)*nDelta/tc.batches
				batch := sliceRows(t, deltaTab, lo, hi)
				cur, err = MergeBDCCTable(cur, batch,
					[]UseBinding{{Dim: dim, Path: nil, BinNos: binsOf(dim, batch, 0)}}, tc.opt)
				if err != nil {
					t.Fatalf("merge batch %d: %v", b, err)
				}
				if err := cur.Validate(); err != nil {
					t.Fatalf("after batch %d: %v", b, err)
				}
			}
			concat, err := storage.Concat(baseTab, baseTab.Rows(), deltaTab)
			if err != nil {
				t.Fatalf("concat: %v", err)
			}
			refOpt := tc.opt
			refOpt.ForceBits = base.Bits
			ref, err := BuildBDCCTable("t", concat,
				[]UseBinding{{Dim: dim, BinNos: binsOf(dim, concat, 0)}}, refOpt)
			if err != nil {
				t.Fatalf("frozen rebuild: %v", err)
			}
			sameBDCCTable(t, cur, ref)
		})
	}
}

// TestRebinDeterminismUnderArrivalOrder checks the property that makes
// incremental maintenance sound: a row's cell is a pure function of the row,
// so the same delta rows produce the same cells — identical sorted keys and
// count table, and identical per-cell row multisets — no matter the order
// they arrive in.
func TestRebinDeterminismUnderArrivalOrder(t *testing.T) {
	nBase, nDelta := 4000, 600
	dim, baseTab, deltaTab := mergeFixture(t, nBase, nDelta, 21)
	build := func() *BDCCTable {
		base, err := BuildBDCCTable("t", baseTab,
			[]UseBinding{{Dim: dim, BinNos: binsOf(dim, baseTab, 0)}}, BuildOptions{DisableRelocation: true})
		if err != nil {
			t.Fatalf("build base: %v", err)
		}
		return base
	}
	merge := func(base *BDCCTable, delta *storage.Table) *BDCCTable {
		out, err := MergeBDCCTable(base, delta,
			[]UseBinding{{Dim: dim, BinNos: binsOf(dim, delta, 0)}}, BuildOptions{DisableRelocation: true})
		if err != nil {
			t.Fatalf("merge: %v", err)
		}
		return out
	}
	inOrder := merge(build(), deltaTab)
	shuffle := make([]int32, nDelta)
	for i := range shuffle {
		shuffle[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(nDelta, func(i, j int) { shuffle[i], shuffle[j] = shuffle[j], shuffle[i] })
	shuffled, err := deltaTab.Permute(shuffle)
	if err != nil {
		t.Fatalf("shuffle: %v", err)
	}
	// Half the shuffled rows in one batch, half in a second.
	reordered := merge(merge(build(), sliceRows(t, shuffled, 0, nDelta/2)), sliceRows(t, shuffled, nDelta/2, nDelta))

	inKeys, reKeys := inOrder.Keys(), reordered.Keys()
	for i := range inKeys {
		if inKeys[i] != reKeys[i] {
			t.Fatalf("sorted key %d differs under arrival order: %#x vs %#x", i, inKeys[i], reKeys[i])
		}
	}
	if len(inOrder.Count) != len(reordered.Count) {
		t.Fatalf("%d vs %d count entries under arrival order", len(inOrder.Count), len(reordered.Count))
	}
	payA := readInt64(t, inOrder.Data, "payload")
	payB := readInt64(t, reordered.Data, "payload")
	for i, e := range inOrder.Count {
		if reordered.Count[i] != e {
			t.Fatalf("count entry %d: %+v vs %+v under arrival order", i, e, reordered.Count[i])
		}
		cell := map[int64]int{}
		for r := e.Offset; r < e.Offset+e.Count; r++ {
			cell[payA[r]]++
			cell[payB[r]]--
		}
		for p, c := range cell {
			if c != 0 {
				t.Fatalf("cell %#x: row payload %d off by %d under arrival order", e.Key, p, c)
			}
		}
	}
}

// TestMergeCountTableConsistency brute-force recounts every cell after
// batched merges: entries must match the key population at the count-table
// granularity, and the merged key order must be nondecreasing.
func TestMergeCountTableConsistency(t *testing.T) {
	dim, baseTab, deltaTab := mergeFixture(t, 5000, 750, 11)
	base, err := BuildBDCCTable("t", baseTab,
		[]UseBinding{{Dim: dim, BinNos: binsOf(dim, baseTab, 0)}}, BuildOptions{})
	if err != nil {
		t.Fatalf("build base: %v", err)
	}
	cur := base
	for b := 0; b < 5; b++ {
		lo, hi := b*150, (b+1)*150
		batch := sliceRows(t, deltaTab, lo, hi)
		cur, err = MergeBDCCTable(cur, batch,
			[]UseBinding{{Dim: dim, BinNos: binsOf(dim, batch, 0)}}, BuildOptions{})
		if err != nil {
			t.Fatalf("merge batch %d: %v", b, err)
		}
	}
	if err := cur.Validate(); err != nil {
		t.Fatal(err)
	}
	shift := uint(cur.FullBits - cur.Bits)
	want := map[uint64]int64{}
	keys := cur.Keys()
	for i, k := range keys {
		if i > 0 && k < keys[i-1] {
			t.Fatalf("merged keys decrease at %d", i)
		}
		want[k>>shift]++
	}
	if len(want) != len(cur.Count) {
		t.Fatalf("%d populated cells, %d count entries", len(want), len(cur.Count))
	}
	for _, e := range cur.Count {
		if want[e.Key] != e.Count {
			t.Fatalf("cell %#x counts %d, population is %d", e.Key, e.Count, want[e.Key])
		}
	}
}

// spliceTable builds rows of (k, payload, f, s): an int64 clustering key, a
// globally numbered payload, a float and a string whose length varies with
// the payload — so the string column's modeled width, and with it the page
// geometry and the relocation threshold, moves when rows are added.
func spliceTable(keys []int64, off int) *storage.Table {
	pay := make([]int64, len(keys))
	f := make([]float64, len(keys))
	s := make([]string, len(keys))
	for i := range keys {
		pay[i] = int64(off + i)
		f[i] = float64((off+i)%97) / 7
		s[i] = strings.Repeat(string(rune('a'+(off+i)%23)), 8+(off+i)%40)
	}
	return storage.MustNewTable("t", 4<<10,
		storage.NewInt64Column("k", keys), storage.NewInt64Column("payload", pay),
		storage.NewFloat64Column("f", f), storage.NewStringColumn("s", s))
}

// refMergeConcatPermute is the splice as it was before it became one gather:
// concatenate, permute into the merged order, re-aggregate the count table
// from the merged keys, and relocate by copying row ranges once more — three
// table copies, kept as the reference the one-pass splice is held to.
func refMergeConcatPermute(t *testing.T, base *BDCCTable, delta *storage.Table, uses []UseBinding, opt BuildOptions) *BDCCTable {
	t.Helper()
	n, k := int(base.baseRows), delta.Rows()
	dkeys, err := deltaKeys(base, uses)
	if err != nil {
		t.Fatal(err)
	}
	deltaPerm := storage.SortPerm(dkeys)
	concat, err := storage.Concat(base.Data, n, delta)
	if err != nil {
		t.Fatal(err)
	}
	var perm []int32
	var mergedKeys []uint64
	baseKeys := base.Keys()
	for bi, dj := 0, 0; bi < n || dj < k; {
		if bi < n && (dj >= k || baseKeys[bi] <= dkeys[deltaPerm[dj]]) {
			mergedKeys = append(mergedKeys, baseKeys[bi])
			perm = append(perm, int32(bi))
			bi++
		} else {
			mergedKeys = append(mergedKeys, dkeys[deltaPerm[dj]])
			perm = append(perm, int32(n)+deltaPerm[dj])
			dj++
		}
	}
	merged, err := concat.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	out := &BDCCTable{Name: base.Name, Data: merged, Uses: base.Uses, Bits: base.Bits, FullBits: base.FullBits,
		SortedKeys: mergedKeys, baseRows: int64(n + k)}
	shift := uint(base.FullBits - base.Bits)
	for i := 0; i < n+k; {
		j := i
		for j < n+k && mergedKeys[j]>>shift == mergedKeys[i]>>shift {
			j++
		}
		out.Count = append(out.Count, CountEntry{Key: mergedKeys[i] >> shift, Count: int64(j - i), Offset: int64(i)})
		i = j
	}
	if !opt.DisableRelocation {
		dev := opt.Device
		if dev.PageSize == 0 {
			dev = iosim.PaperSSD()
		}
		if small := out.relocateSmallGroups(efficientRows(merged.DensestColumn().Width(), dev)); small != nil {
			if out.Data, err = out.Data.AppendRows(small); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// sameStoredTable compares two stored tables value for value, and their page
// geometry and zonemaps through what a scan can observe of them.
func sameStoredTable(t *testing.T, got, want *storage.Table) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Compressed() != want.Compressed() {
		t.Fatalf("%d rows (compressed %v), want %d (%v)", got.Rows(), got.Compressed(), want.Rows(), want.Compressed())
	}
	all := make([]int, len(want.Cols))
	for i, w := range want.Cols {
		all[i] = i
		g := got.Cols[i]
		if g.Name != w.Name || g.Kind != w.Kind || g.Width() != w.Width() || got.Pages(g) != want.Pages(w) {
			t.Fatalf("column %d: %s %s width %v in %d pages, want %s %s width %v in %d", i,
				g.Kind, g.Name, g.Width(), got.Pages(g), w.Kind, w.Name, w.Width(), want.Pages(w))
		}
		// What a scan reads of got, and the arrays its Materialized form gathers.
		rg, rw := readColumn(got, i), readColumn(want, i)
		if !slices.Equal(rg.I64, rw.I64) || !slices.Equal(rg.Str, rw.Str) ||
			!slices.EqualFunc(rg.F64, rw.F64, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("column %s reads differently", w.Name)
		}
		gv, wv := got.Materialized().Cols[i].Values(), w.Values()
		if !slices.Equal(gv.I64, wv.I64) || !slices.Equal(gv.Str, wv.Str) ||
			!slices.EqualFunc(gv.F64, wv.F64, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("column %s differs", w.Name)
		}
	}
	ivs := map[string][]storage.Interval{
		"k":       {{Lo: storage.Bound{Set: true, I: 40}, Hi: storage.Bound{Set: true, I: 44}}, {Lo: storage.Bound{Set: true, I: 250}}},
		"payload": {{Hi: storage.Bound{Set: true, I: 900}}, {Lo: storage.Bound{Set: true, I: int64(want.Rows()) - 300}}},
		"f":       {{Lo: storage.Bound{Set: true}, Hi: storage.Bound{Set: true}}}, // no zones: every page kept
		"s":       {{Lo: storage.Bound{Set: true, S: "v"}}, {Lo: storage.Bound{Set: true, S: "c"}, Hi: storage.Bound{Set: true, S: "cz"}}},
	}
	for name, list := range ivs {
		for _, iv := range list {
			if g, w := got.PruneZonemap(name, iv, nil), want.PruneZonemap(name, iv, nil); !slices.Equal(g, w) {
				t.Fatalf("zonemap of %s prunes %+v to %v, want %v", name, iv, g, w)
			}
		}
	}
	gr, gp, gb := got.ReadStats(all, storage.FullRange(got.Rows()))
	wr, wp, wb := want.ReadStats(all, storage.FullRange(want.Rows()))
	if gr != wr || gp != wp || gb != wb {
		t.Fatalf("full read is %d runs / %d pages / %d bytes, want %d / %d / %d", gr, gp, gb, wr, wp, wb)
	}
}

// TestSpliceMatchesConcatPermute holds the one-gather MergeBDCCTable to the
// Concat + Permute + AppendRows reference: same columns, same observable
// zonemaps and page geometry, same count table with offsets and relocation
// flags, same retained keys and statistics — over an ordinary batch, an empty
// one, one landing only in cells the base never populated, one that only ties
// with base keys, with and without a relocation area, over raw and
// compressed bases, and chained so a spliced table is spliced again.
func TestSpliceMatchesConcatPermute(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	obs := make([]WeightedKey, 256)
	for i := range obs {
		obs[i] = WeightedKey{Val: IntKey(int64(i)), Weight: 1}
	}
	dim, err := CreateDimension("d_k", "t", []string{"k"}, obs, 6)
	if err != nil {
		t.Fatal(err)
	}
	uses := func(tab *storage.Table) []UseBinding {
		return []UseBinding{{Dim: dim, BinNos: binsOf(dim, tab, 0)}}
	}
	draw := func(n int, f func() int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = f()
		}
		return out
	}
	// Most base rows sit in four fat cells, the rest are spread thin over the
	// lower half of the domain: the thin cells are what relocation copies.
	const nBase = 24000
	baseKeys := draw(nBase, func() int64 {
		if rng.Intn(8) > 0 {
			return int64(4 * rng.Intn(4))
		}
		return rng.Int63n(128)
	})
	relocated := false
	for _, tc := range []struct {
		name     string
		batches  [][]int64
		compress bool
		opt      BuildOptions
	}{
		{"random", [][]int64{draw(700, func() int64 { return rng.Int63n(300) })}, false, BuildOptions{}},
		{"random-compressed-base", [][]int64{draw(700, func() int64 { return rng.Int63n(300) })}, true, BuildOptions{}},
		{"empty-batch", [][]int64{nil}, false, BuildOptions{}},
		{"all-new-cells", [][]int64{draw(300, func() int64 { return 128 + rng.Int63n(128) })}, true, BuildOptions{}},
		{"ties-only", [][]int64{draw(500, func() int64 { return int64(4 * rng.Intn(4)) })}, false, BuildOptions{}},
		{"no-relocation", [][]int64{draw(700, func() int64 { return rng.Int63n(300) })}, true, BuildOptions{DisableRelocation: true}},
		{"chained", [][]int64{draw(200, func() int64 { return rng.Int63n(256) }), nil, draw(400, func() int64 { return rng.Int63n(64) })}, false, BuildOptions{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseTab := spliceTable(baseKeys, 0)
			if tc.compress {
				baseTab.Compress()
			}
			cur, err := BuildBDCCTable("t", baseTab, uses(baseTab), tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			off := nBase
			for _, keys := range tc.batches {
				batch := spliceTable(keys, off)
				off += len(keys)
				want := refMergeConcatPermute(t, cur, batch, uses(batch), tc.opt)
				got, err := MergeBDCCTable(cur, batch, uses(batch), tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				if err := got.Validate(); err != nil {
					t.Fatal(err)
				}
				if got.Bits != want.Bits || got.FullBits != want.FullBits || got.Rows() != want.Rows() || got.RelocatedRows != want.RelocatedRows {
					t.Fatalf("granularity %d/%d, %d rows + %d relocated; want %d/%d, %d + %d", got.Bits, got.FullBits,
						got.Rows(), got.RelocatedRows, want.Bits, want.FullBits, want.Rows(), want.RelocatedRows)
				}
				if !slices.Equal(got.Count, want.Count) {
					t.Fatalf("count tables differ: %d vs %d entries", len(got.Count), len(want.Count))
				}
				if !slices.Equal(got.Keys(), want.Keys()) {
					t.Fatal("retained keys differ")
				}
				if !reflect.DeepEqual(got.GroupStats(), want.GroupStats()) {
					t.Fatal("group statistics differ")
				}
				sameStoredTable(t, got.Data, want.Data)
				relocated = relocated || got.RelocatedRows > 0
				cur = got
			}
		})
	}
	if !relocated {
		t.Fatal("no case produced a relocation area")
	}
}

// FuzzAppendOrder splices up to six batches, one at a time, into a clustered
// root of up to 300 rows. Keys come from a small domain, so each batch ties
// with the root's keys and with earlier batches'. Every version is held to
// the reference chained on its own output (refMergeConcatPermute over
// Concat + Permute + AppendRows): the rows a reader reads, the count table,
// the relocated rows and the key order. A small efficient access size
// relocates thin cells when relocation is on.
func FuzzAppendOrder(f *testing.F) {
	f.Add(uint16(300), []byte{40, 7, 1, 60, 33, 2}, []byte("root and batches tie on every cell"), true)
	f.Add(uint16(0), []byte{5, 9}, []byte{0, 4, 8, 1, 5, 9}, true)
	f.Add(uint16(120), []byte{1}, []byte{3, 3, 3, 3, 0xfc}, false)
	f.Add(uint16(250), []byte{20, 20, 20, 20, 20, 20}, []byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x61, 0x72, 0x83, 0x94}, true)
	obs := make([]WeightedKey, 256)
	for i := range obs {
		obs[i] = WeightedKey{Val: IntKey(int64(i)), Weight: 1}
	}
	dim, err := CreateDimension("d_k", "t", []string{"k"}, obs, 6)
	if err != nil {
		f.Fatal(err)
	}
	uses := func(tab *storage.Table) []UseBinding {
		return []UseBinding{{Dim: dim, BinNos: binsOf(dim, tab, 0)}}
	}
	f.Fuzz(func(t *testing.T, rootRows uint16, sizes, keys []byte, relocate bool) {
		if len(keys) == 0 {
			keys = []byte{0}
		}
		drawn := 0
		// Three in four keys fall in four fat cells, the rest spread thin.
		draw := func(n int) []int64 {
			out := make([]int64, n)
			for i := range out {
				b := keys[drawn%len(keys)] + byte(drawn/len(keys))
				if drawn++; b&3 != 0 {
					out[i] = int64(4 * (b >> 2 % 4))
				} else {
					out[i] = int64(b >> 2)
				}
			}
			return out
		}
		opt := BuildOptions{DisableRelocation: !relocate,
			Device: iosim.Device{PageSize: 4 << 10, SeqBandwidth: 1 << 30, AR: 1 << 10, RandEfficiency: 0.8}}
		root := spliceTable(draw(int(rootRows)%301), 0)
		got, err := BuildBDCCTable("t", root, uses(root), opt)
		if err != nil {
			t.Fatal(err)
		}
		want, off := got, root.Rows()
		if len(sizes) == 0 {
			sizes = []byte{0}
		}
		for i, size := range sizes[:min(len(sizes), 6)] {
			batch := spliceTable(draw(1+int(size)%40), off)
			off += batch.Rows()
			want = refMergeConcatPermute(t, want, batch, uses(batch), opt)
			if got, err = MergeBDCCTable(got, batch, uses(batch), opt); err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			if !slices.Equal(got.Count, want.Count) || got.RelocatedRows != want.RelocatedRows {
				t.Fatalf("append %d: %d count entries and %d relocated rows, want %d and %d",
					i, len(got.Count), got.RelocatedRows, len(want.Count), want.RelocatedRows)
			}
			if !slices.Equal(got.Keys(), want.Keys()) {
				t.Fatalf("append %d: the key order differs", i)
			}
			sameStoredTable(t, got.Data, want.Data)
		}
	})
}

// TestGroupStatsMatchPerGranularitySweep holds the one-pass histogram
// collector to the definition: one sweep over the keys per granularity.
func TestGroupStatsMatchPerGranularitySweep(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, tc := range []struct{ n, bits int }{{0, 5}, {1, 1}, {1, 7}, {500, 3}, {4000, 12}, {4000, 30}} {
		keys := make([]uint64, tc.n)
		for i := range keys {
			keys[i] = uint64(rng.Int63n(1 << uint(tc.bits)))
			if rng.Intn(3) == 0 {
				keys[i] &^= 0xF // long runs that only differ in high bits
			}
		}
		slices.Sort(keys)
		want := make([]*GroupStats, tc.bits)
		for g := 1; g <= tc.bits; g++ {
			gs := &GroupStats{Granularity: g}
			shift := uint(tc.bits - g)
			var run int64
			for i := range keys {
				if i > 0 && keys[i]>>shift != keys[i-1]>>shift {
					gs.addGroup(run)
					run = 0
				}
				run++
			}
			if run > 0 {
				gs.addGroup(run)
			}
			want[g-1] = gs
		}
		if got := (&BDCCTable{SortedKeys: keys, FullBits: tc.bits}).GroupStats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d keys at %d bits: one-pass statistics differ from the per-granularity sweep", tc.n, tc.bits)
		}
	}
}
