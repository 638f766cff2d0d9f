package storage

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"bdcc/internal/iosim"
	"bdcc/internal/vector"
)

func testTable(t *testing.T, n int, pageSize int64) *Table {
	t.Helper()
	vals := make([]int64, n)
	strs := make([]string, n)
	for i := range vals {
		vals[i] = int64(i)
		strs[i] = "v" + string(rune('a'+i%26))
	}
	tab, err := NewTable("t", pageSize,
		NewInt64Column("a", vals),
		NewStringColumn("s", strs))
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	return tab
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("t", 0, NewInt64Column("a", nil)); err == nil {
		t.Error("zero page size accepted")
	}
	if _, err := NewTable("t", 4096); err == nil {
		t.Error("table without columns accepted")
	}
	if _, err := NewTable("t", 4096,
		NewInt64Column("a", []int64{1}), NewInt64Column("b", []int64{1, 2})); err == nil {
		t.Error("ragged columns accepted")
	}
	if _, err := NewTable("t", 4096,
		NewInt64Column("a", []int64{1}), NewInt64Column("a", []int64{2})); err == nil {
		t.Error("duplicate column accepted")
	}
}

func TestDensestColumn(t *testing.T) {
	tab := MustNewTable("t", 4096,
		NewInt64Column("i", []int64{1, 2}),
		NewStringColumn("wide", []string{"aaaaaaaaaaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbbbbbbbbbb"}))
	if d := tab.DensestColumn(); d.Name != "wide" {
		t.Errorf("densest = %s, want wide", d.Name)
	}
}

func TestPagesGeometry(t *testing.T) {
	tab := testTable(t, 1000, 4096) // int64 col: 512 rows/page
	c := tab.MustColumn("a")
	if got := tab.Pages(c); got != 2 {
		t.Errorf("pages = %d, want 2", got)
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	tab := testTable(t, 100, 4096)
	perm := make([]int32, 100)
	for i := range perm {
		perm[i] = int32(99 - i)
	}
	rev, err := tab.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	if rev.MustColumn("a").Values().I64[0] != 99 {
		t.Error("permute did not reverse")
	}
	back, err := rev.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range back.MustColumn("a").Values().I64 {
		if v != int64(i) {
			t.Fatalf("double reverse broken at %d", i)
		}
	}
	if _, err := tab.Permute(perm[:5]); err == nil {
		t.Error("short permutation accepted")
	}
}

// TestPermuteOfIdentityIsTheTable: a permutation that moves no row returns
// its table, raw or compressed, and a view's Materialized form, copying
// nothing; one that moves a single pair of rows builds a new table with a
// string heap of its own, compressed when its table is.
func TestPermuteOfIdentityIsTheTable(t *testing.T) {
	const n = 3000
	identity := func(n int) []int32 {
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		return perm
	}
	swapped := identity(n)
	swapped[n-2], swapped[n-1] = swapped[n-1], swapped[n-2]
	for _, compress := range []bool{false, true} {
		tab := deltaFixture(t, "p", n, 1)
		if compress {
			tab.Compress()
		}
		if got, err := tab.Permute(identity(n)); err != nil || got != tab {
			t.Fatalf("compressed %v: Permute of the identity = %p, %v; want the table %p", compress, got, err, tab)
		}
		moved, err := tab.Permute(swapped)
		if err != nil {
			t.Fatal(err)
		}
		if moved == tab || moved.Compressed() != compress {
			t.Fatalf("compressed %v: Permute of a swap returned its table or dropped its encoding", compress)
		}
		if h := heldBytes(tab.Cols[2]); h == nil || heldBytes(moved.Cols[2]) == h {
			t.Fatalf("compressed %v: the swapped table's string heap is its parent's", compress)
		}
		want, got := readAll(tab, 0).I64, readAll(moved, 0).I64
		want[n-2], want[n-1] = want[n-1], want[n-2]
		if !slices.Equal(got, want) {
			t.Fatalf("compressed %v: the swapped table's rows differ", compress)
		}
	}
	a, b := deltaFixture(t, "v", n, 1), deltaFixture(t, "v", 40, 2)
	v, err := Splice(a, n, b, AppendRun(AppendRun(nil, 1, 0, 40), 0, 0, n))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := v.Permute(identity(n + 40)); err != nil || got != v.Materialized() {
		t.Fatalf("Permute of the identity over a view = %p, %v; want its Materialized form %p", got, err, v.Materialized())
	}
}

func TestAppendRows(t *testing.T) {
	tab := testTable(t, 10, 4096)
	bigger, err := tab.AppendRows(RowRanges{{2, 4}, {8, 10}})
	if err != nil {
		t.Fatal(err)
	}
	if bigger.Rows() != 14 {
		t.Fatalf("rows = %d, want 14", bigger.Rows())
	}
	a := bigger.MustColumn("a").Values().I64
	want := []int64{2, 3, 8, 9}
	for i, w := range want {
		if a[10+i] != w {
			t.Errorf("appended row %d = %d, want %d", i, a[10+i], w)
		}
	}
	if _, err := tab.AppendRows(RowRanges{{5, 20}}); err == nil {
		t.Error("out-of-bounds append accepted")
	}
}

func TestSortPerm(t *testing.T) {
	keys := []uint64{3, 1, 2, 1}
	perm := SortPerm(keys)
	got := []uint64{keys[perm[0]], keys[perm[1]], keys[perm[2]], keys[perm[3]]}
	if got[0] != 1 || got[1] != 1 || got[2] != 2 || got[3] != 3 {
		t.Errorf("sorted = %v", got)
	}
	// Stability: the two 1-keys keep original relative order.
	if perm[0] != 1 || perm[1] != 3 {
		t.Errorf("unstable sort: perm = %v", perm)
	}
}

func TestRowRangesNormalize(t *testing.T) {
	rs := RowRanges{{5, 10}, {0, 3}, {9, 12}, {3, 3}, {2, 4}}
	n := rs.Normalize()
	want := RowRanges{{0, 4}, {5, 12}}
	if len(n) != len(want) || n[0] != want[0] || n[1] != want[1] {
		t.Errorf("normalize = %v, want %v", n, want)
	}
	if n.Rows() != 11 {
		t.Errorf("rows = %d, want 11", n.Rows())
	}
}

func TestRowRangesIntersectUnionProperties(t *testing.T) {
	prop := func(aRaw, bRaw []uint16) bool {
		mk := func(raw []uint16) RowRanges {
			var out RowRanges
			for i := 0; i+1 < len(raw); i += 2 {
				lo := int(raw[i] % 200)
				out = append(out, RowRange{lo, lo + int(raw[i+1]%20)})
			}
			return out.Normalize()
		}
		a, b := mk(aRaw), mk(bRaw)
		inter := a.Intersect(b)
		union := append(slices.Clone(a), b...).Normalize()
		member := func(rs RowRanges, x int) bool {
			for _, r := range rs {
				if x >= r.Start && x < r.End {
					return true
				}
			}
			return false
		}
		for x := 0; x < 230; x++ {
			inA, inB := member(a, x), member(b, x)
			if member(inter, x) != (inA && inB) {
				return false
			}
			if member(union, x) != (inA || inB) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZonemapPruneSound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 5000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(1000)
	}
	tab := MustNewTable("t", 512, NewInt64Column("v", vals)) // 64 rows/page
	for trial := 0; trial < 50; trial++ {
		lo := rng.Int63n(1000)
		hi := lo + rng.Int63n(200)
		keep := tab.PruneZonemap("v", Interval{
			Lo: Bound{Set: true, I: lo},
			Hi: Bound{Set: true, I: hi},
		}, nil)
		inKeep := make([]bool, n)
		for _, r := range keep {
			for i := r.Start; i < r.End; i++ {
				inKeep[i] = true
			}
		}
		for i, v := range vals {
			if v >= lo && v <= hi && !inKeep[i] {
				t.Fatalf("zonemap pruned qualifying row %d (v=%d in [%d,%d])", i, v, lo, hi)
			}
		}
	}
}

// twoCompareMinMax is the min/max kernel with both comparisons per value,
// the reference minMax's one-comparison form is held to.
func twoCompareMinMax[T cmp.Ordered](vals []T) (mn, mx T) {
	mn, mx = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

func checkMinMax[T cmp.Ordered](t *testing.T, vals []T, same func(a, b T) bool) {
	t.Helper()
	mn, mx, mnAt, mxAt := minMax(vals)
	if wmn, wmx := twoCompareMinMax(vals); !same(mn, wmn) || !same(mx, wmx) {
		t.Fatalf("%v: bounds %v/%v, the two-comparison form gives %v/%v", vals, mn, mx, wmn, wmx)
	}
	if !same(vals[mnAt], mn) || !same(vals[mxAt], mx) {
		t.Fatalf("%v: bounds %v/%v recorded at %d/%d", vals, mn, mx, mnAt, mxAt)
	}
}

// TestMinMaxOneCompare: the one-comparison zonemap kernel returns the bounds
// the two-comparison form does, bit for bit, and rows that hold them — over
// int64, over floats drawn from NaN, −0, +0 and a few ordinary values (so
// NaN leads, trails and sits between them), and over strings. The encoder
// computes a chunk's bounds in the two-comparison form, so this is also
// what lets Compress keep a page's zones as its chunk's.
func TestMinMaxOneCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, 1, -1, math.Inf(1), math.Inf(-1)}
	words := []string{"", "a", "ab", "b", "ba"}
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(10)
		is, fs, ss := make([]int64, n), make([]float64, n), make([]string, n)
		for i := 0; i < n; i++ {
			is[i] = rng.Int63n(7) - 3
			fs[i] = floats[rng.Intn(len(floats))]
			ss[i] = words[rng.Intn(len(words))]
		}
		checkMinMax(t, is, func(a, b int64) bool { return a == b })
		checkMinMax(t, fs, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
		checkMinMax(t, ss, func(a, b string) bool { return a == b })
	}
}

func TestZonemapPruneUnsortedInput(t *testing.T) {
	// Regression: count-table-ordered (unsorted) range sets must be handled.
	n := 1000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	tab := MustNewTable("t", 512, NewInt64Column("v", vals))
	in := RowRanges{{800, 900}, {0, 100}} // out of order
	keep := tab.PruneZonemap("v", Interval{Lo: Bound{Set: true, I: 0}, Hi: Bound{Set: true, I: 950}}, in)
	if keep.Rows() != 200 {
		t.Errorf("kept %d rows, want 200", keep.Rows())
	}
}

func TestReaderBatches(t *testing.T) {
	tab := testTable(t, 3000, 4096)
	r := NewReader(tab, []int{0, 1}, RowRanges{{10, 20}, {100, 1500}}, nil)
	var rows int
	b := vector.NewBatch(r.Kinds())
	for r.Next(b) {
		rows += b.Len()
		if b.Len() > vector.BatchSize {
			t.Fatalf("batch of %d rows exceeds BatchSize", b.Len())
		}
	}
	if rows != 1410 {
		t.Errorf("read %d rows, want 1410", rows)
	}
}

func TestChargeIOCoalescesRuns(t *testing.T) {
	tab := testTable(t, 10000, 4096) // int col: 512 rows/page → ~20 pages
	acct := iosim.NewAccountant(iosim.PaperSSD())
	// Two ranges on adjacent pages coalesce into one run; a distant one adds
	// a second run.
	tab.ChargeIO(acct, []int{0}, RowRanges{{0, 100}, {600, 700}, {9000, 9100}})
	st := acct.Stats()
	if st.Runs != 2 {
		t.Errorf("runs = %d, want 2", st.Runs)
	}
	if st.Pages != 3 {
		t.Errorf("pages = %d, want 3", st.Pages)
	}
}

// TestMorselsCoverAndAlign checks the morsel split: morsels concatenate back
// to the original set, cuts within a range land only on align multiples from
// the range start, and no morsel materially exceeds the row budget.
func TestMorselsCoverAndAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var rs RowRanges
		pos := 0
		for len(rs) < 1+trial%5 {
			pos += rng.Intn(3000)
			n := 1 + rng.Intn(9000)
			rs = append(rs, RowRange{pos, pos + n})
			pos += n
		}
		align := 1 << uint(rng.Intn(11)) // 1..1024
		rows := 1 + rng.Intn(5000)
		morsels := rs.Morsels(rows, align)
		var flat RowRanges
		for _, m := range morsels {
			flat = append(flat, m...)
		}
		// Concatenation (after merging adjacent cuts) must equal the input.
		if got, want := flat.Normalize(), rs.Normalize(); len(got) != len(want) {
			t.Fatalf("trial %d: morsels cover %v, want %v", trial, got, want)
		} else {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: morsels cover %v, want %v", trial, got, want)
				}
			}
		}
		// Cuts only at align multiples within each source range.
		for _, m := range morsels {
			for _, r := range m {
				for _, src := range rs {
					if r.Start > src.Start && r.Start < src.End {
						if (r.Start-src.Start)%align != 0 {
							t.Fatalf("trial %d: cut at %d inside [%d,%d) not aligned to %d",
								trial, r.Start, src.Start, src.End, align)
						}
					}
				}
			}
		}
		// Budget: each morsel holds at most max(rows rounded up to align, align).
		budget := rows
		if rem := rows % align; rem != 0 {
			budget += align - rem
		}
		for _, m := range morsels {
			if m.Rows() > budget {
				t.Fatalf("trial %d: morsel holds %d rows, budget %d", trial, m.Rows(), budget)
			}
		}
	}
}

// TestMorselsPreserveReaderBatches checks the parallel-scan determinism
// contract: reading the morsels in order produces exactly the batch
// sequence of reading the full range set.
func TestMorselsPreserveReaderBatches(t *testing.T) {
	tab := testTable(t, 10000, 4096)
	ranges := RowRanges{{100, 3000}, {3100, 3105}, {4000, 9500}}
	read := func(sets []RowRanges) [][]int64 {
		var out [][]int64
		b := vector.NewBatch([]vector.Kind{vector.Int64, vector.String})
		for _, rs := range sets {
			r := NewReader(tab, []int{0, 1}, rs, nil)
			for r.Next(b) {
				out = append(out, append([]int64(nil), b.Cols[0].I64...))
			}
		}
		return out
	}
	serial := read([]RowRanges{ranges})
	morsels := ranges.Morsels(2*vector.BatchSize, vector.BatchSize)
	if len(morsels) < 3 {
		t.Fatalf("expected several morsels, got %d", len(morsels))
	}
	parallel := read(morsels)
	if len(serial) != len(parallel) {
		t.Fatalf("batch count %d vs %d", len(parallel), len(serial))
	}
	for i := range serial {
		if len(serial[i]) != len(parallel[i]) {
			t.Fatalf("batch %d: %d rows vs %d", i, len(parallel[i]), len(serial[i]))
		}
		for k := range serial[i] {
			if serial[i][k] != parallel[i][k] {
				t.Fatalf("batch %d row %d differs", i, k)
			}
		}
	}
}

// TestMorselsEdgeCases pins the boundary behaviour of RowRanges.Morsels:
// empty and nil sets, ranges smaller than one batch, and non-batch-aligned
// tails.
func TestMorselsEdgeCases(t *testing.T) {
	if got := (RowRanges{}).Morsels(1024, 128); len(got) != 0 {
		t.Fatalf("empty set produced %d morsels", len(got))
	}
	if got := (RowRanges)(nil).Morsels(1024, 128); len(got) != 0 {
		t.Fatalf("nil set produced %d morsels", len(got))
	}
	// Degenerate ranges are dropped entirely.
	if got := (RowRanges{{5, 5}}).Morsels(1024, 128); len(got) != 0 {
		t.Fatalf("zero-length range produced %d morsels: %v", len(got), got)
	}

	// A single range smaller than one batch is one whole morsel.
	small := RowRanges{{10, 20}}
	got := small.Morsels(1024, 128)
	if len(got) != 1 || len(got[0]) != 1 || got[0][0] != (RowRange{10, 20}) {
		t.Fatalf("sub-batch range split into %v", got)
	}

	// Many tiny ranges pack into one morsel until the row budget is hit;
	// each tiny range stays uncut.
	var tiny RowRanges
	for i := 0; i < 64; i++ {
		tiny = append(tiny, RowRange{i * 100, i*100 + 10})
	}
	got = tiny.Morsels(256, 128)
	var flat RowRanges
	for _, m := range got {
		flat = append(flat, m...)
	}
	if len(flat) != len(tiny) {
		t.Fatalf("tiny ranges were cut: %d pieces for %d ranges", len(flat), len(tiny))
	}
	for i := range flat {
		if flat[i] != tiny[i] {
			t.Fatalf("piece %d = %v, want %v", i, flat[i], tiny[i])
		}
	}

	// A non-batch-aligned tail (range length not a multiple of align) ends
	// up in a final morsel that may exceed nothing and loses no rows; the
	// cut before the tail is still aligned to the range start.
	tail := RowRanges{{0, 3*128 + 37}}
	got = tail.Morsels(256, 128)
	rows := 0
	for _, m := range got {
		for _, r := range m {
			if r.Start != 0 && (r.Start-0)%128 != 0 {
				t.Fatalf("unaligned cut at %d", r.Start)
			}
			rows += r.Len()
		}
	}
	if rows != tail.Rows() {
		t.Fatalf("tail morsels cover %d rows, want %d", rows, tail.Rows())
	}
}

// TestMorselsPartitionExactly is the exact-partition property: flattening
// the morsels in order reproduces each input range as a gapless,
// non-overlapping tiling from Start to End — no normalization involved, so
// row order and range identity are preserved exactly.
func TestMorselsPartitionExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		var rs RowRanges
		pos := rng.Intn(500)
		for len(rs) < 1+trial%6 {
			n := 1 + rng.Intn(7000)
			rs = append(rs, RowRange{pos, pos + n})
			pos += n + 1 + rng.Intn(2000)
		}
		align := 1 << uint(rng.Intn(11))
		rows := 1 + rng.Intn(6000)
		var flat RowRanges
		for _, m := range rs.Morsels(rows, align) {
			flat = append(flat, m...)
		}
		i := 0
		for _, src := range rs {
			at := src.Start
			for at < src.End {
				if i >= len(flat) {
					t.Fatalf("trial %d: morsels ran out at row %d of %v", trial, at, src)
				}
				piece := flat[i]
				i++
				if piece.Start != at || piece.End > src.End || piece.Len() <= 0 {
					t.Fatalf("trial %d: piece %v does not tile %v at %d", trial, piece, src, at)
				}
				at = piece.End
			}
			if at != src.End {
				t.Fatalf("trial %d: range %v over-covered to %d", trial, src, at)
			}
		}
		if i != len(flat) {
			t.Fatalf("trial %d: %d surplus pieces", trial, len(flat)-i)
		}
	}
}
