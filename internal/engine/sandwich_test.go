package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"bdcc/internal/core"
	"bdcc/internal/expr"
	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// coClusteredPair builds two tables clustered on a shared dimension "g"
// (domain [0,64)) with join keys such that equal keys imply equal g.
func coClusteredPair(t *testing.T, nL, nR int) (*core.BDCCTable, *core.BDCCTable, *core.Dimension) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	// Right: one row per key; g derived from key.
	rKey := make([]int64, nR)
	rG := make([]int64, nR)
	rPay := make([]int64, nR)
	for i := range rKey {
		rKey[i] = int64(i)
		rG[i] = int64(i) % 64
		rPay[i] = rng.Int63n(1000)
	}
	// Left: many rows referencing right keys; same g derivation.
	lKey := make([]int64, nL)
	lG := make([]int64, nL)
	lID := make([]int64, nL)
	for i := range lKey {
		k := rng.Int63n(int64(nR))
		lKey[i] = k
		lG[i] = k % 64
		lID[i] = int64(i)
	}
	var obs []core.WeightedKey
	for g := int64(0); g < 64; g++ {
		obs = append(obs, core.WeightedKey{Val: core.IntKey(g), Weight: 1})
	}
	dim, err := core.CreateDimension("d_g", "r", []string{"g"}, obs, 6)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, cols []*storage.Column, gs []int64) *core.BDCCTable {
		tab := storage.MustNewTable(name, 4096, cols...)
		bins := make([]uint64, len(gs))
		for i, g := range gs {
			bins[i] = dim.BinOf(core.IntKey(g))
		}
		bt, err := core.BuildBDCCTable(name, tab, []core.UseBinding{{Dim: dim, BinNos: bins}},
			core.BuildOptions{DisableRelocation: true})
		if err != nil {
			t.Fatal(err)
		}
		return bt
	}
	left := mk("l", []*storage.Column{
		storage.NewInt64Column("lkey", lKey),
		storage.NewInt64Column("lid", lID),
	}, lG)
	right := mk("r", []*storage.Column{
		storage.NewInt64Column("rkey", rKey),
		storage.NewInt64Column("rpay", rPay),
	}, rG)
	return left, right, dim
}

func groupedScan(t *testing.T, bt *core.BDCCTable, cols []string) *Scan {
	t.Helper()
	bits := core.Ones(bt.Uses[0].Mask)
	groups, err := bt.ScatterPlan([]int{0}, []int{bits}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Scan{Table: bt.Data, Cols: cols, Groups: groups}
}

// TestSandwichJoinMatchesHashJoin checks all join types: the sandwiched
// execution over co-clustered group streams must return exactly the hash
// join's rows, with strictly lower peak memory.
func TestSandwichJoinMatchesHashJoin(t *testing.T) {
	left, right, _ := coClusteredPair(t, 20000, 512)
	for name, typ := range map[string]JoinType{
		"inner": InnerJoin, "semi": SemiJoin, "anti": AntiJoin, "leftouter": LeftOuterJoin,
	} {
		typ := typ
		t.Run(name, func(t *testing.T) {
			lb := core.Ones(left.Uses[0].Mask)
			rb := core.Ones(right.Uses[0].Mask)
			g := lb
			if rb < g {
				g = rb
			}
			ctxS := testCtx()
			sj := &SandwichHashJoin{
				Left:     groupedScan(t, left, []string{"lkey", "lid"}),
				Right:    groupedScan(t, right, []string{"rkey", "rpay"}),
				LeftKeys: []string{"lkey"}, RightKeys: []string{"rkey"}, Type: typ,
				ProbeShift: uint(lb - g), BuildShift: uint(rb - g),
			}
			resS, err := Run(ctxS, sj)
			if err != nil {
				t.Fatal(err)
			}
			ctxH := testCtx()
			hj := &HashJoin{
				Left:     groupedScan(t, left, []string{"lkey", "lid"}),
				Right:    groupedScan(t, right, []string{"rkey", "rpay"}),
				LeftKeys: []string{"lkey"}, RightKeys: []string{"rkey"}, Type: typ,
			}
			resH, err := Run(ctxH, hj)
			if err != nil {
				t.Fatal(err)
			}
			rows := func(r *Result) []string {
				out := make([]string, r.Rows())
				for i := range out {
					out[i] = fmt.Sprint(r.Row(i))
				}
				sort.Strings(out)
				return out
			}
			a, b := rows(resS), rows(resH)
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("sandwich %s: %d rows vs hash %d rows", name, len(a), len(b))
			}
			if ctxS.Mem.Peak() >= ctxH.Mem.Peak() {
				t.Errorf("sandwich %s peak %d should undercut hash join peak %d",
					name, ctxS.Mem.Peak(), ctxH.Mem.Peak())
			}
		})
	}
}

// TestSandwichJoinResidual checks residual predicates inside the per-group
// build/probe.
func TestSandwichJoinResidual(t *testing.T) {
	left, right, _ := coClusteredPair(t, 5000, 256)
	lb := core.Ones(left.Uses[0].Mask)
	rb := core.Ones(right.Uses[0].Mask)
	g := lb
	if rb < g {
		g = rb
	}
	mkRes := func() expr.Expr {
		return expr.NewCmp(expr.GT, expr.C("rpay"), expr.Int(500))
	}
	sj := &SandwichHashJoin{
		Left:     groupedScan(t, left, []string{"lkey", "lid"}),
		Right:    groupedScan(t, right, []string{"rkey", "rpay"}),
		LeftKeys: []string{"lkey"}, RightKeys: []string{"rkey"},
		Type: SemiJoin, Residual: mkRes(),
		ProbeShift: uint(lb - g), BuildShift: uint(rb - g),
	}
	resS, err := Run(testCtx(), sj)
	if err != nil {
		t.Fatal(err)
	}
	hj := &HashJoin{
		Left:     groupedScan(t, left, []string{"lkey", "lid"}),
		Right:    groupedScan(t, right, []string{"rkey", "rpay"}),
		LeftKeys: []string{"lkey"}, RightKeys: []string{"rkey"},
		Type: SemiJoin, Residual: mkRes(),
	}
	resH, err := Run(testCtx(), hj)
	if err != nil {
		t.Fatal(err)
	}
	if resH.Rows() == 0 || resH.Rows() == left.Data.Rows() {
		t.Fatalf("residual semi keeps %d of %d rows — vacuous", resH.Rows(), left.Data.Rows())
	}
	requireIdentical(t, resS, resH, "residual semi sandwich vs hash join")
}

// TestFlushOnGroupMatchesHashAggregate: the sandwich aggregation (flush per
// group) must equal plain hash aggregation when the grouping key determines
// the stream group, with lower peak memory.
func TestFlushOnGroupMatchesHashAggregate(t *testing.T) {
	left, _, _ := coClusteredPair(t, 30000, 512)
	mkAggs := func() []AggSpec {
		return []AggSpec{
			{Name: "c", Func: AggCount},
			{Name: "s", Func: AggSum, Arg: expr.C("lid")},
		}
	}
	// lkey determines g (g = lkey % 64), so flushing per group is sound.
	ctxF := testCtx()
	fa := &HashAggregate{Child: groupedScan(t, left, []string{"lkey", "lid"}),
		GroupBy: []string{"lkey"}, Aggs: mkAggs(), FlushOnGroup: true}
	resF, err := Run(ctxF, fa)
	if err != nil {
		t.Fatal(err)
	}
	ctxH := testCtx()
	ha := &HashAggregate{Child: groupedScan(t, left, []string{"lkey", "lid"}),
		GroupBy: []string{"lkey"}, Aggs: mkAggs()}
	resH, err := Run(ctxH, ha)
	if err != nil {
		t.Fatal(err)
	}
	rows := func(r *Result) []string {
		out := make([]string, r.Rows())
		for i := range out {
			out[i] = fmt.Sprint(r.Row(i))
		}
		sort.Strings(out)
		return out
	}
	a, b := rows(resF), rows(resH)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("flush-on-group disagrees: %d vs %d groups", len(a), len(b))
	}
	if ctxF.Mem.Peak() >= ctxH.Mem.Peak() {
		t.Errorf("flushed agg peak %d should undercut hash agg peak %d", ctxF.Mem.Peak(), ctxH.Mem.Peak())
	}
}

// TestGroupedScanStreamContract checks the scatter scan's contract: batches
// are group-pure with non-decreasing identifiers covering all rows.
func TestGroupedScanStreamContract(t *testing.T) {
	left, _, _ := coClusteredPair(t, 8000, 512)
	scan := groupedScan(t, left, []string{"lkey"})
	if err := scan.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	var rows int
	var prev uint64
	first := true
	for {
		b, err := scan.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if !b.Grouped {
			t.Fatal("untagged batch from grouped scan")
		}
		if !first && b.GroupID < prev {
			t.Fatalf("group ids decreased: %d after %d", b.GroupID, prev)
		}
		prev, first = b.GroupID, false
		rows += b.Len()
	}
	if rows != left.Data.Rows() {
		t.Fatalf("grouped scan produced %d of %d rows", rows, left.Data.Rows())
	}
}

// TestSandwichJoinFlushesLargeGroups locks in the batch-size invariant: a
// build group larger than one batch joined against duplicate probe keys
// produces a match fanout far beyond BatchSize per probe batch, and the
// sandwich join must flush mid-loop instead of growing its output without
// bound — every emitted batch stays at most BatchSize rows and group-pure.
func TestSandwichJoinFlushesLargeGroups(t *testing.T) {
	// One co-clustering group (gid 0): build side has 3*BatchSize rows under
	// a single key, probe has 5 rows of that key => 5 * 3 * BatchSize
	// result rows, all from one group.
	nBuild := 3 * vector.BatchSize
	rKey := make([]int64, nBuild)
	rPay := make([]int64, nBuild)
	rG := make([]int64, nBuild)
	for i := range rKey {
		rKey[i] = 7
		rPay[i] = int64(i)
	}
	lKey := []int64{7, 7, 7, 7, 7}
	lID := []int64{0, 1, 2, 3, 4}
	lG := []int64{0, 0, 0, 0, 0}
	var obs []core.WeightedKey
	for g := int64(0); g < 4; g++ {
		obs = append(obs, core.WeightedKey{Val: core.IntKey(g), Weight: 1})
	}
	dim, err := core.CreateDimension("d_g", "r", []string{"g"}, obs, 2)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, cols []*storage.Column, gs []int64) *core.BDCCTable {
		tab := storage.MustNewTable(name, 4096, cols...)
		bins := make([]uint64, len(gs))
		for i, g := range gs {
			bins[i] = dim.BinOf(core.IntKey(g))
		}
		bt, err := core.BuildBDCCTable(name, tab, []core.UseBinding{{Dim: dim, BinNos: bins}},
			core.BuildOptions{DisableRelocation: true})
		if err != nil {
			t.Fatal(err)
		}
		return bt
	}
	left := mk("lbig", []*storage.Column{
		storage.NewInt64Column("lkey", lKey),
		storage.NewInt64Column("lid", lID),
	}, lG)
	right := mk("rbig", []*storage.Column{
		storage.NewInt64Column("rkey", rKey),
		storage.NewInt64Column("rpay", rPay),
	}, rG)
	sj := &SandwichHashJoin{
		Left:     groupedScan(t, left, []string{"lkey", "lid"}),
		Right:    groupedScan(t, right, []string{"rkey", "rpay"}),
		LeftKeys: []string{"lkey"}, RightKeys: []string{"rkey"}, Type: InnerJoin,
	}
	if err := sj.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	defer sj.Close()
	rows := 0
	for {
		b, err := sj.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if b.Len() > vector.BatchSize {
			t.Fatalf("sandwich join emitted a %d-row batch (max %d): mid-loop flush missing", b.Len(), vector.BatchSize)
		}
		if !b.Grouped {
			t.Fatal("sandwich join emitted an untagged batch")
		}
		rows += b.Len()
	}
	if want := len(lKey) * nBuild; rows != want {
		t.Fatalf("sandwich join produced %d rows, want %d", rows, want)
	}
}

// TestParallelGroupedScanMatchesSerial checks the morsel-parallel grouped
// scan: identical rows in identical order, group-pure batches with
// non-decreasing identifiers.
func TestParallelGroupedScanMatchesSerial(t *testing.T) {
	left, _, _ := coClusteredPair(t, 40000, 512)
	filter := expr.NewCmp(expr.LT, expr.C("lid"), expr.Int(30000))
	run := func(workers int) []string {
		scan := groupedScan(t, left, []string{"lkey", "lid"})
		scan.Filter = filter
		ctx := testCtx()
		ctx.Workers = workers
		scan.Sched = ctx.Scheduler()
		if err := scan.Open(ctx); err != nil {
			t.Fatal(err)
		}
		defer scan.Close()
		var rows []string
		prev := uint64(0)
		first := true
		for {
			b, err := scan.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			if !b.Grouped {
				t.Fatal("parallel grouped scan emitted an untagged batch")
			}
			if !first && b.GroupID < prev {
				t.Fatalf("group ids decreased: %d after %d", b.GroupID, prev)
			}
			prev, first = b.GroupID, false
			for i := 0; i < b.Len(); i++ {
				rows = append(rows, fmt.Sprintf("%d|%d", b.Cols[0].I64[i], b.Cols[1].I64[i]))
			}
		}
		if cur := ctx.Mem.Current(); cur != 0 {
			t.Fatalf("workers=%d: %d bytes still accounted", workers, cur)
		}
		return rows
	}
	serialRows := run(1)
	if len(serialRows) == 0 {
		t.Fatal("filter selects nothing — vacuous test")
	}
	for _, workers := range []int{2, 4} {
		parRows := run(workers)
		if len(parRows) != len(serialRows) {
			t.Fatalf("workers=%d: %d rows, serial has %d", workers, len(parRows), len(serialRows))
		}
		for i := range parRows {
			if parRows[i] != serialRows[i] {
				t.Fatalf("workers=%d: row %d = %s, serial has %s", workers, i, parRows[i], serialRows[i])
			}
		}
	}
}
