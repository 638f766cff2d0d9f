package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"bdcc/internal/expr"
	"bdcc/internal/iosim"
	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// source is a test operator replaying pre-built batches.
type source struct {
	schema  expr.Schema
	batches []*vector.Batch
	pos     int
}

func (s *source) Schema() expr.Schema     { return s.schema }
func (s *source) Open(ctx *Context) error { return nil }
func (s *source) Close() error            { return nil }
func (s *source) Next() (*vector.Batch, error) {
	if s.pos >= len(s.batches) {
		return nil, nil
	}
	b := s.batches[s.pos]
	s.pos++
	return b, nil
}

// makeBatch builds an int64-only batch from column slices.
func makeBatch(schema expr.Schema, cols ...[]int64) *vector.Batch {
	b := vector.NewBatch(schema.Kinds())
	for i, vals := range cols {
		b.Cols[i].I64 = append(b.Cols[i].I64, vals...)
	}
	return b
}

func intSchema(names ...string) expr.Schema {
	s := make(expr.Schema, len(names))
	for i, n := range names {
		s[i] = expr.ColMeta{Name: n, Kind: vector.Int64}
	}
	return s
}

func testCtx() *Context { return NewContext(iosim.PaperSSD()) }

// runAll runs op and returns all rows rendered as strings, optionally
// sorted for order-insensitive comparison.
func runAll(t *testing.T, op Operator, sortRows bool) []string {
	t.Helper()
	res, err := Run(testCtx(), op)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := make([]string, res.Rows())
	for i := range out {
		out[i] = fmt.Sprint(res.Row(i))
	}
	if sortRows {
		sort.Strings(out)
	}
	return out
}

func TestTableScanFilterAndRanges(t *testing.T) {
	n := 10000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	tab := storage.MustNewTable("t", 4096, storage.NewInt64Column("v", vals))
	scan := &Scan{Table: tab, Cols: []string{"v"},
		Filter: expr.NewCmp(expr.LT, expr.C("v"), expr.Int(100))}
	rows := runAll(t, scan, false)
	if len(rows) != 100 {
		t.Fatalf("filtered scan returned %d rows, want 100", len(rows))
	}
	// Range-restricted scan.
	scan2 := &Scan{Table: tab, Cols: []string{"v"},
		Ranges: storage.RowRanges{{Start: 10, End: 20}, {Start: 50, End: 55}}}
	rows = runAll(t, scan2, false)
	if len(rows) != 15 {
		t.Fatalf("ranged scan returned %d rows, want 15", len(rows))
	}
	if rows[0] != "[10]" || rows[14] != "[54]" {
		t.Fatalf("ranged scan rows = %v", rows)
	}
}

func TestTableScanChargesIO(t *testing.T) {
	n := 100000
	vals := make([]int64, n)
	tab := storage.MustNewTable("t", 32<<10, storage.NewInt64Column("v", vals))
	ctx := testCtx()
	op := &Scan{Table: tab, Cols: []string{"v"}}
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	for {
		b, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
	}
	st := ctx.Acct.Stats()
	wantPages := int64((n*8 + 32<<10 - 1) / (32 << 10))
	if st.Pages != wantPages {
		t.Fatalf("charged %d pages, want %d", st.Pages, wantPages)
	}
	if st.Runs != 1 {
		t.Fatalf("full scan charged %d runs, want 1", st.Runs)
	}
}

func randPairs(rng *rand.Rand, n int, keyDomain int64) [][2]int64 {
	out := make([][2]int64, n)
	for i := range out {
		out[i] = [2]int64{int64(i), rng.Int63n(keyDomain)}
	}
	return out
}

func pairsSource(schema expr.Schema, rows [][2]int64) *source {
	a := make([]int64, len(rows))
	b := make([]int64, len(rows))
	for i, r := range rows {
		a[i], b[i] = r[0], r[1]
	}
	return &source{schema: schema, batches: []*vector.Batch{makeBatch(schema, a, b)}}
}

func TestHashJoinInnerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := randPairs(rng, 500, 50)
	r := randPairs(rng, 300, 50)
	// swap cols so r's key is col 0
	rr := make([][2]int64, len(r))
	for i := range r {
		rr[i] = [2]int64{r[i][1], r[i][0]}
	}
	j := &HashJoin{
		Left:     pairsSource(intSchema("lid", "lk"), l),
		Right:    pairsSource(intSchema("rk", "rid"), rr),
		LeftKeys: []string{"lk"}, RightKeys: []string{"rk"},
		Type: InnerJoin,
	}
	got := runAll(t, j, true)
	var ref []string
	for _, lrow := range l {
		for _, rrow := range rr {
			if lrow[1] == rrow[0] {
				ref = append(ref, fmt.Sprint([]string{fmt.Sprint(lrow[0]), fmt.Sprint(lrow[1]), fmt.Sprint(rrow[0]), fmt.Sprint(rrow[1])}))
			}
		}
	}
	sort.Strings(ref)
	if len(got) != len(ref) {
		t.Fatalf("join rows = %d, want %d", len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("row %d: %s != %s", i, got[i], ref[i])
		}
	}
}

func TestHashJoinSemiAnti(t *testing.T) {
	l := [][2]int64{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	r := [][2]int64{{2, 9}, {4, 9}, {4, 8}}
	semi := &HashJoin{
		Left:     pairsSource(intSchema("lid", "lk"), l),
		Right:    pairsSource(intSchema("rk", "rid"), r),
		LeftKeys: []string{"lk"}, RightKeys: []string{"rk"},
		Type: SemiJoin,
	}
	got := runAll(t, semi, true)
	if fmt.Sprint(got) != "[[1 2] [3 4]]" {
		t.Fatalf("semi = %v", got)
	}
	anti := &HashJoin{
		Left:     pairsSource(intSchema("lid", "lk"), l),
		Right:    pairsSource(intSchema("rk", "rid"), r),
		LeftKeys: []string{"lk"}, RightKeys: []string{"rk"},
		Type: AntiJoin,
	}
	got = runAll(t, anti, true)
	if fmt.Sprint(got) != "[[0 1] [2 3]]" {
		t.Fatalf("anti = %v", got)
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	l := [][2]int64{{0, 1}, {1, 2}}
	r := [][2]int64{{2, 7}}
	j := &HashJoin{
		Left:     pairsSource(intSchema("lid", "lk"), l),
		Right:    pairsSource(intSchema("rk", "rid"), r),
		LeftKeys: []string{"lk"}, RightKeys: []string{"rk"},
		Type: LeftOuterJoin,
	}
	got := runAll(t, j, true)
	want := "[[0 1 0 0 0] [1 2 2 7 1]]"
	if fmt.Sprint(got) != want {
		t.Fatalf("left outer = %v, want %v", got, want)
	}
}

func TestHashJoinResidual(t *testing.T) {
	// Semi join with residual rid <> lid (Q21 pattern).
	l := [][2]int64{{9, 1}, {8, 2}}
	r := [][2]int64{{1, 9}, {2, 5}}
	j := &HashJoin{
		Left:     pairsSource(intSchema("lid", "lk"), l),
		Right:    pairsSource(intSchema("rk", "rid"), r),
		LeftKeys: []string{"lk"}, RightKeys: []string{"rk"},
		Type:     SemiJoin,
		Residual: expr.NewCmp(expr.NE, expr.C("rid"), expr.C("lid")),
	}
	got := runAll(t, j, true)
	if fmt.Sprint(got) != "[[8 2]]" {
		t.Fatalf("residual semi = %v", got)
	}
}

func TestMergeJoinMatchesHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := randPairs(rng, 800, 60)
	r := randPairs(rng, 400, 60)
	sort.Slice(l, func(i, j int) bool { return l[i][1] < l[j][1] })
	sort.Slice(r, func(i, j int) bool { return r[i][1] < r[j][1] })
	rr := make([][2]int64, len(r))
	for i := range r {
		rr[i] = [2]int64{r[i][1], r[i][0]}
	}
	mj := &MergeJoin{
		Left:    pairsSource(intSchema("lid", "lk"), l),
		Right:   pairsSource(intSchema("rk", "rid"), rr),
		LeftKey: "lk", RightKey: "rk",
	}
	hj := &HashJoin{
		Left:     pairsSource(intSchema("lid", "lk"), l),
		Right:    pairsSource(intSchema("rk", "rid"), rr),
		LeftKeys: []string{"lk"}, RightKeys: []string{"rk"},
		Type: InnerJoin,
	}
	got := runAll(t, mj, true)
	want := runAll(t, hj, true)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merge join disagrees with hash join: %d vs %d rows", len(got), len(want))
	}
}

func TestHashAggregate(t *testing.T) {
	schema := intSchema("g", "v")
	src := &source{schema: schema, batches: []*vector.Batch{
		makeBatch(schema, []int64{1, 2, 1, 3, 2}, []int64{10, 20, 30, 40, 50}),
	}}
	agg := &HashAggregate{Child: src, GroupBy: []string{"g"}, Aggs: []AggSpec{
		{Name: "sum_v", Func: AggSum, Arg: expr.C("v")},
		{Name: "cnt", Func: AggCount},
		{Name: "min_v", Func: AggMin, Arg: expr.C("v")},
		{Name: "max_v", Func: AggMax, Arg: expr.C("v")},
		{Name: "avg_v", Func: AggAvg, Arg: expr.C("v")},
	}}
	got := runAll(t, agg, true)
	want := []string{
		"[1 40 2 10 30 20.00]",
		"[2 70 2 20 50 35.00]",
		"[3 40 1 40 40 40.00]",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("agg = %v, want %v", got, want)
	}
}

// TestAggregatesRejectCountDistinct checks that both aggregation operators
// refuse COUNT(DISTINCT) at Open: the planner lowers it into two groupings.
func TestAggregatesRejectCountDistinct(t *testing.T) {
	schema := intSchema("g", "v")
	aggs := []AggSpec{{Name: "d", Func: AggCountDistinct, Arg: expr.C("v")}}
	for _, op := range []Operator{
		&HashAggregate{Child: &source{schema: schema}, GroupBy: []string{"g"}, Aggs: aggs},
		&StreamAggregate{Child: &source{schema: schema}, GroupBy: []string{"g"}, Aggs: aggs},
	} {
		if err := op.Open(testCtx()); err == nil || !strings.Contains(err.Error(), "COUNT(DISTINCT)") {
			t.Errorf("%T.Open = %v, want a COUNT(DISTINCT) error", op, err)
		}
	}
}

func TestStreamAggregateMatchesHash(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 5000
	g := make([]int64, n)
	v := make([]int64, n)
	for i := range g {
		g[i] = rng.Int63n(100)
		v[i] = rng.Int63n(1000)
	}
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] }) // v stays random
	schema := intSchema("g", "v")
	mk := func() *source {
		return &source{schema: schema, batches: []*vector.Batch{makeBatch(schema, g, v)}}
	}
	aggs := []AggSpec{
		{Name: "s", Func: AggSum, Arg: expr.C("v")},
		{Name: "c", Func: AggCount},
	}
	sa := &StreamAggregate{Child: mk(), GroupBy: []string{"g"}, Aggs: aggs}
	ha := &HashAggregate{Child: mk(), GroupBy: []string{"g"}, Aggs: []AggSpec{
		{Name: "s", Func: AggSum, Arg: expr.C("v")},
		{Name: "c", Func: AggCount},
	}}
	got := runAll(t, sa, true)
	want := runAll(t, ha, true)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("stream agg disagrees with hash agg")
	}
}

func TestSortAndTopN(t *testing.T) {
	schema := intSchema("a", "b")
	src := func() *source {
		return &source{schema: schema, batches: []*vector.Batch{
			makeBatch(schema, []int64{3, 1, 2, 1}, []int64{0, 5, 9, 2}),
		}}
	}
	s := &Sort{Child: src(), By: []SortSpec{{Col: "a"}, {Col: "b", Desc: true}}}
	got := runAll(t, s, false)
	want := "[[1 5] [1 2] [2 9] [3 0]]"
	if fmt.Sprint(got) != want {
		t.Fatalf("sort = %v, want %v", got, want)
	}
	topn := &TopN{Child: src(), By: []SortSpec{{Col: "b", Desc: true}}, N: 2}
	got = runAll(t, topn, false)
	if fmt.Sprint(got) != "[[2 9] [1 5]]" {
		t.Fatalf("topn = %v", got)
	}
}

func TestProjectAndFilter(t *testing.T) {
	schema := intSchema("x")
	src := &source{schema: schema, batches: []*vector.Batch{
		makeBatch(schema, []int64{1, 2, 3, 4, 5}),
	}}
	p := NewProject(
		&Filter{Child: src, Pred: expr.NewCmp(expr.GT, expr.C("x"), expr.Int(2))},
		ProjCol{Name: "y", Expr: expr.NewArith(expr.Mul, expr.C("x"), expr.Int(10))},
	)
	got := runAll(t, p, false)
	if fmt.Sprint(got) != "[[30] [40] [50]]" {
		t.Fatalf("project = %v", got)
	}
}

func TestLimit(t *testing.T) {
	schema := intSchema("x")
	src := &source{schema: schema, batches: []*vector.Batch{
		makeBatch(schema, []int64{1, 2, 3}),
		makeBatch(schema, []int64{4, 5, 6}),
	}}
	got := runAll(t, &Limit{Child: src, N: 4}, false)
	if fmt.Sprint(got) != "[[1] [2] [3] [4]]" {
		t.Fatalf("limit = %v", got)
	}
}

// TestLimitKeepsGroupTag cuts a group stream mid-batch: the cut batch opens
// a new group, and it must carry that group's tag like every batch passed
// through whole, or a sandwich join above the limit sees an untagged probe
// batch and a flush-per-group aggregation folds it into the previous group.
func TestLimitKeepsGroupTag(t *testing.T) {
	schema := intSchema("x")
	src := groupedSource(schema, []uint64{3, 7}, []*vector.Batch{
		makeBatch(schema, []int64{1, 2, 3}),
		makeBatch(schema, []int64{4, 5, 6}),
	})
	lim := &Limit{Child: src, N: 5}
	if err := lim.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	defer lim.Close()
	var got []string
	for {
		b, err := lim.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		got = append(got, fmt.Sprintf("%d rows grouped=%v gid=%d", b.Len(), b.Grouped, b.GroupID))
	}
	if want := "[3 rows grouped=true gid=3 2 rows grouped=true gid=7]"; fmt.Sprint(got) != want {
		t.Fatalf("limit batches = %v, want %s", got, want)
	}
}

func TestMemTrackerPeak(t *testing.T) {
	m := &MemTracker{}
	m.Grow(100)
	m.Grow(50)
	m.Shrink(120)
	m.Grow(10)
	if m.Peak() != 150 {
		t.Fatalf("peak = %d, want 150", m.Peak())
	}
	if m.Current() != 40 {
		t.Fatalf("current = %d, want 40", m.Current())
	}
}

// NewProject is a convenience constructor.
func NewProject(child Operator, cols ...ProjCol) *Project {
	return &Project{Child: child, Cols: cols}
}
