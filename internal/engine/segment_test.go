package engine

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"bdcc/internal/expr"
	"bdcc/internal/vector"
)

// recutBuild returns in with its build side cut again: per group, the
// group's rows repeated in order until the group holds rows(n) of them (n:
// its own count), in group-tagged batches of sizes, cycling. A size of 0
// emits an empty batch.
func recutBuild(in *kernelInput, rows func(n int) int, sizes []int) *kernelInput {
	byGroup := map[uint64][]rowRef{}
	var gids []uint64
	for _, b := range in.build {
		if _, ok := byGroup[b.GroupID]; !ok {
			gids = append(gids, b.GroupID)
		}
		for r := 0; r < b.Len(); r++ {
			byGroup[b.GroupID] = append(byGroup[b.GroupID], rowRef{b, r})
		}
	}
	out := *in
	out.build = nil
	next := 0
	for _, g := range gids {
		src := byGroup[g]
		for i, n := 0, rows(len(src)); i < n; {
			size := sizes[next]
			next = (next + 1) % len(sizes)
			b := vector.NewBatch(in.bs.Kinds())
			b.Grouped, b.GroupID = true, g
			for ; b.Len() < size && i < n; i++ {
				b.AppendRow(src[i%len(src)].b, src[i%len(src)].r)
			}
			out.build = append(out.build, b)
		}
	}
	return &out
}

// TestSegmentBoundaryJoins holds every join to the reference when its build
// rows cross Buffer segments every way they can: batches of 0, 1, 1023, 1024
// and 1025 rows in turn over groups three times their natural size, and
// groups of exactly 1024·k rows in whole batches — for every key shape, a
// HashJoin and a SandwichHashJoin (whose group 1 holds over a segment of
// rows), as an inner join (gathers build rows), a left outer join with a
// residual over both sides, and an anti join with a build-side residual.
func TestSegmentBoundaryJoins(t *testing.T) {
	cuts := []struct {
		name  string
		rows  func(n int) int
		sizes []int
	}{
		{"ragged", func(n int) int { return 3 * n }, []int{0, 1, vector.BatchSize - 1, vector.BatchSize, vector.BatchSize + 1}},
		{"aligned", func(n int) int { return vector.BatchSize * ((n + vector.BatchSize - 1) / vector.BatchSize) }, []int{vector.BatchSize}},
	}
	for si, shape := range keyShapes {
		base := genKernelInput(shape, rand.New(rand.NewSource(int64(300+si))), false)
		for _, cut := range cuts {
			in := recutBuild(base, cut.rows, cut.sizes)
			probe, build, matches := in.keyMatches()
			if cut.name == "aligned" && len(build)%vector.BatchSize != 0 {
				t.Fatalf("%s: aligned build of %d rows", shape.name, len(build))
			}
			for i, typ := range []JoinType{InnerJoin, LeftOuterJoin, AntiJoin} {
				res := kernelResiduals[i] // none, cmp, like
				want := refJoin(in, probe, build, matches, typ, res.ref(len(shape.kinds)))
				label := fmt.Sprintf("%s/%s/type=%d/residual=%s", shape.name, cut.name, typ, res.name)
				requireSameRows(t, "HashJoin/"+label, drainBits(t, testCtx(), &HashJoin{
					Left: cloneSource(in.ps, in.probe), Right: cloneSource(in.bs, in.build),
					LeftKeys: shape.keyNames("l"), RightKeys: shape.keyNames("r"),
					Type: typ, Residual: res.mk()}), want)
				requireSameRows(t, "SandwichHashJoin/"+label, drainBits(t, testCtx(), &SandwichHashJoin{
					Left: cloneSource(in.ps, in.probe), Right: cloneSource(in.bs, in.build),
					LeftKeys: shape.keyNames("l"), RightKeys: shape.keyNames("r"),
					Type: typ, Residual: res.mk()}), want)
			}
		}
	}
}

// TestSortStableAcrossSegments sorts 3500 rows whose keys tie in runs that
// span three and more segments and checks the order against a stable sort
// of the same rows: ascending on a key of three values, descending on one
// of two, ties kept in input order.
func TestSortStableAcrossSegments(t *testing.T) {
	const n = 3500
	k3, k2, id := make([]int64, n), make([]string, n), make([]int64, n)
	for i := range n {
		k3[i], k2[i], id[i] = int64(i%3), fmt.Sprint("s", i%2), int64(i)
	}
	data := mkResult([]string{"k3", "k2", "id"}, i64Vec(k3...), strVec(k2...), i64Vec(id...))
	res, err := Run(testCtx(), &Sort{Child: &Values{Rows: data}, By: []SortSpec{{Col: "k2", Desc: true}, {Col: "k3"}}})
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(id)
	slices.SortStableFunc(want, func(a, b int64) int {
		return cmp.Or(cmp.Compare(k2[b], k2[a]), cmp.Compare(k3[a], k3[b]))
	})
	if got := res.Cols[2].I64; !slices.Equal(got, want) {
		t.Fatalf("sorted ids differ from the stable reference (first rows %v, want %v)", got[:8], want[:8])
	}
}

// TestMergeJoinRunAcrossSegments merges left rows against a right run of
// 2500 equal keys, which the run Buffer holds in three segments, and checks
// that every left row meets the whole run in order, cut into full batches.
func TestMergeJoinRunAcrossSegments(t *testing.T) {
	const run = 2500
	rk, rid := []int64{1}, []int64{-1}
	for i := range run {
		rk, rid = append(rk, 5), append(rid, int64(i))
	}
	rk, rid = append(rk, 9), append(rid, -2)
	left := mkResult([]string{"lk", "lid"}, i64Vec(1, 5, 5, 7, 9), i64Vec(10, 11, 12, 13, 14))
	right := mkResult([]string{"rk", "rid"}, i64Vec(rk...), i64Vec(rid...))
	res, err := Run(testCtx(), &MergeJoin{Left: &Values{Rows: left}, Right: &Values{Rows: right}, LeftKey: "lk", RightKey: "rk"})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	want = append(want, "10/-1")
	for _, l := range []int64{11, 12} {
		for i := range run {
			want = append(want, fmt.Sprintf("%d/%d", l, i))
		}
	}
	want = append(want, "14/-2")
	var got []string
	for r := 0; r < res.Rows(); r++ {
		got = append(got, fmt.Sprintf("%d/%d", res.Cols[1].I64[r], res.Cols[3].I64[r]))
	}
	requireSameRows(t, "MergeJoin", got, want)
}

// TestHashAggregateStringKeysAcrossSegments groups 3000 string keys, each
// twice, so the group-key Buffer holds three segments, groups in
// first-seen order.
func TestHashAggregateStringKeysAcrossSegments(t *testing.T) {
	const groups = 3000
	var keys, vals []string
	var pay []int64
	for rep := range 2 {
		for g := range groups {
			keys, vals, pay = append(keys, fmt.Sprint("key", (g*7)%groups)), append(vals, fmt.Sprint("v", g)), append(pay, int64(g+rep))
		}
	}
	data := mkResult([]string{"k", "v", "p"}, strVec(keys...), strVec(vals...), i64Vec(pay...))
	res, err := Run(testCtx(), &HashAggregate{Child: &Values{Rows: data}, GroupBy: []string{"k"},
		Aggs: []AggSpec{{Name: "n", Func: AggCount}, {Name: "s", Func: AggSum, Arg: expr.C("p")}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() != groups {
		t.Fatalf("%d groups, want %d", res.Rows(), groups)
	}
	for g := range groups {
		if k, want := res.Cols[0].Str[g], fmt.Sprint("key", (g*7)%groups); k != want || res.Cols[1].I64[g] != 2 || res.Cols[2].I64[g] != int64(2*g+1) {
			t.Fatalf("group %d = (%s, %d, %d), want (%s, 2, %d)", g, k, res.Cols[1].I64[g], res.Cols[2].I64[g], want, 2*g+1)
		}
	}
}

// TestJoinBuildAllocatesRowsOnce measures what a serial HashJoin build of
// 100 000 two-column Int64 rows over 4096 keys allocates, with the GC off
// for the measurement only. The rows are copied once into segments and the
// chain array is sized once, so the build allocates at most 1.15 × what it
// charges: the rows' logical bytes, a chain entry per row and the final slot
// arrays (the slots double as keys arrive, which the few keys keep small).
// A build that doubled its row buffer and appended its chains allocated ≈ 3×.
func TestJoinBuildAllocatesRowsOnce(t *testing.T) {
	const rows, keys = 100_000, 4096
	k, v := make([]int64, rows), make([]int64, rows)
	for i := range rows {
		k[i], v[i] = int64(i%keys), int64(i)
	}
	j := &HashJoin{Left: &Values{Rows: mkResult([]string{"lk"}, i64Vec())},
		Right:    &Values{Rows: mkResult([]string{"rk", "rv"}, i64Vec(k...), i64Vec(v...))},
		LeftKeys: []string{"lk"}, RightKeys: []string{"rk"}}
	ctx := testCtx()
	if err := j.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var before, after runtime.MemStats
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	runtime.ReadMemStats(&before)
	err := j.build()
	runtime.ReadMemStats(&after)
	debug.SetGCPercent(gc)
	if err != nil {
		t.Fatal(err)
	}
	want := 16*rows + 4*rows + j.probe.table.slots.Bytes()
	if charged := ctx.Mem.Current(); charged != want {
		t.Fatalf("build charges %d bytes, want %d (rows, chains, slots)", charged, want)
	}
	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("build allocated %d bytes for %d charged (%.2f×)", allocated, want, float64(allocated)/float64(want))
	if float64(allocated) > 1.15*float64(want) {
		t.Fatalf("build allocated %d bytes, over 1.15 × the %d it holds", allocated, want)
	}
}

// TestFlushOnGroupStatesAcrossSegments runs a sandwich aggregation whose
// groups hold 2500, 3 and 2000 keys, each key twice in a seeded order: the
// first group fills three state segments, and the later groups reuse them
// after a flush, so they match the reference only if every reused segment
// starts from zeroed states.
func TestFlushOnGroupStatesAcrossSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, shape := range []keyShape{keyShapes[0], keyShapes[3]} {
		in := &kernelInput{shape: shape, ps: shape.schema("l",
			expr.ColMeta{Name: "lid", Kind: vector.Int64}, expr.ColMeta{Name: "lpay", Kind: vector.Int64},
			expr.ColMeta{Name: "lf", Kind: vector.Float64})}
		var id int64
		for g, keys := range []int{2500, 3, 2000} {
			order := append(rng.Perm(keys), rng.Perm(keys)...)
			for lo := 0; lo < len(order); lo += vector.BatchSize {
				b := vector.NewBatch(in.ps.Kinds())
				b.Grouped, b.GroupID = true, uint64(g)
				for _, k := range order[lo:min(lo+vector.BatchSize, len(order))] {
					shape.appendKey(b, int64(g*10_000+k), 0)
					b.Cols[1].AppendInt64(id)
					b.Cols[2].AppendInt64(rng.Int63n(1000))
					b.Cols[3].AppendFloat64(rng.Float64())
					id++
				}
				in.probe = append(in.probe, b)
			}
		}
		requireSameRows(t, "FlushOnGroup/"+shape.name, drainBits(t, testCtx(), &HashAggregate{
			Child: cloneSource(in.ps, in.probe), GroupBy: shape.keyNames("l"), FlushOnGroup: true,
			Aggs: []AggSpec{
				{Name: "n", Func: AggCount},
				{Name: "si", Func: AggSum, Arg: expr.C("lpay")},
				{Name: "sf", Func: AggSum, Arg: expr.C("lf")},
				{Name: "mn", Func: AggMin, Arg: expr.C("lpay")},
				{Name: "mx", Func: AggMax, Arg: expr.C("lf")},
				{Name: "av", Func: AggAvg, Arg: expr.C("lf")},
			}}), refAgg(in))
	}
}

// TestAggStatesNeverExceedFlat opens 1 to 12 000 groups one at a time, with
// 1, 2 and 5 aggregates, twice over (the second time after a release), and
// checks after every group that the state segments' capacity is no more
// than that of one flat []aggState grown by the same appends, the layout
// the segments replaced: Figure 3 charges it, so no query's footprint can
// rise. It also checks addState's copy of append's growth rule, and that
// aggStateBytes, the size every state is charged at, is aggState's size.
func TestAggStatesNeverExceedFlat(t *testing.T) {
	if size := reflect.TypeOf(aggState{}).Size(); size != aggStateBytes {
		t.Fatalf("aggState is %d bytes, charged as aggStateBytes = %d", size, aggStateBytes)
	}
	schema := intSchema("k")
	for _, n := range []int{1, 2, 5} {
		aggs := make([]AggSpec, n)
		for i := range aggs {
			aggs[i] = AggSpec{Name: fmt.Sprint("n", i), Func: AggCount}
		}
		at := newAggTable(aggs, []int{0}, schema)
		var flat []aggState
		for round, groups := range []int{10_000, 12_000} {
			at.release(&MemTracker{})
			flat = flat[:0]
			b := vector.NewBatch(schema.Kinds())
			for g := range groups {
				if g%vector.BatchSize == 0 {
					b.Reset()
					for k := g; k < g+vector.BatchSize; k++ {
						b.Cols[0].AppendInt64(int64(k))
					}
				}
				at.newGroup(b, g%vector.BatchSize)
				for range n {
					flat = append(flat, aggState{})
				}
				held := 0
				for _, seg := range at.states {
					held += cap(seg)
				}
				if held > cap(flat) {
					t.Fatalf("aggs=%d round=%d groups=%d: segments hold %d states, a flat array %d", n, round, g+1, held, cap(flat))
				}
				if at.stateCap != cap(flat) {
					t.Fatalf("aggs=%d round=%d groups=%d: stateCap %d, append grew the flat array to %d", n, round, g+1, at.stateCap, cap(flat))
				}
			}
		}
	}
}
