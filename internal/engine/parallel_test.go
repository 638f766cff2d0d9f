package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"bdcc/internal/expr"
	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// parCtx returns a context with the workers knob set.
func parCtx(workers int) *Context {
	c := testCtx()
	c.Workers = workers
	return c
}

// renderRows materializes a result as ordered row strings (no sorting: the
// parallel paths must reproduce the serial row order exactly).
func renderRows(r *Result) []string {
	out := make([]string, r.Rows())
	for i := range out {
		out[i] = fmt.Sprint(r.Row(i))
	}
	return out
}

// requireIdentical fails unless got reproduces want row-for-row.
func requireIdentical(t *testing.T, got, want *Result, label string) {
	t.Helper()
	g, w := renderRows(got), renderRows(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, serial has %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d = %s, serial has %s", label, i, g[i], w[i])
		}
	}
}

// parTestTables builds a probe/build table pair with skewed join keys,
// string payloads, and enough rows to span many batches and morsels.
func parTestTables() (*storage.Table, *storage.Table) {
	rng := rand.New(rand.NewSource(42))
	const nL, nR = 60000, 4000
	lKey := make([]int64, nL)
	lPay := make([]float64, nL)
	lStr := make([]string, nL)
	for i := range lKey {
		// Skew: a few keys match many build rows, many keys miss entirely.
		switch i % 5 {
		case 0:
			lKey[i] = rng.Int63n(16)
		default:
			lKey[i] = rng.Int63n(2 * nR)
		}
		lPay[i] = float64(i) * 0.25
		lStr[i] = fmt.Sprintf("l%d", i%97)
	}
	rKey := make([]int64, nR)
	rPay := make([]int64, nR)
	for i := range rKey {
		rKey[i] = int64(i % (nR / 2)) // every key twice
		rPay[i] = int64(i) * 3
	}
	left := storage.MustNewTable("pl", 4096,
		storage.NewInt64Column("lkey", lKey),
		storage.NewFloat64Column("lpay", lPay),
		storage.NewStringColumn("lstr", lStr))
	right := storage.MustNewTable("pr", 4096,
		storage.NewInt64Column("rkey", rKey),
		storage.NewInt64Column("rpay", rPay))
	return left, right
}

// TestParallelTableScanMatchesSerial checks the morsel-parallel filtered
// scan reproduces the serial scan byte-identically (same rows, same order)
// and leaves the memory tracker balanced.
func TestParallelTableScanMatchesSerial(t *testing.T) {
	left, _ := parTestTables()
	mkScan := func(ctx *Context) *Scan {
		return &Scan{
			Table:  left,
			Cols:   []string{"lkey", "lpay", "lstr"},
			Filter: expr.NewCmp(expr.LT, expr.C("lkey"), expr.Int(3000)),
			Sched:  ctx.Scheduler(),
		}
	}
	serialCtx := parCtx(1)
	serial, err := Run(serialCtx, mkScan(serialCtx))
	if err != nil {
		t.Fatal(err)
	}
	if serial.Rows() == 0 {
		t.Fatal("filter selects nothing — vacuous test")
	}
	for _, workers := range []int{2, 4, 7} {
		ctx := parCtx(workers)
		par, err := Run(ctx, mkScan(ctx))
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, par, serial, fmt.Sprintf("workers=%d", workers))
		if cur := ctx.Mem.Current(); cur != 0 {
			t.Fatalf("workers=%d: %d bytes still accounted after Close", workers, cur)
		}
	}
}

// TestParallelTableScanEarlyClose checks a parallel scan shut down before
// exhaustion (a Limit upstream) terminates its workers and releases all
// accounted bytes.
func TestParallelTableScanEarlyClose(t *testing.T) {
	left, _ := parTestTables()
	ctx := parCtx(4)
	scan := &Scan{
		Table:  left,
		Cols:   []string{"lkey", "lstr"},
		Filter: expr.NewCmp(expr.GE, expr.C("lkey"), expr.Int(0)),
		Sched:  ctx.Scheduler(),
	}
	lim := &Limit{Child: scan, N: 10}
	res, err := Run(ctx, lim)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() != 10 {
		t.Fatalf("limit returned %d rows, want 10", res.Rows())
	}
	if cur := ctx.Mem.Current(); cur != 0 {
		t.Fatalf("%d bytes still accounted after early close", cur)
	}
}

// TestParallelHashJoinMatchesSerial checks every join type, with and
// without a residual, over a morsel-parallel probe scan: the join builds and
// probes on the goroutine that drives it, so at 2, 4 and 5 workers it must
// reproduce the serial rows in order with a balanced memory tracker.
func TestParallelHashJoinMatchesSerial(t *testing.T) {
	left, right := parTestTables()
	mkJoin := func(typ JoinType, residual bool, ctx *Context) *HashJoin {
		j := &HashJoin{
			Left: &Scan{Table: left, Cols: []string{"lkey", "lpay", "lstr"},
				Filter: expr.NewCmp(expr.GE, expr.C("lkey"), expr.Int(0)), Sched: ctx.Scheduler()},
			Right:    &Scan{Table: right, Cols: []string{"rkey", "rpay"}},
			LeftKeys: []string{"lkey"}, RightKeys: []string{"rkey"},
			Type: typ,
		}
		if residual {
			j.Residual = expr.NewCmp(expr.GT,
				expr.NewArith(expr.Add, expr.C("lpay"), expr.C("rpay")), expr.Float(50))
			if typ == SemiJoin || typ == AntiJoin {
				j.Residual = expr.NewCmp(expr.GT, expr.C("rpay"), expr.Int(100))
			}
		}
		return j
	}
	for _, typ := range []JoinType{InnerJoin, LeftOuterJoin, SemiJoin, AntiJoin} {
		for _, residual := range []bool{false, true} {
			name := fmt.Sprintf("type=%d/residual=%v", typ, residual)
			t.Run(name, func(t *testing.T) {
				serialCtx := parCtx(1)
				serial, err := Run(serialCtx, mkJoin(typ, residual, serialCtx))
				if err != nil {
					t.Fatal(err)
				}
				if serial.Rows() == 0 && typ != AntiJoin {
					t.Fatal("serial join returned no rows — vacuous test")
				}
				for _, workers := range []int{2, 4, 5} {
					ctx := parCtx(workers)
					par, err := Run(ctx, mkJoin(typ, residual, ctx))
					if err != nil {
						t.Fatal(err)
					}
					requireIdentical(t, par, serial, fmt.Sprintf("%s workers=%d", name, workers))
					if cur := ctx.Mem.Current(); cur != 0 {
						t.Fatalf("workers=%d: %d bytes still accounted after Close", workers, cur)
					}
				}
			})
		}
	}
}

// TestParallelHashAggregateMatchesSerial checks the aggregation of a
// morsel-parallel scan against the serial run across every aggregate
// function, including bit-exact float sums and the first-seen emission
// order: the exchange hands the aggregate its batches in input order.
func TestParallelHashAggregateMatchesSerial(t *testing.T) {
	left, _ := parTestTables()
	mkAgg := func(ctx *Context) *HashAggregate {
		return &HashAggregate{
			Child: &Scan{Table: left, Cols: []string{"lkey", "lpay", "lstr"},
				Filter: expr.NewCmp(expr.GE, expr.C("lkey"), expr.Int(0)), Sched: ctx.Scheduler()},
			GroupBy: []string{"lkey"},
			Aggs: []AggSpec{
				{Name: "c", Func: AggCount},
				{Name: "s", Func: AggSum, Arg: expr.C("lpay")},
				{Name: "a", Func: AggAvg, Arg: expr.C("lpay")},
				{Name: "mn", Func: AggMin, Arg: expr.C("lstr")},
				{Name: "mx", Func: AggMax, Arg: expr.C("lpay")},
			},
		}
	}
	serialCtx := parCtx(1)
	serial, err := Run(serialCtx, mkAgg(serialCtx))
	if err != nil {
		t.Fatal(err)
	}
	if serial.Rows() <= vector.BatchSize {
		t.Fatalf("%d groups, want more than one segment of states", serial.Rows())
	}
	for _, workers := range []int{2, 4, 5} {
		ctx := parCtx(workers)
		par, err := Run(ctx, mkAgg(ctx))
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, par, serial, fmt.Sprintf("workers=%d", workers))
		if cur := ctx.Mem.Current(); cur != 0 {
			t.Fatalf("workers=%d: %d bytes still accounted after Close", workers, cur)
		}
	}
	// Bit-exact float check on top of the string rendering.
	ctx := parCtx(4)
	par, err := Run(ctx, mkAgg(ctx))
	if err != nil {
		t.Fatal(err)
	}
	si, pi := serial.Schema.IndexOf("s"), par.Schema.IndexOf("s")
	for r := 0; r < serial.Rows(); r++ {
		if serial.Cols[si].F64[r] != par.Cols[pi].F64[r] {
			t.Fatalf("row %d: parallel float sum %v != serial %v (must be bit-identical)",
				r, par.Cols[pi].F64[r], serial.Cols[si].F64[r])
		}
	}
}

// TestParallelGlobalAggregate checks the degenerate zero-key aggregation
// (one global group) under the parallel path.
func TestParallelGlobalAggregate(t *testing.T) {
	left, _ := parTestTables()
	mkAgg := func(ctx *Context) *HashAggregate {
		return &HashAggregate{
			Child: &Scan{Table: left, Cols: []string{"lkey", "lpay"},
				Filter: expr.NewCmp(expr.GE, expr.C("lkey"), expr.Int(0)), Sched: ctx.Scheduler()},
			GroupBy: nil,
			Aggs: []AggSpec{
				{Name: "c", Func: AggCount},
				{Name: "s", Func: AggSum, Arg: expr.C("lpay")},
			},
		}
	}
	serialCtx := parCtx(1)
	serial, err := Run(serialCtx, mkAgg(serialCtx))
	if err != nil {
		t.Fatal(err)
	}
	parCtx4 := parCtx(4)
	par, err := Run(parCtx4, mkAgg(parCtx4))
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, par, serial, "global agg")
}

// TestHashJoinMemAccountingBalanced locks in the Grow/Shrink symmetry of
// the hash join, serially and over a morsel-parallel probe scan: after Run
// and Close the tracker must be exactly balanced, with a positive peak
// recorded for the build.
func TestHashJoinMemAccountingBalanced(t *testing.T) {
	left, right := parTestTables()
	for _, workers := range []int{1, 4} {
		ctx := parCtx(workers)
		j := &HashJoin{
			Left: &Scan{Table: left, Cols: []string{"lkey", "lpay"},
				Filter: expr.NewCmp(expr.GE, expr.C("lkey"), expr.Int(0)), Sched: ctx.Scheduler()},
			Right:    &Scan{Table: right, Cols: []string{"rkey", "rpay"}},
			LeftKeys: []string{"lkey"}, RightKeys: []string{"rkey"},
			Type: InnerJoin,
		}
		if _, err := Run(ctx, j); err != nil {
			t.Fatal(err)
		}
		if cur := ctx.Mem.Current(); cur != 0 {
			t.Fatalf("workers=%d: join leaked %d accounted bytes", workers, cur)
		}
		if ctx.Mem.Peak() <= 0 {
			t.Fatalf("workers=%d: no build memory recorded", workers)
		}
	}
}

// TestJoinTable exercises the join table directly: chains stay in insertion
// order per key under the presized insert, in both key shapes.
func TestJoinTable(t *testing.T) {
	const n = 3000
	keys := vector.NewVector(vector.Int64, n)
	for r := int64(0); r < n; r++ {
		keys.AppendInt64(r % 500)
	}
	for _, keyed := range []bool{true, false} {
		hashes := make([]uint64, n)
		for r, k := range keys.I64 {
			if hashes[r] = vector.HashInt64(k); !keyed {
				hashes[r] = vector.Mix64(uint64(k)) // a hash-storing table works under any hash
			}
		}
		label := fmt.Sprintf("keyed=%v", keyed)
		jt := newJoinTable(keyed)
		eq := int64KeyEq(keys)
		jt.GrowChains(n)
		jt.slots.presize(500)
		jt.insertRows(hashes, 0, &eq)
		if jt.Len() != n {
			t.Fatalf("%s: table indexes %d rows, want %d", label, jt.Len(), n)
		}
		heads := make([]int32, 500)
		jt.lookupRows(hashes[:500], &eq, heads) // rows 0..499 hold keys 0..499
		var scratch []int32
		for k, head := range heads {
			if head < 0 {
				t.Fatalf("%s: key %d not found", label, k)
			}
			scratch = jt.Matches(head, scratch[:0])
			if len(scratch) != n/500 {
				t.Fatalf("%s: key %d: %d matches, want %d", label, k, len(scratch), n/500)
			}
			for i, r := range scratch {
				if keys.I64[r] != int64(k) || (i > 0 && r <= scratch[i-1]) {
					t.Fatalf("%s: key %d: matches not its rows in insertion order: %v", label, k, scratch)
				}
			}
		}
		if jt.Bytes() <= 0 {
			t.Fatal("join table reports non-positive footprint")
		}
	}
}
