package engine

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"bdcc/internal/core"
	"bdcc/internal/expr"
	"bdcc/internal/vector"
)

// pipelineQuery builds a scan→join→agg pipeline over a morsel-parallel
// probe scan: the scan submits to the context's shared scheduler, and the
// join and the aggregation run on the goroutine that drives them.
func pipelineQuery(ctx *Context) Operator {
	left, right := parTestTables()
	scan := &Scan{
		Table:  left,
		Cols:   []string{"lkey", "lpay", "lstr"},
		Filter: expr.NewCmp(expr.GE, expr.C("lkey"), expr.Int(0)),
		Sched:  ctx.Scheduler(),
	}
	join := &HashJoin{
		Left:     scan,
		Right:    &Scan{Table: right, Cols: []string{"rkey", "rpay"}},
		LeftKeys: []string{"lkey"}, RightKeys: []string{"rkey"},
		Type: InnerJoin,
	}
	return &HashAggregate{
		Child:   join,
		GroupBy: []string{"lkey"},
		Aggs: []AggSpec{
			{Name: "c", Func: AggCount},
			{Name: "s", Func: AggSum, Arg: expr.C("rpay")},
		},
	}
}

// TestPipelineGoroutineBudget asserts the pool's invariant: a
// scan→join→agg pipeline runs its one parallel operator, the scan, on the
// query's shared pool and the rest on the goroutine that drives it, so total
// goroutines stay within Workers plus a small constant of coordinators (the
// scan's feeder, the sampler) — no per-stage oversubscription.
func TestPipelineGoroutineBudget(t *testing.T) {
	const workers = 8
	const slack = 4 // scan feeder + sampler + runtime jitter
	base := runtime.NumGoroutine()
	ctx := parCtx(workers)

	stop := make(chan struct{})
	peak := make(chan int, 1)
	go func() { // sampler
		maxG := 0
		for {
			select {
			case <-stop:
				peak <- maxG
				return
			default:
				if g := runtime.NumGoroutine(); g > maxG {
					maxG = g
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	serialCtx := parCtx(1)
	serial, err := Run(serialCtx, pipelineQuery(serialCtx))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ctx, pipelineQuery(ctx))
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	maxG := <-peak
	requireIdentical(t, res, serial, "pipeline")
	if got := maxG - base; got > workers+slack {
		t.Fatalf("pipeline peaked at %d extra goroutines, want ≤ workers(%d)+%d — per-stage pools are back",
			got, workers, slack)
	}
	waitGoroutines(t, base+2)
}

// waitGoroutines polls until the process goroutine count drops to at most
// want (pool workers exit asynchronously after the last release).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("%d goroutines still alive, want ≤ %d\n%s", runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}

// errAfter passes its child's batches through and fails with a fixed error
// after n batches — a consumer erroring mid-stream above a parallel
// producer.
type errAfter struct {
	child Operator
	n     int
	err   error
}

func (e *errAfter) Schema() expr.Schema     { return e.child.Schema() }
func (e *errAfter) Open(ctx *Context) error { return e.child.Open(ctx) }
func (e *errAfter) Close() error            { return e.child.Close() }
func (e *errAfter) Next() (*vector.Batch, error) {
	if e.n <= 0 {
		return nil, e.err
	}
	e.n--
	return e.child.Next()
}

// TestErrorMidStreamJoinsProducers locks in the goroutine-leak fix: when
// the consumer of an exchange errors mid-stream — directly, above a join of
// the parallel scan, or below an aggregation of it — Close must drain and
// join every producer (pool tasks, feeders, pool workers) and leave the
// memory tracker balanced.
func TestErrorMidStreamJoinsProducers(t *testing.T) {
	base := runtime.NumGoroutine()
	boom := errors.New("boom")
	for _, shape := range []string{"scan", "join", "agg"} {
		shape := shape
		t.Run(shape, func(t *testing.T) {
			left, right := parTestTables()
			ctx := parCtx(4)
			scan := &Scan{
				Table:  left,
				Cols:   []string{"lkey", "lpay", "lstr"},
				Filter: expr.NewCmp(expr.GE, expr.C("lkey"), expr.Int(0)),
				Sched:  ctx.Scheduler(),
			}
			var op Operator
			switch shape {
			case "scan":
				op = &errAfter{child: scan, n: 2, err: boom}
			case "join":
				op = &errAfter{child: &HashJoin{
					Left:     scan,
					Right:    &Scan{Table: right, Cols: []string{"rkey", "rpay"}},
					LeftKeys: []string{"lkey"}, RightKeys: []string{"rkey"},
					Type: InnerJoin,
				}, n: 2, err: boom}
			case "agg":
				op = &HashAggregate{
					Child:   &errAfter{child: scan, n: 2, err: boom},
					GroupBy: []string{"lkey"},
					Aggs:    []AggSpec{{Name: "c", Func: AggCount}, {Name: "mn", Func: AggMin, Arg: expr.C("lstr")}},
				}
			}
			if _, err := Run(ctx, op); !errors.Is(err, boom) {
				t.Fatalf("Run returned %v, want the mid-stream error", err)
			}
			if cur := ctx.Mem.Current(); cur != 0 {
				t.Fatalf("%d bytes still accounted after mid-stream error", cur)
			}
			waitGoroutines(t, base+2)
		})
	}
}

// TestSchedulerStats checks the tpchbench -v counters: tasks flow through
// the pool, and the snapshot is monotonic across a query.
func TestSchedulerStats(t *testing.T) {
	ctx := parCtx(4)
	if _, err := Run(ctx, pipelineQuery(ctx)); err != nil {
		t.Fatal(err)
	}
	st := ctx.Scheduler().Stats()
	if st.Tasks == 0 {
		t.Fatal("no tasks recorded for a fully parallel pipeline")
	}
	if st.Steals < 0 || st.Idle < 0 {
		t.Fatalf("negative counters: %+v", st)
	}
}

// TestSchedulerWorkerReuse checks the pool respawns cleanly after going
// idle: two queries on one context reuse the same scheduler.
func TestSchedulerWorkerReuse(t *testing.T) {
	ctx := parCtx(3)
	s := ctx.Scheduler()
	for i := 0; i < 2; i++ {
		if _, err := Run(ctx, pipelineQuery(ctx)); err != nil {
			t.Fatal(err)
		}
	}
	if got := ctx.Scheduler(); got != s {
		t.Fatal("context rebuilt its scheduler between queries")
	}
	if st := s.Stats(); st.Tasks == 0 {
		t.Fatal("no tasks recorded")
	}
}

// parallelGroupedScan is groupedScan as a morsel-parallel filtered scan at
// the context's worker count (its filter keeps every row).
func parallelGroupedScan(t *testing.T, ctx *Context, bt *core.BDCCTable, cols []string) *Scan {
	t.Helper()
	s := groupedScan(t, bt, cols)
	s.Filter = expr.NewCmp(expr.GE, expr.C(cols[0]), expr.Int(0))
	s.Sched = ctx.Scheduler()
	return s
}

// TestSandwichJoinParallelMatchesSerial checks the sandwich join over
// morsel-parallel grouped scans on both sides against its serial run for
// every join type, with and without residuals: the join streams on the
// goroutine that drives it, so at 2, 4 and 5 workers it must return
// identical rows in identical order with identical group tags, and leave a
// balanced tracker.
func TestSandwichJoinParallelMatchesSerial(t *testing.T) {
	left, right, _ := coClusteredPair(t, 30000, 700)
	for _, typ := range []JoinType{InnerJoin, LeftOuterJoin, SemiJoin, AntiJoin} {
		typ := typ
		for _, residual := range []bool{false, true} {
			residual := residual
			t.Run(fmt.Sprintf("type=%d/residual=%v", typ, residual), func(t *testing.T) {
				mk := func(ctx *Context) *SandwichHashJoin {
					sj := &SandwichHashJoin{
						Left:     parallelGroupedScan(t, ctx, left, []string{"lkey", "lid"}),
						Right:    parallelGroupedScan(t, ctx, right, []string{"rkey", "rpay"}),
						LeftKeys: []string{"lkey"}, RightKeys: []string{"rkey"},
						Type: typ,
					}
					if residual {
						sj.Residual = expr.NewCmp(expr.GT, expr.C("rpay"), expr.Int(40))
						if typ == SemiJoin || typ == AntiJoin {
							sj.Residual = expr.NewCmp(expr.GT, expr.C("rpay"), expr.Int(10))
						}
					}
					return sj
				}
				serialCtx := parCtx(1)
				serial, err := Run(serialCtx, mk(serialCtx))
				if err != nil {
					t.Fatal(err)
				}
				if serial.Rows() == 0 && typ != AntiJoin {
					t.Fatal("serial sandwich join returned no rows — vacuous test")
				}
				for _, workers := range []int{2, 4, 5} {
					ctx := parCtx(workers)
					par, err := Run(ctx, mk(ctx))
					if err != nil {
						t.Fatal(err)
					}
					requireIdentical(t, par, serial, fmt.Sprintf("workers=%d", workers))
					if cur := ctx.Mem.Current(); cur != 0 {
						t.Fatalf("workers=%d: %d bytes still accounted after Close", workers, cur)
					}
				}
			})
		}
	}
}

// TestSandwichJoinParallelEarlyClose checks a sandwich join over
// morsel-parallel grouped scans shuts both scans down cleanly when the
// consumer stops early.
func TestSandwichJoinParallelEarlyClose(t *testing.T) {
	base := runtime.NumGoroutine()
	left, right, _ := coClusteredPair(t, 30000, 700)
	ctx := parCtx(4)
	sj := &SandwichHashJoin{
		Left:     parallelGroupedScan(t, ctx, left, []string{"lkey", "lid"}),
		Right:    parallelGroupedScan(t, ctx, right, []string{"rkey", "rpay"}),
		LeftKeys: []string{"lkey"}, RightKeys: []string{"rkey"},
		Type: InnerJoin,
	}
	res, err := Run(ctx, &Limit{Child: sj, N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() != 5 {
		t.Fatalf("limit returned %d rows, want 5", res.Rows())
	}
	if cur := ctx.Mem.Current(); cur != 0 {
		t.Fatalf("%d bytes still accounted after early close", cur)
	}
	waitGoroutines(t, base+2)
}
