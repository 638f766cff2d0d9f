package tpch

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"bdcc/internal/engine"
	"bdcc/internal/iosim"
	"bdcc/internal/plan"
	"bdcc/internal/serve"
)

// startDaemon mounts the benchmark behind a loopback bdccd: the serve
// layer's admission gate and memory governor in front of a Service over the
// shared fixture catalog. Returns the server (for counters), its address,
// and the service (for cache stats).
func startDaemon(t *testing.T, b *Benchmark, cfg serve.Config) (*serve.Server, string, *Service) {
	t.Helper()
	svc := NewService(b)
	dev := iosim.PaperSSD()
	if cfg.NewContext == nil {
		workers := cfg.Workers
		cfg.NewContext = func() *engine.Context {
			return engine.Options{Workers: workers}.NewContext(dev)
		}
	}
	cfg.Handler = svc.Handle
	s := serve.NewServer(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return s, l.Addr().String(), svc
}

// TestDaemonMemoryGovernanceQueues pins the governed path under pressure: a
// process budget sized for about one and a half heavy queries makes
// concurrent queries wait for each other's releases (or, when they
// interlock mid-growth, shed one after the bounded wait) — the budget's
// summed reservations never exceed the limit, governance provably engaged,
// a rejected query is a typed rejection that succeeds on retry, and every
// result stays byte-identical.
func TestDaemonMemoryGovernanceQueues(t *testing.T) {
	b := benchmarkFixture(t)
	heavy := Query(13) // the paper's memory-figure query: largest plain-scheme build
	want, stHeavy, _, err := RunQuery(b.DBs[plan.Plain], heavy)
	if err != nil {
		t.Fatal(err)
	}
	const quantum = 64 << 10
	// One query always fits (peak plus rounding headroom); two concurrent
	// ones exceed the limit and must queue for each other's releases.
	budget := stHeavy.PeakMem + stHeavy.PeakMem/2
	if budget < 8*quantum {
		budget = 8 * quantum
	}
	// Two pools bound the budget's concurrent consumers: one query always
	// fits, so an interlocked pair resolves as soon as the bounded wait
	// sheds one — the survivor finishes and the shed query's retry lands on
	// a mostly free budget.
	srv, addr, _ := startDaemon(t, b, serve.Config{
		Pools: 2, QueueCap: 16, QueueWait: time.Minute,
		MemBudget: budget, MemWait: 500 * time.Millisecond, MemQuantum: quantum,
	})
	const clients, rounds = 4, 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	var retried int64
	var retriedMu sync.Mutex
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := serve.Dial(addr, "")
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for r := 0; r < rounds; r++ {
				var res *engine.Result
				for attempt := 0; ; attempt++ {
					res, err = c.Query("plain", heavy.Name)
					if err == nil {
						break
					}
					// Concurrent queries that interlock mid-growth are shed
					// by the bounded wait as typed rejections; a closed-loop
					// client retries and must eventually get through.
					if !errors.Is(err, serve.ErrRejected) || attempt >= 30 {
						errs <- fmt.Errorf("governed %s (attempt %d): %w", heavy.Name, attempt, err)
						return
					}
					retriedMu.Lock()
					retried++
					retriedMu.Unlock()
					// Linear backoff keeps shed queries from re-creating the
					// same interlock immediately.
					time.Sleep(time.Duration(attempt+1) * 50 * time.Millisecond)
				}
				if diff := identical(res, want); diff != "" {
					errs <- fmt.Errorf("governed %s: %s", heavy.Name, diff)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	bud := srv.Budget()
	if got := bud.PeakReserved(); got > budget {
		t.Errorf("summed reservations peaked at %d, above the %d budget — governance is not a hard bound", got, budget)
	}
	if bud.Queued() == 0 && bud.Rejected() == 0 {
		t.Errorf("budget %d (1.5x the %d heavy peak) neither queued nor rejected any reservation across %d concurrent clients — governance did not engage",
			budget, stHeavy.PeakMem, clients)
	}
	if got := bud.Reserved(); got != 0 {
		t.Errorf("budget still holds %d bytes after all queries unwound", got)
	}
	if retried > 0 {
		t.Logf("governance shed and re-admitted %d request(s) under pressure", retried)
	}
}

// TestDaemonTinyBudgetRejects pins rejection under a budget too small for
// the heavy query: it is refused with the typed rejection (not a failure),
// while light queries keep being served by the same daemon.
func TestDaemonTinyBudgetRejects(t *testing.T) {
	b := benchmarkFixture(t)
	heavy, light := Query(13), Query(6)
	_, stHeavy, _, err := RunQuery(b.DBs[plan.Plain], heavy)
	if err != nil {
		t.Fatal(err)
	}
	_, stLight, _, err := RunQuery(b.DBs[plan.Plain], light)
	if err != nil {
		t.Fatal(err)
	}
	const quantum = 16 << 10
	budget := stHeavy.PeakMem / 2
	if floor := stLight.PeakMem + 4*quantum; budget < floor {
		t.Skipf("heavy peak %d and light peak %d do not separate at this scale", stHeavy.PeakMem, stLight.PeakMem)
	}
	srv, addr, _ := startDaemon(t, b, serve.Config{
		Pools: 2, QueueCap: 16, QueueWait: time.Minute,
		MemBudget: budget, MemWait: 0, MemQuantum: quantum,
	})
	c, err := serve.Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("plain", heavy.Name); !errors.Is(err, serve.ErrRejected) {
		t.Fatalf("over-budget %s returned %v, want the typed rejection", heavy.Name, err)
	}
	if _, err := c.Query("plain", light.Name); err != nil {
		t.Fatalf("daemon stopped serving after a memory rejection: %v", err)
	}
	st := srv.Stats()
	if st.MemRejected == 0 {
		t.Errorf("budget recorded no rejection: %+v", st)
	}
	if got := srv.Budget().Reserved(); got != 0 {
		t.Errorf("budget still holds %d bytes after the rejected query unwound", got)
	}
}

// TestRunConcurrencyFailsOnQueryError: the closed-loop leg reports its
// measurement when every request succeeds and fails the run when a request
// fails other than by rejection.
func TestRunConcurrencyFailsOnQueryError(t *testing.T) {
	b := benchmarkFixture(t)
	_, addr, _ := startDaemon(t, b, serve.Config{Pools: 2, Workers: 1, QueueCap: 8, QueueWait: time.Minute})
	st, err := RunConcurrency(addr, "", plan.BDCC, []string{"Q06"}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 2 || st.QPS <= 0 {
		t.Fatalf("two clients issuing Q06 once recorded %d requests at %.1f qps", st.Requests, st.QPS)
	}
	if _, err := RunConcurrency(addr, "", plan.BDCC, []string{"Q06", "Q99"}, 2, 1); err == nil {
		t.Fatal("requests for an unknown query did not fail the run")
	}
}

// TestDaemonCacheKeepsNewestEpoch appends between Handle calls: the plan cache
// must hold one entry per query however many versions were planned, and a
// superseded version's memo — here Q15's materialized view — must become
// garbage once a newer version replaced it.
func TestDaemonCacheKeepsNewestEpoch(t *testing.T) {
	b, err := NewBenchmarkCompressed(0.01, true, plan.BDCC)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.EnableIngest(0, 0); err != nil {
		t.Fatal(err)
	}
	svc := NewService(b)
	newCtx := func() *engine.Context { return engine.Options{Workers: 1}.NewContext(iosim.PaperSSD()) }
	queries := []string{"Q03", "Q15"}
	gen := NewDeltaGen(b.Data, 3)
	collected := make(chan struct{})
	for round := range 3 {
		for _, q := range queries {
			if _, err := svc.Handle(newCtx(), "BDCC", q); err != nil {
				t.Fatalf("round %d %s: %v", round, q, err)
			}
		}
		if n := svc.cache.Len(); n != len(queries) {
			t.Fatalf("round %d: %d cache entries, want %d", round, n, len(queries))
		}
		if round == 0 {
			db := b.DBs[plan.BDCC]
			lease := svc.cache.Acquire(plan.CacheKey{Query: "Q15", Schema: fmt.Sprintf("%s/sf%g", db.Scheme, b.SF),
				Epoch: db.Epoch(), Knobs: knobs(newCtx())})
			sub, _ := lease.Sub.(*subMemo)
			if !lease.Hit() || sub == nil || len(sub.mats) == 0 {
				t.Fatal("Q15's memo holds no materialized view")
			}
			runtime.AddCleanup(sub.mats[0], func(ch chan struct{}) { close(ch) }, collected)
		}
		if err := b.AppendBatch(gen.Next(30)); err != nil {
			t.Fatal(err)
		}
	}
	for range 10 {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
	t.Fatal("the superseded epoch's materialized view is still reachable")
}
