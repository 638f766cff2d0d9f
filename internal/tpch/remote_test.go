package tpch

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"bdcc/internal/engine"
	"bdcc/internal/plan"
	"bdcc/internal/shard"
)

// startWorkers launches n in-process bdccworker servers on loopback TCP and
// returns them with their dialable addresses.
func startWorkers(t *testing.T, n, workers int) ([]*shard.Server, []string) {
	t.Helper()
	srvs := make([]*shard.Server, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := shard.NewServer(workers)
		go srv.Serve(l)
		t.Cleanup(func() { srv.Close() })
		srvs[i], addrs[i] = srv, l.Addr().String()
	}
	return srvs, addrs
}

// assertSameResult requires got to be byte-identical to want: the same
// columns, the same rows in the same order, floats bit for bit.
func assertSameResult(t *testing.T, label string, got, want *engine.Result) {
	t.Helper()
	if diff := identical(got, want); diff != "" {
		t.Fatalf("%s: %s", label, diff)
	}
}

// TestRemoteReadmissionMidQuery is the recovery counterpart of
// TestRemoteFailoverMidQuery: the victim worker is killed after its second
// completed unit AND restarted on the same address while the query still
// runs, so the health prober re-admits it mid-query and it serves units
// again. Results must stay byte-identical to the serial oracle under every
// scheme; under BDCC (the only scheme that ships group streams) the run
// must additionally prove the re-admission through the health counters.
// The counter half is timing-sensitive — the query must outlive the
// restart — so that half retries a few times; equivalence is asserted on
// every attempt unconditionally.
func TestRemoteReadmissionMidQuery(t *testing.T) {
	b := benchmarkFixture(t)
	for _, qn := range []int{9, 13} {
		q := Query(qn)
		for _, scheme := range []plan.Scheme{plan.Plain, plan.PK, plan.BDCC} {
			scheme := scheme
			t.Run(fmt.Sprintf("%s/%s", q.Name, scheme), func(t *testing.T) {
				serial, _, _, err := RunQueryOpts(b.DBs[scheme], q, RunOptions{Workers: 1, Shards: 1})
				if err != nil {
					t.Fatal(err)
				}
				if scheme != plan.BDCC {
					// No group streams to ship: the workers stay idle and the
					// kill/restart machinery has nothing to bite on — the run
					// must simply match.
					_, addrs := startWorkers(t, 2, 2)
					remote, _, _, err := RunQueryOpts(b.DBs[scheme], q,
						RunOptions{Workers: 2, Remotes: addrs})
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, fmt.Sprintf("%s under %s", q.Name, scheme), remote, serial)
					return
				}
				for attempt := 1; ; attempt++ {
					if runReadmitScenario(t, b.DBs[scheme], q, serial) {
						return
					}
					if attempt == 3 {
						t.Fatalf("%s: no mid-query re-admission observed in %d attempts", q.Name, attempt)
					}
				}
			})
		}
	}
}

// runReadmitScenario runs one kill → restart → re-admit pass of q: two
// back-to-back runs of the query through one environment — one session,
// one backend set. Both workers are throttled so run 1 outlives the
// recovery window; the victim is killed after its first completed unit and
// immediately replaced by a fresh server on the same address, which the
// prober re-admits while the session lives. Run 2 then routes its units
// over the recovered set, proving the re-admitted worker serves units and
// the exclusion chain reset. Equivalence against serial is asserted for
// both runs unconditionally; the return value reports whether the victim
// was killed at all (the only timing-dependent part the caller retries).
func runReadmitScenario(t *testing.T, db *plan.DB, q QueryDef, serial *engine.Result) bool {
	t.Helper()
	srvs, addrs := startWorkers(t, 2, 2)
	srvs[0].OnUnitStart = func() { time.Sleep(5 * time.Millisecond) }
	victim, victimAddr := srvs[1], addrs[1]
	victim.OnUnitStart = func() { time.Sleep(5 * time.Millisecond) }
	restarted := make(chan *shard.Server, 1)
	t.Cleanup(func() {
		select {
		case srv := <-restarted:
			if srv != nil {
				srv.Close()
			}
		default:
		}
	})
	var killed atomic.Bool
	victim.OnUnitDone = func(total int64) {
		if total == 1 && !killed.Swap(true) {
			go func() {
				victim.Close()
				for deadline := time.Now().Add(5 * time.Second); ; {
					l, err := net.Listen("tcp", victimAddr)
					if err == nil {
						srv := shard.NewServer(2)
						go srv.Serve(l)
						restarted <- srv
						return
					}
					if time.Now().After(deadline) {
						restarted <- nil
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
			}()
		}
	}
	env := NewEnvOpts(db, RunOptions{
		Workers: 2, Remotes: addrs,
		ProbeBase: time.Millisecond, ProbeMax: 10 * time.Millisecond,
	})
	defer env.Close()
	runOnce := func(label string) {
		node, err := q.Build(env)
		if err != nil {
			t.Fatal(err)
		}
		res, err := env.run(node)
		if err != nil {
			t.Fatalf("%s %s failed instead of recovering: %v", q.Name, label, err)
		}
		assertSameResult(t, q.Name+" "+label, res, serial)
	}
	runOnce("across the mid-query worker kill")
	if !killed.Load() {
		return false // the victim never completed a unit; retry the scenario
	}
	fresh := <-restarted
	if fresh == nil {
		t.Fatalf("%s: could not rebind %s for the restarted worker", q.Name, victimAddr)
	}
	defer fresh.Close()
	if h := env.Ctx.HealthStats()[1]; h.Downs < 1 {
		t.Fatalf("%s: victim killed mid-query but its slot records no down transition: %+v", q.Name, h)
	}
	// The session outlives the query: the prober keeps re-dialing until the
	// restarted worker answers.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if env.Ctx.HealthStats()[1].Readmits >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: restarted worker never re-admitted: %+v", q.Name, env.Ctx.HealthStats()[1])
		}
		time.Sleep(2 * time.Millisecond)
	}
	runOnce("after re-admission")
	h := env.Ctx.HealthStats()[1]
	if h.State != "up" || h.ReadmitUnits < 1 {
		t.Fatalf("%s: re-admitted slot served no units: %+v", q.Name, h)
	}
	if fresh.UnitsDone() < 1 {
		t.Fatalf("%s: restarted worker completed %d units, want at least one", q.Name, fresh.UnitsDone())
	}
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}
	if cur := env.Ctx.Mem.Current(); cur != 0 {
		t.Fatalf("%s: %d bytes still on the query tracker after kill/restart/re-admit", q.Name, cur)
	}
	return true
}

// TestRemoteFailoverMidQuery kills one of two TCP workers mid-query —
// deterministically, after its second completed unit — on the
// sandwich-heavy queries and asserts the rerouted run still matches the
// serial oracle byte for byte, with the query-side tracker balanced.
func TestRemoteFailoverMidQuery(t *testing.T) {
	b := benchmarkFixture(t)
	for _, qn := range []int{9, 13} {
		q := Query(qn)
		t.Run(q.Name, func(t *testing.T) {
			serial, _, _, err := RunQueryOpts(b.DBs[plan.BDCC], q, RunOptions{Workers: 1, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			srvs, addrs := startWorkers(t, 2, 2)
			victim := srvs[1]
			var killed atomic.Bool
			victim.OnUnitDone = func(total int64) {
				if total == 2 && !killed.Swap(true) {
					go victim.Close()
				}
			}
			remote, st, _, err := RunQueryOpts(b.DBs[plan.BDCC], q,
				RunOptions{Workers: 2, Remotes: addrs})
			if err != nil {
				t.Fatalf("%s with a worker killed mid-query failed instead of failing over: %v", q.Name, err)
			}
			assertSameResult(t, q.Name+" after mid-query worker kill", remote, serial)
			if !killed.Load() {
				t.Fatalf("%s: the victim worker completed %d units and was never killed — reroute unexercised",
					q.Name, victim.UnitsDone())
			}
			if st.Net.Runs == 0 {
				t.Fatalf("%s recorded no transport activity", q.Name)
			}
		})
	}
}
