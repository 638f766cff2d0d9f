package tpch

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"bdcc/internal/engine"
	"bdcc/internal/plan"
)

// The chaos harness: sustained back-to-back TPC-H load against real
// bdccworker processes that are repeatedly killed and restarted under it.
// Every run must stay byte-identical to the serial oracle, the recovery
// counters must prove the kills were observed and the restarted workers
// re-admitted and serving units again, a query with no surviving worker
// must complete through the coordinator's local fallback, and the whole
// ordeal must leak neither goroutines nor tracker bytes.

var (
	workerBinOnce sync.Once
	workerBin     string
	workerBinErr  error
)

// buildWorkerBinary compiles cmd/bdccworker once per test process.
func buildWorkerBinary(t *testing.T) string {
	t.Helper()
	workerBinOnce.Do(func() {
		dir, err := os.MkdirTemp("", "bdccworker-chaos")
		if err != nil {
			workerBinErr = err
			return
		}
		bin := filepath.Join(dir, "bdccworker")
		out, err := exec.Command("go", "build", "-o", bin, "bdcc/cmd/bdccworker").CombinedOutput()
		if err != nil {
			workerBinErr = fmt.Errorf("go build bdccworker: %v\n%s", err, out)
			return
		}
		workerBin = bin
	})
	if workerBinErr != nil {
		t.Skipf("cannot build the bdccworker binary: %v", workerBinErr)
	}
	return workerBin
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// workerProc manages one real bdccworker process on a fixed address across
// kills and restarts.
type workerProc struct {
	bin  string
	addr string

	mu     sync.Mutex
	cmd    *exec.Cmd
	exited chan struct{}
}

// start launches the daemon and waits until it accepts connections,
// relaunching if a lingering predecessor still held the port.
func (w *workerProc) start(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		cmd := exec.Command(w.bin, "-listen", w.addr, "-workers", "2", "-drain-timeout", "2s")
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		exited := make(chan struct{})
		go func() {
			cmd.Wait()
			close(exited)
		}()
		w.mu.Lock()
		w.cmd, w.exited = cmd, exited
		w.mu.Unlock()
		for {
			conn, err := net.DialTimeout("tcp", w.addr, 100*time.Millisecond)
			if err == nil {
				conn.Close()
				return
			}
			select {
			case <-exited: // bind lost (port still releasing); relaunch
			default:
				if time.Now().After(deadline) {
					t.Fatalf("worker on %s never came up", w.addr)
				}
				time.Sleep(2 * time.Millisecond)
				continue
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker on %s never came up (its process keeps exiting)", w.addr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop signals the process and waits for it to exit; idempotent.
func (w *workerProc) stop(sig os.Signal) {
	w.mu.Lock()
	cmd, exited := w.cmd, w.exited
	w.cmd, w.exited = nil, nil
	w.mu.Unlock()
	if cmd == nil {
		return
	}
	cmd.Process.Signal(sig)
	<-exited
}

func (w *workerProc) kill() { w.stop(os.Kill) }

// TestChaosSustainedLoad drives rounds of kill → query → restart → query
// against two real bdccworker processes through one long-lived session, so
// the failover, prober, and re-admission machinery is exercised end to end
// over real process boundaries — including one graceful SIGTERM drain.
// It finishes by killing every worker and asserting the query degrades to
// the coordinator's local fallback instead of failing.
func TestChaosSustainedLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness skipped in -short")
	}
	bin := buildWorkerBinary(t)
	b := benchmarkFixture(t)
	db := b.DBs[plan.BDCC]
	queries := []QueryDef{Query(9), Query(13)}
	serial := map[string]*engine.Result{}
	for _, q := range queries {
		res, _, _, err := RunQueryOpts(db, q, RunOptions{Workers: 1, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		serial[q.Name] = res
	}

	w1 := &workerProc{bin: bin, addr: freeAddr(t)}
	w2 := &workerProc{bin: bin, addr: freeAddr(t)}
	w1.start(t)
	w2.start(t)
	defer w1.kill()
	defer w2.kill()

	base := runtime.NumGoroutine()
	env := NewEnvOpts(db, RunOptions{
		Workers: 2, Remotes: []string{w1.addr, w2.addr},
		ProbeBase: 2 * time.Millisecond, ProbeMax: 20 * time.Millisecond,
	})
	defer env.Close()
	iter := 0
	runOnce := func(label string) {
		iter++
		q := queries[iter%2]
		node, err := q.Build(env)
		if err != nil {
			t.Fatal(err)
		}
		res, err := env.run(node)
		if err != nil {
			t.Fatalf("%s %s failed instead of recovering: %v", q.Name, label, err)
		}
		assertSameResult(t, fmt.Sprintf("%s %s (iteration %d)", q.Name, label, iter), res, serial[q.Name])
	}
	victimHealth := func() engine.BackendHealth { return env.Ctx.HealthStats()[1] }
	waitVictim := func(label string, ok func(engine.BackendHealth) bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; {
			if ok(victimHealth()) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("round gave up waiting for %s: %+v", label, victimHealth())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	runOnce("with both workers up")
	for round := 1; round <= 3; round++ {
		// Round 2 drains gracefully (the daemon's SIGTERM path); the others
		// die hard. Either way the session's queries keep flowing.
		if round == 2 {
			w2.stop(syscall.SIGTERM)
		} else {
			w2.kill()
		}
		runOnce("across the worker kill") // discovery: failover mid-query
		want := int64(round)
		waitVictim("the down transition", func(h engine.BackendHealth) bool { return h.Downs >= want })
		w2.start(t)
		waitVictim("re-admission", func(h engine.BackendHealth) bool { return h.Readmits >= want })
		runOnce("after re-admission")
		if h := victimHealth(); h.ReadmitUnits < want {
			t.Fatalf("round %d: re-admitted worker served %d unit batches, want ≥ %d — restarted worker idle: %+v",
				round, h.ReadmitUnits, want, h)
		}
	}
	h := victimHealth()
	if h.Downs < 3 || h.Readmits < 3 || h.ReadmitUnits < 3 {
		t.Fatalf("after 3 chaos rounds the victim's counters read %+v", h)
	}
	if fb := env.Ctx.LocalFallbackUnits(); fb != 0 {
		t.Fatalf("a survivor was always up, yet %d units fell back to the coordinator", fb)
	}
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}
	if cur := env.Ctx.Mem.Current(); cur != 0 {
		t.Fatalf("chaos rounds leak %d bytes on the query tracker", cur)
	}

	// Terminal degradation: with every worker dead the query must still
	// complete — locally, counted — and still match the oracle.
	w1.kill()
	w2.kill()
	down := NewEnvOpts(db, RunOptions{
		Workers: 2, Remotes: []string{w1.addr, w2.addr},
		ProbeBase: 2 * time.Millisecond, ProbeMax: 20 * time.Millisecond,
	})
	defer down.Close()
	q := queries[1]
	node, err := q.Build(down)
	if err != nil {
		t.Fatal(err)
	}
	res, err := down.run(node)
	if err != nil {
		t.Fatalf("%s with every worker dead failed instead of degrading locally: %v", q.Name, err)
	}
	assertSameResult(t, q.Name+" with every worker dead", res, serial[q.Name])
	if fb := down.Ctx.LocalFallbackUnits(); fb < 1 {
		t.Fatalf("all-down run recorded %d local-fallback units, want every routed unit", fb)
	}
	if err := down.Close(); err != nil {
		t.Fatal(err)
	}
	if cur := down.Ctx.Mem.Current(); cur != 0 {
		t.Fatalf("all-down run leaks %d bytes on the query tracker", cur)
	}

	// No goroutine may survive the ordeal (probers, read loops, schedulers,
	// process waiters all joined).
	for deadline := time.Now().Add(5 * time.Second); ; {
		if runtime.NumGoroutine() <= base {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("%d goroutines alive after the chaos run, want ≤ %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}
