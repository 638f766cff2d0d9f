// Command bdccd is the front-end query daemon: it materializes the TPC-H
// benchmark once at startup (plain, pk and bdcc schemes over one shared
// catalog), listens on a TCP address for client sessions speaking the
// framed query protocol (docs/WIRE.md, "BDCQ"), and runs each admitted
// query on one of a bounded number of process-lifetime scheduler pools.
//
// Three governors sit between a request and the engine:
//
//   - Admission control: at most -pools queries execute at once; up to
//     -queue more wait in FIFO order for at most -queue-wait before being
//     rejected (typed on the wire, so clients can tell rejection from
//     failure).
//   - Memory governance: with -mem-budget set, every query's MemTracker
//     reserves quanta against one process-global budget; a query that
//     cannot reserve within -mem-wait is rejected instead of pushing the
//     process past its limit.
//   - Plan caching: repeated (query, scheme, knobs) keys replay the
//     recorded planning decisions, pre-executed build subtrees and scalar
//     subqueries instead of redoing them; results are byte-identical to a
//     cold plan.
//
// With -remotes, the daemon dials the bdccworker set once at startup and
// multiplexes every query over those process-lifetime sessions (shipped
// fragments are deduplicated by content, so concurrent queries share them).
//
// Usage:
//
//	bdccd [-listen :4711] [-sf 0.01] [-workers N] [-pools N]
//	      [-queue N] [-queue-wait 1s] [-mem-budget BYTES] [-mem-wait 100ms]
//	      [-auth-token SECRET] [-remotes host:port,...]
//	      [-worker-token SECRET] [-v]
//
// Drive it with tpchbench -daemon addr -clients N, or any client of
// internal/serve. See docs/OPERATIONS.md for sizing the governors.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bdcc/internal/engine"
	"bdcc/internal/iosim"
	"bdcc/internal/serve"
	"bdcc/internal/shard"
	"bdcc/internal/tpch"
)

func main() {
	listen := flag.String("listen", ":4711", "TCP address to accept query sessions on")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor to materialize at startup")
	workers := flag.Int("workers", engine.DefaultWorkers(), "scheduler goroutines per pool (1 = serial pools)")
	pools := flag.Int("pools", 2, "scheduler pools, the bound on concurrently executing queries")
	queue := flag.Int("queue", 8, "admission queue depth beyond the executing queries (0 = reject when all pools busy)")
	queueWait := flag.Duration("queue-wait", time.Second, "longest a query waits in the admission queue before rejection (0 = forever)")
	memBudget := flag.Int64("mem-budget", 0, "process-global query-memory budget in bytes (0 = ungoverned)")
	memWait := flag.Duration("mem-wait", 100*time.Millisecond, "longest a query waits for budget headroom before rejection (0 = reject immediately)")
	memQuantum := flag.Int64("mem-quantum", 0, "budget reservation granularity in bytes (0 = engine default)")
	token := flag.String("auth-token", "", "shared secret client sessions must present in their hello (constant-time compare; mismatch drops the connection)")
	remotes := flag.String("remotes", "", "comma-separated bdccworker addresses; dialed once and shared by all queries")
	workerToken := flag.String("worker-token", "", "shared secret presented to the bdccworker daemons of -remotes")
	verbose := flag.Bool("v", false, "print the full stats counters at exit")
	flag.Parse()

	var remoteAddrs []string
	for _, a := range strings.Split(*remotes, ",") {
		if a = strings.TrimSpace(a); a != "" {
			remoteAddrs = append(remoteAddrs, a)
		}
	}

	fmt.Printf("bdccd: materializing TPC-H SF%g (plain/pk/bdcc, compressed)...\n", *sf)
	b, err := tpch.NewBenchmarkCompressed(*sf, true)
	if err != nil {
		fatal(err)
	}
	b.Workers = *workers
	svc := tpch.NewService(b)

	// With -remotes the worker sessions are process-lifetime: one dialed
	// set, multiplexed across every query (SharedBackends makes the
	// per-query CloseBackends a no-op; the daemon closes the set at exit).
	var set *shard.Set
	if len(remoteAddrs) > 0 {
		set, err = shard.DialSetConfig(remoteAddrs, shard.PaperNet(), shard.SetConfig{
			AuthToken: *workerToken,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("bdccd: sharing %d worker session(s) across queries\n", len(remoteAddrs))
	}
	dev := iosim.PaperSSD()
	newContext := func() *engine.Context {
		ctx := engine.Options{Workers: *workers}.NewContext(dev)
		if set != nil {
			ctx.Remotes = remoteAddrs
			ctx.SharedBackends = true
			ctx.Backends, ctx.Cluster = set.Backends(), set
		}
		return ctx
	}

	srv := serve.NewServer(serve.Config{
		Pools:      *pools,
		Workers:    *workers,
		QueueCap:   *queue,
		QueueWait:  *queueWait,
		MemBudget:  *memBudget,
		MemWait:    *memWait,
		MemQuantum: *memQuantum,
		AuthToken:  *token,
		NewContext: newContext,
		Handler:    svc.Handle,
	})

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("bdccd: serving on %s (protocol v%d, %d pools x %d workers, queue %d/%v, mem budget %d)\n",
		l.Addr(), serve.ProtoVersion, *pools, *workers, *queue, *queueWait, *memBudget)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("bdccd: shutting down")
		srv.Close()
		if set != nil {
			for _, bk := range set.Backends() {
				bk.Close()
			}
		}
	}()

	start := time.Now()
	if err := srv.Serve(l); err != nil {
		fatal(err)
	}
	st := srv.Stats()
	hits, misses := svc.CacheStats()
	fmt.Printf("bdccd: served %d queries in %s (%d queued, %d rejected; plan cache %d hits / %d misses)\n",
		st.Done, time.Since(start).Round(time.Millisecond), st.QueuedTotal, st.Rejected, hits, misses)
	if *verbose {
		fmt.Printf("bdccd: final stats %+v\n", st)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bdccd:", err)
	os.Exit(1)
}
