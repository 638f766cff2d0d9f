// Command tpchbench regenerates the paper's evaluation: it runs all 22
// TPC-H queries under the Plain, PK and BDCC schemes and prints the
// Figure 2 (cold execution time) and Figure 3 (peak query memory) series,
// the device-activity breakdown, and optionally the per-query planner
// decisions behind the paper's "Detailed Analysis".
//
// Usage:
//
//	tpchbench [-sf 0.05] [-workers N] [-shards N] [-remotes host:port,...]
//	          [-partition] [-probe-base D] [-probe-max D]
//	          [-clients N] [-rounds N] [-daemon host:port] [-pools N]
//	          [-auth-token SECRET] [-compress=false]
//	          [-v] [-explain] [-orderings]
//
// The -workers knob (default: all cores) runs every query on a shared
// per-query scheduler of that many workers; -workers 1 reproduces the
// paper's single-threaded setup. Results are byte-identical across worker
// counts; with workers > 1, grouped scans overlap their modeled reads with
// compute, so reported cold time is max(io, cpu) per overlap window instead
// of their sum. The -shards knob (default 1 = single-box, the paper's
// setup) shards every query's BDCC group streams across that many simulated
// remote backends, each with its own scheduler; results stay byte-identical
// and the modeled transport time appears as net-ms under -v. The
// -remotes knob replaces the simulated backends with real TCP connections
// to bdccworker daemons (comma-separated host:port list; see
// docs/OPERATIONS.md) — results remain byte-identical, message counts
// become real, and a worker lost mid-query fails over to the survivors
// while a health prober re-dials it (bounded jittered backoff, tuned by
// -probe-base / -probe-max) and re-admits it once it answers.
//
// The -partition knob (requires -shards ≥ 2 or -remotes) turns the workers
// shared-nothing: each query partitions its scatter-scanned base tables
// across the workers by BDCC cell blocks, ships every worker its partition
// at setup, and lowers scatter scans to shipped row-range units that read
// from worker-local storage (docs/PARTITIONING.md). Results stay
// byte-identical — including runs where a worker dies mid-scan and its
// units re-scan on the coordinator's copy — and each worker's local scan
// volume, summed over the queries, prints under -v at roughly 1/N of the
// single-box MB read. The -v flag prints the per-scheme scheduler activity
// (tasks, steals, idle time, hidden I/O, network messages, per-backend
// routed units). Timing with medians and spread is bench/'s job
// (bench/README.md); the claims these tables show are held by the
// internal/tpch tests.
//
// The -compress knob (default on) chunk-encodes every table before the
// schemes materialize (RLE / dictionary / frame-of-reference per chunk, see
// docs/STORAGE.md): mb_read drops where clustering makes columns locally
// homogeneous, shipped group units shrink on sharded legs, and results stay
// byte-identical. The per-scheme outcome prints with -v.
//
// The -ingest-rate knob turns the grid into a mixed read/write workload:
// that many orders (with their lineitems) are appended before each round-1
// query, so every measurement reads a snapshot with in-flight delta; a merge
// then consolidates (re-compressing the views the appends already spliced
// into the BDCC cells; it re-bins and re-sorts nothing) and round 2
// re-measures the 22 queries over the merged base. -ingest-limit bounds the
// per-table delta (the append that reaches it merges mid-round, before the
// next query). The ingest table prints the per-scheme append/merge counters
// and each round's MB read (docs/INGEST.md).
//
// The -clients knob adds the concurrency leg to the grid: N closed-loop
// clients each issue the 22 queries -rounds times per scheme through a
// bdccd daemon — the one named by -daemon (authenticating with
// -auth-token), or an in-process loopback daemon with -pools scheduler
// pools over the already-materialized benchmark. The leg reports qps,
// latency quantiles and the daemon's admission counters per scheme.
//
// The -orderings knob re-runs the queries under a major-minor BDCC layout
// built over the same generated tables; it needs a read-only grid (no
// -ingest-rate).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"bdcc/internal/engine"
	"bdcc/internal/iosim"
	"bdcc/internal/plan"
	"bdcc/internal/serve"
	"bdcc/internal/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.05, "TPC-H scale factor")
	workers := flag.Int("workers", engine.DefaultWorkers(), "workers per query that morsel scans run on; every other operator runs on the goroutine that drives it (1 = serial)")
	shards := flag.Int("shards", 1, "backends to shard BDCC group streams across (1 = single-box)")
	remotes := flag.String("remotes", "", "comma-separated bdccworker addresses (host:port); replaces simulated backends")
	partition := flag.Bool("partition", false, "partition base tables across the workers and ship scatter scans (shared-nothing; needs -shards ≥ 2 or -remotes)")
	workerToken := flag.String("worker-token", "", "shared secret presented to the bdccworker daemons of -remotes")
	probeBase := flag.Duration("probe-base", 0, "first reconnect backoff of the worker health prober (0 = default)")
	probeMax := flag.Duration("probe-max", 0, "reconnect backoff cap of the worker health prober (0 = default)")
	verbose := flag.Bool("v", false, "print scheduler stats (tasks, steals, idle time)")
	clients := flag.Int("clients", 0, "closed-loop daemon clients for the concurrency leg (0 disables)")
	rounds := flag.Int("rounds", 1, "rounds of the 22 queries each concurrency client issues")
	daemonAddr := flag.String("daemon", "", "bdccd address the concurrency leg dials (empty starts a loopback daemon in-process)")
	pools := flag.Int("pools", 2, "scheduler pools of the in-process loopback daemon")
	authToken := flag.String("auth-token", "", "shared secret for the daemon sessions of the concurrency leg")
	compress := flag.Bool("compress", true, "chunk-compress stored columns (RLE/dict/FOR) before materializing schemes")
	ingestRate := flag.Int("ingest-rate", 0, "mixed workload: orders appended before each query of round 1 (0 = read-only grid)")
	ingestLimit := flag.Int("ingest-limit", 0, "per-table delta rows that trigger a merge (0 = merge only between rounds)")
	explain := flag.Bool("explain", false, "print per-query planner decisions under BDCC")
	orderings := flag.Bool("orderings", false, "also run the Z-order vs major-minor self-comparison")
	flag.Parse()

	var remoteAddrs []string
	for _, a := range strings.Split(*remotes, ",") {
		if a = strings.TrimSpace(a); a != "" {
			remoteAddrs = append(remoteAddrs, a)
		}
	}
	if *partition && *shards < 2 && len(remoteAddrs) == 0 {
		fatal(fmt.Errorf("-partition needs workers to partition across: set -shards ≥ 2 or -remotes"))
	}

	if len(remoteAddrs) > 0 {
		fmt.Printf("generating TPC-H SF%g and materializing plain/pk/bdcc schemes (workers=%d remotes=%v)...\n",
			*sf, *workers, remoteAddrs)
	} else {
		fmt.Printf("generating TPC-H SF%g and materializing plain/pk/bdcc schemes (workers=%d shards=%d)...\n",
			*sf, *workers, *shards)
	}
	b, err := tpch.NewBenchmarkCompressed(*sf, *compress)
	if err != nil {
		fatal(err)
	}
	b.Workers = *workers
	b.Shards = *shards
	b.Remotes = remoteAddrs
	b.Partition = *partition
	b.AuthToken = *workerToken
	b.ProbeBase = *probeBase
	b.ProbeMax = *probeMax
	var rep *tpch.Report
	if *ingestRate > 0 {
		// The mixed read/write grid: every query of round 1 runs over a
		// snapshot with freshly appended delta, then a merge consolidates and
		// round 2 re-measures the merged base (see docs/INGEST.md).
		fmt.Printf("ingest grid: %d orders before each round-1 query (limit %d)\n",
			*ingestRate, *ingestLimit)
		rep, err = b.RunAllIngest(*ingestRate, *ingestLimit)
	} else {
		rep, err = b.RunAll()
	}
	if err != nil {
		fatal(err)
	}
	if *ingestRate > 0 {
		fmt.Println()
		rep.WriteIngest(os.Stdout)
	} else {
		fmt.Println()
		rep.WriteFig2(os.Stdout)
		fmt.Println()
		rep.WriteFig3(os.Stdout)
		fmt.Println()
		rep.WriteIO(os.Stdout)
	}
	if *verbose {
		fmt.Println()
		rep.WriteSched(os.Stdout)
		if *compress {
			fmt.Println()
			rep.WriteComp(os.Stdout)
		}
	}

	// The concurrency leg: N closed-loop clients through a bdccd daemon —
	// dialed when -daemon names one, otherwise started in-process on a
	// loopback listener over the already-materialized benchmark.
	if *clients > 0 {
		addr := *daemonAddr
		var srv *serve.Server
		if addr == "" {
			svc := tpch.NewService(b)
			dev := iosim.PaperSSD()
			srv = serve.NewServer(serve.Config{
				Pools:      *pools,
				Workers:    *workers,
				QueueCap:   4 * *clients,
				QueueWait:  time.Minute,
				AuthToken:  *authToken,
				NewContext: func() *engine.Context { return engine.Options{Workers: *workers}.NewContext(dev) },
				Handler:    svc.Handle,
			})
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fatal(err)
			}
			go srv.Serve(l)
			addr = l.Addr().String()
		}
		var qnames []string
		for _, q := range tpch.Queries {
			qnames = append(qnames, q.Name)
		}
		for _, scheme := range rep.Schemes {
			st, err := tpch.RunConcurrency(addr, *authToken, scheme, qnames, *clients, *rounds)
			if err != nil {
				fatal(err)
			}
			rep.Concurrency = append(rep.Concurrency, *st)
		}
		if srv != nil {
			srv.Close()
		}
		fmt.Println()
		rep.WriteConcurrency(os.Stdout)
	}

	if *explain {
		fmt.Println("\nBDCC planner decisions:")
		for _, q := range tpch.Queries {
			key := fmt.Sprintf("%s/%s", plan.BDCC, q.Name)
			fmt.Printf("%s:\n", q.Name)
			for _, line := range rep.Explain[key] {
				fmt.Printf("  %s\n", line)
			}
		}
	}
	if *orderings {
		fmt.Println("\nOther orderings (paper: 284 s Z-order vs 291 s major-minor at SF100):")
		oc, err := tpch.RunOrderingComparison(b)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  z-order     total cold %8.3fs (device %8.3fs)\n", oc.ZOrder.Seconds(), oc.ZOrderIO.Seconds())
		fmt.Printf("  major-minor total cold %8.3fs (device %8.3fs)\n", oc.MajorMinor.Seconds(), oc.MajorIO.Seconds())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tpchbench:", err)
	os.Exit(1)
}
