// Command bdccworker is the remote executor daemon of the sharded engine:
// it listens on a TCP address, accepts query sessions speaking the framed
// wire protocol of internal/shard (docs/WIRE.md), receives each operator's
// serialized sandwich plan fragment once at query setup, executes shipped
// group units on its own task-stealing scheduler, and streams encoded
// result batches back. One daemon serves any number of concurrent queries;
// each session keeps its own fragment registry.
//
// Usage:
//
//	bdccworker [-listen :4710] [-workers N] [-auth-token SECRET]
//	           [-part-limit-mb N] [-drain-timeout 30s] [-v]
//
// Point a query at one or more daemons with tpchbench -remotes
// host:port,host:port — results are byte-identical to the single-box run;
// if a worker dies mid-query its units fail over to the survivors, and a
// restarted worker is re-admitted by the queries' health probers. With
// tpchbench -partition, each query additionally offers this daemon its
// partition of every scatter-scanned base table at setup, and the daemon
// serves scan units from that local copy (docs/PARTITIONING.md). The daemon
// keeps the partitions it was sent across queries, by content digest, so a
// later query of the same table version sends none; a partition no query
// binds is freed once a newer version of its table arrives. The
// -part-limit-mb knob caps the bytes all resident partitions keep (they are
// adopted as shipped, not decoded): a transfer that would cross it first
// evicts the partitions no query binds, and only then fails that table's
// scans (the query re-scans those units on the coordinator) without
// dropping the session. See docs/OPERATIONS.md for deployment, failover
// behavior, and metering.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bdcc/internal/engine"
	"bdcc/internal/shard"
)

func main() {
	listen := flag.String("listen", ":4710", "TCP address to accept query sessions on")
	workers := flag.Int("workers", engine.DefaultWorkers(), "scheduler pool goroutines")
	drain := flag.Duration("drain-timeout", 30*time.Second, "bound on the shutdown drain; sessions still running after it are abandoned (0 waits forever)")
	token := flag.String("auth-token", "", "shared secret sessions must present in their hello (constant-time compare; mismatch drops the connection)")
	partLimit := flag.Int64("part-limit-mb", 0, "cap in MB on the bytes the worker's resident partitions keep, across sessions — adopted column frames plus their dictionary, run and raw-chunk strings (0 = unlimited); partitions no session binds are evicted first, and a table that still does not fit fails its scans back to the coordinator")
	verbose := flag.Bool("v", false, "log a status line per completed unit batch (every 1000 units)")
	flag.Parse()

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	srv := shard.NewServer(*workers)
	srv.SetAuthToken(*token)
	srv.SetPartLimit(*partLimit << 20)
	if *verbose {
		srv.OnUnitDone = func(total int64) {
			if total%1000 == 0 {
				fmt.Printf("bdccworker: %d units done, %d bytes peak table memory\n",
					total, srv.Mem().Peak())
			}
		}
	}
	fmt.Printf("bdccworker: serving on %s (protocol v%d, %d workers)\n",
		l.Addr(), shard.ProtoVersion, srv.Workers())

	// A signal drains and exits: stop accepting, close sessions (their
	// queries fail over to surviving workers), join in-flight units — for
	// at most the drain timeout, so a wedged session cannot hang shutdown.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Printf("bdccworker: shutting down (drain bounded by %v)\n", *drain)
		abandoned, _ := srv.CloseWithin(*drain)
		if abandoned > 0 {
			fmt.Printf("bdccworker: drain timed out after %v; abandoning %d wedged session(s)\n",
				*drain, abandoned)
			os.Exit(1)
		}
	}()

	start := time.Now()
	if err := srv.Serve(l); err != nil {
		fatal(err)
	}
	fmt.Printf("bdccworker: served %d units in %s (peak table memory %d bytes)\n",
		srv.UnitsDone(), time.Since(start).Round(time.Millisecond), srv.Mem().Peak())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bdccworker:", err)
	os.Exit(1)
}
