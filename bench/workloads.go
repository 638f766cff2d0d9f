package main

import (
	"fmt"
	"math"

	"bdcc/internal/plan"
	"bdcc/internal/tpch"
)

// defaultSeconds is the run length the sweep counts below were sized for
// (BENCHMARK.json's run_seconds). A run's length is a count of sweeps, fixed
// by -seconds alone, so that the parent commit and a change do the same work
// and the counts the program makes repeat; -seconds scales the count.
const defaultSeconds = 12

type kind int

const (
	kindSerial kind = iota // one client calling the engine directly
	kindDaemon             // closed-loop clients against an in-process bdccd
	kindIngest             // appends and merges between the queries
)

// workload is one set of inputs the benchmark runs. A sweep is one pass of
// one client over the workload's operation list.
type workload struct {
	name    string
	why     string // one line, repeated in BENCHMARK.json
	kind    kind
	sf      float64
	scheme  plan.Scheme
	opt     tpch.RunOptions
	queries []int // TPC-H query numbers, in list order
	clients int
	warmup  int // untimed sweeps per client
	sweeps  int // timed sweeps per client at defaultSeconds
}

// ingestOrdersPerBatch is the size of one arrival batch of ingest_mixed.
const ingestOrdersPerBatch = 30

func allQueries() []int {
	qs := make([]int, len(tpch.Queries))
	for i := range qs {
		qs[i] = i + 1
	}
	return qs
}

// workloads lists the five workloads. Scale factors and sweep counts are
// sized on a 2-core box so that every run — three set-ups, the warm-up, the
// timed sweeps and the verification — ends in about 20 s, which is what the
// driver's budget for its 114 runs allows; see README.md for how that
// differs from the sizes the issue proposed.
var workloads = []workload{
	{
		name: "plain_serial", kind: kindSerial, sf: 0.05, scheme: plan.Plain,
		opt: tpch.RunOptions{Workers: 1}, queries: allQueries(), clients: 1, warmup: 1, sweeps: 14,
		why: "Paper baseline: decode, expr and engine operators do all the work and plan/core/shard/serve none, so a kernel or decode gain shows undiluted.",
	},
	{
		name: "bdcc_serial", kind: kindSerial, sf: 0.05, scheme: plan.BDCC,
		opt: tpch.RunOptions{Workers: 1}, queries: allQueries(), clients: 1, warmup: 1, sweeps: 11,
		why: "Paper Figure 2/3 set-up: adds scatter plans, sandwich joins and the planner's pre-executed dimension sub-plans, so planning and pruning changes show here and not on plain_serial.",
	},
	{
		name: "bdcc_partitioned", kind: kindSerial, sf: 0.01, scheme: plan.BDCC,
		opt:     tpch.RunOptions{Workers: 2, Shards: 2, Partition: true},
		queries: []int{3, 5, 10, 12, 14, 19}, clients: 1, warmup: 1, sweeps: 11,
		why: "Shared-nothing: every query re-partitions, ships and re-compresses lineitem to 2 simulated workers, so shard, the vector codec and storage.Compress dominate and join kernels matter little.",
	},
	{
		name: "daemon_closed_loop", kind: kindDaemon, sf: 0.05, scheme: plan.BDCC,
		opt: tpch.RunOptions{Workers: 1}, queries: allQueries(), clients: 2, warmup: 1, sweeps: 16,
		why: "Two closed-loop clients, zero think time, against an in-process bdccd over loopback TCP: concurrent queries share allocator, GC and admission, and plans replay from the cache.",
	},
	{
		name: "ingest_mixed", kind: kindIngest, sf: 0.01, scheme: plan.BDCC,
		opt:     tpch.RunOptions{Workers: 1},
		queries: []int{1, 3, 4, 6, 10, 12, 14, 18}, clients: 1, warmup: 1, sweeps: 12,
		why: "Writes beside reads: each cycle appends a batch before each of 8 queries and then merges, so a read-path gain that costs appends or merges shows here.",
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// expectedSFs are the scale factors expected.json must cover: every
// workload's, and the smoke test's.
func expectedSFs() []float64 {
	seen := map[float64]bool{smokeSF: true}
	out := []float64{smokeSF}
	for _, w := range workloads {
		if !seen[w.sf] {
			seen[w.sf] = true
			out = append(out, w.sf)
		}
	}
	return out
}

// smokeSF is the scale factor of the test that runs every workload once.
const smokeSF = 0.005

// timedSweeps is the number of timed sweeps per client of a run of the given
// length. A traced run spends a third of its length on the kernel probes and
// runs its sweeps in untraced/traced pairs, so it returns an even count.
func (w *workload) timedSweeps(seconds float64, traced bool) int {
	n := int(math.Round(float64(w.sweeps) * seconds / defaultSeconds))
	if traced {
		pairs := n / 3
		if pairs < 1 {
			pairs = 1
		}
		return 2 * pairs
	}
	if n < 2 {
		n = 2
	}
	return n
}

func (w *workload) queryDefs() []tpch.QueryDef {
	qs := make([]tpch.QueryDef, len(w.queries))
	for i, n := range w.queries {
		qs[i] = tpch.Query(n)
	}
	return qs
}
