// Command bench is the repo's benchmark: five named workloads over the TPC-H
// reproduction, seven end-to-end metrics from an untraced run, per-layer
// metrics from a traced run of the same workload, every result verified. It
// calls only public functions of bdcc/internal/... and instruments nothing
// inside them. See README.md.
//
//	bench -workload <name> -seed <n> [-seconds 12] [-trace 1 [-trace-out spans.json]]
//	bench -aa <k>            every workload k times twice over, spreads beside bounds
//	bench -write-expected    regenerate bench/expected.json under the Plain scheme
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// result is the last line of a run's standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: plain_serial, bdcc_serial, bdcc_partitioned, daemon_closed_loop, ingest_mixed")
	seed := flag.Int64("seed", 1, "seed of everything the benchmark generates: query rotations, the arrival stream")
	seconds := flag.Float64("seconds", defaultSeconds, "run length; sets the number of timed sweeps, which is then fixed")
	trace := flag.Int("trace", 0, "1 = traced run (per-layer metrics, kernel probes), 0 = untraced run (end-to-end metrics)")
	traceOut := flag.String("trace-out", "", "with -trace 1: file to write the spans to")
	aa := flag.Int("aa", 0, "A/A mode: run every workload this many times in each of two sets and compare them")
	writeExp := flag.Bool("write-expected", false, "regenerate "+expectedPath+" (run from the repo root) and exit")
	flag.Parse()

	switch {
	case *writeExp:
		if err := writeExpected(expectedPath, expectedSFs()); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s; rebuild to embed it\n", expectedPath)
		return
	case *aa > 0:
		ok, err := runAA(*aa, *seed, *seconds)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	out, err := runWorkload(w, config{seed: *seed, seconds: *seconds, traced: *trace != 0, traceOut: *traceOut, out: os.Stdout})
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if out.failed != 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
