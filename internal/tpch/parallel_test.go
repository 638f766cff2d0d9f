package tpch

import (
	"fmt"
	"testing"
	"time"

	"bdcc/internal/plan"
)

// TestQ13ParallelMemoryEffect checks the paper's central memory claim
// survives parallel execution: the sandwiched Q13 peak (serial per-group
// build, parallel scans and aggregations) stays below the plain scheme's
// full-materialization peak at every worker count.
func TestQ13ParallelMemoryEffect(t *testing.T) {
	b := benchmarkFixture(t)
	for _, workers := range []int{1, 4} {
		_, stB, _, err := RunQueryOpts(b.DBs[plan.BDCC], Query(13), RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		_, stP, _, err := RunQueryOpts(b.DBs[plan.Plain], Query(13), RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if stB.PeakMem >= stP.PeakMem {
			t.Errorf("workers=%d: sandwiched Q13 peak %d not below plain %d", workers, stB.PeakMem, stP.PeakMem)
		}
	}
}

// equivalenceMatrix is the (workers, shards) grid the oracle runs: the
// workers {1,4} × shards {1,2,4} matrix of the scale-out acceptance
// criteria, with (1,1) — serial single-box, the paper's setup — as the
// baseline every other cell must reproduce byte for byte.
var equivalenceMatrix = []struct{ workers, shards int }{
	{1, 1}, // baseline
	{4, 1},
	{1, 2}, // sharded groups over serial local execution
	{4, 2},
	{1, 4},
	{4, 4},
}

// TestWorkersEquivalence is the parallelism and scale-out oracle: every
// TPC-H query must return byte-identical results (same rows, same order,
// same float bits) at every cell of the workers × shards matrix under every
// scheme. The engine guarantees this by construction — order-preserving
// merges for scans, join probes and sharded sandwich groups, and per-group
// single-worker accumulation for aggregates — so the comparison is exact,
// with no float tolerance and no row sorting.
func TestWorkersEquivalence(t *testing.T) {
	b := benchmarkFixture(t)
	for _, q := range Queries {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			for _, scheme := range []plan.Scheme{plan.Plain, plan.PK, plan.BDCC} {
				serial, _, _, err := RunQueryOpts(b.DBs[scheme], q, RunOptions{Workers: 1, Shards: 1})
				if err != nil {
					t.Fatalf("%s under %s workers=1 shards=1: %v", q.Name, scheme, err)
				}
				for _, cell := range equivalenceMatrix[1:] {
					label := fmt.Sprintf("workers=%d shards=%d", cell.workers, cell.shards)
					par, _, _, err := RunQueryOpts(b.DBs[scheme], q, RunOptions{Workers: cell.workers, Shards: cell.shards})
					if err != nil {
						t.Fatalf("%s under %s %s: %v", q.Name, scheme, label, err)
					}
					if par.Rows() != serial.Rows() {
						t.Fatalf("%s under %s: %s returns %d rows, baseline returns %d",
							q.Name, scheme, label, par.Rows(), serial.Rows())
					}
					for i := 0; i < serial.Rows(); i++ {
						if got, want := fmt.Sprint(par.Row(i)), fmt.Sprint(serial.Row(i)); got != want {
							t.Fatalf("%s under %s: row %d = %s with %s, %s at baseline",
								q.Name, scheme, i, got, label, want)
						}
					}
					for c := range serial.Cols {
						if serial.Cols[c].Kind != serial.Schema[c].Kind {
							continue
						}
						for i, v := range serial.Cols[c].F64 {
							if pv := par.Cols[c].F64[i]; pv != v {
								t.Fatalf("%s under %s: col %d row %d = %v with %s, %v at baseline — floats must be bit-identical",
									q.Name, scheme, c, i, pv, label, v)
							}
						}
					}
				}
			}
		})
	}
}

// TestShardNetAccounting checks the modeled transport meter: single-box
// runs report no network activity at all, sharded BDCC runs pay for their
// shipped groups, and sharded Plain/PK runs — which produce no group
// streams — never even build a backend set, so sharding is free where it
// cannot apply.
func TestShardNetAccounting(t *testing.T) {
	b := benchmarkFixture(t)
	var sharded int64
	for _, q := range Queries {
		_, stSingle, _, err := RunQueryOpts(b.DBs[plan.BDCC], q, RunOptions{Workers: 2, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		if stSingle.Net.Runs != 0 || stSingle.Net.Time != 0 {
			t.Fatalf("%s single-box run recorded network activity: %+v", q.Name, stSingle.Net)
		}
		_, stShard, _, err := RunQueryOpts(b.DBs[plan.BDCC], q, RunOptions{Workers: 2, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		sharded += stShard.Net.Runs
		if stShard.Net.Runs > 0 && stShard.Net.Time <= 0 {
			t.Fatalf("%s: %d messages but no modeled network time", q.Name, stShard.Net.Runs)
		}
	}
	if sharded == 0 {
		t.Fatal("no BDCC query shipped any group over the transport at shards=2")
	}
	_, stPlain, _, err := RunQueryOpts(b.DBs[plan.Plain], Query(13), RunOptions{Workers: 2, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stPlain.Net.Runs != 0 {
		t.Fatalf("plain scheme (no group streams) recorded network activity: %+v", stPlain.Net)
	}
}

// TestColdTimeOverlapsGroupedScanIO is the I/O–compute overlap acceptance
// check: under BDCC with a multi-worker scheduler, grouped scans post their
// scattered group reads asynchronously, so some device time is hidden
// behind compute and the reported cold time is max(io, cpu) per overlap
// window (cold = wall + io − hidden) instead of the serial sum. Serial runs
// must hide nothing, preserving the paper's measurement setup.
func TestColdTimeOverlapsGroupedScanIO(t *testing.T) {
	b := benchmarkFixture(t)
	var hiddenPar time.Duration
	for _, q := range Queries {
		_, stSer, _, err := RunQueryOpts(b.DBs[plan.BDCC], q, RunOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if stSer.IO.Hidden != 0 {
			t.Fatalf("%s serial run hid %v of device time — workers<=1 numbers must be unchanged", q.Name, stSer.IO.Hidden)
		}
		if stSer.Cold != stSer.IO.Time+stSer.Wall {
			t.Fatalf("%s serial cold %v != io %v + wall %v", q.Name, stSer.Cold, stSer.IO.Time, stSer.Wall)
		}
		_, stPar, _, err := RunQueryOpts(b.DBs[plan.BDCC], q, RunOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if stPar.IO.Hidden > stPar.IO.Time {
			t.Fatalf("%s: hidden %v exceeds device time %v", q.Name, stPar.IO.Hidden, stPar.IO.Time)
		}
		if stPar.Cold != stPar.IO.ColdTime(stPar.Wall) {
			t.Fatalf("%s: cold %v not derived from the overlap model", q.Name, stPar.Cold)
		}
		hiddenPar += stPar.IO.Hidden
	}
	if hiddenPar == 0 {
		t.Fatal("no device time hidden across any BDCC query at workers=4 — grouped scans are not overlapping I/O")
	}
}

// TestSchedulerStatsReported checks the per-query scheduler counters that
// feed tpchbench -v: parallel runs record tasks, serial runs record none.
func TestSchedulerStatsReported(t *testing.T) {
	b := benchmarkFixture(t)
	_, stPar, _, err := RunQueryOpts(b.DBs[plan.BDCC], Query(13), RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stPar.Sched.Tasks == 0 {
		t.Fatal("parallel Q13 recorded no scheduler tasks")
	}
	_, stSer, _, err := RunQueryOpts(b.DBs[plan.BDCC], Query(13), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stSer.Sched.Tasks != 0 {
		t.Fatalf("serial Q13 recorded %d scheduler tasks", stSer.Sched.Tasks)
	}
}
