package tpch

import (
	"slices"
	"strings"
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

// TestWorkersChangeNoPlan holds the planner to one plan per query whatever
// the worker count: on a single box, the planner log of each of the 22
// queries at Workers 2 equals its log at Workers 1, under Plain, PK and BDCC.
// Scans are the one parallel operator, and their log lines do not depend on
// the pool they run on.
func TestWorkersChangeNoPlan(t *testing.T) {
	b := oracleFixture(t).comp
	joins := 0
	for _, s := range oracleSchemes {
		for _, q := range Queries {
			_, _, serial, err := RunQueryOpts(b.DBs[s], q, RunOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range serial {
				if strings.HasPrefix(line, "join: ") {
					joins++
				}
			}
			_, _, par, err := RunQueryOpts(b.DBs[s], q, RunOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(par, serial) {
				t.Errorf("%s %s: the log at 2 workers differs from the serial log\n2 workers:\n%s\nserial:\n%s",
					s, q.Name, strings.Join(par, "\n"), strings.Join(serial, "\n"))
			}
		}
	}
	if joins == 0 {
		t.Fatal("no query logged a join — vacuous test")
	}
}

// TestShardNetAccounting checks the modeled transport meter: single-box
// runs report no network activity at all, and sharded BDCC runs pay for
// their shipped groups. (The sharded rows of TestEngineMatchesReference hold
// Plain and PK, which produce no group streams, to no network activity.)
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
