package tpch

import (
	"strings"
	"sync"
	"testing"

	"bdcc/internal/plan"
)

// The shape tests run the full grid once per binary.
var (
	repOnce sync.Once
	rep     *Report
	repErr  error
)

func reportFixture(t *testing.T) *Report {
	t.Helper()
	b := benchmarkFixture(t)
	repOnce.Do(func() {
		rep, repErr = b.RunAll()
	})
	if repErr != nil {
		t.Fatalf("RunAll: %v", repErr)
	}
	return rep
}

// TestFig3MemoryShape asserts the paper's Figure 3 claims hold in shape:
// BDCC needs several times less memory than Plain on average and at the
// peak, and is also more memory efficient than PK.
func TestFig3MemoryShape(t *testing.T) {
	r := reportFixture(t)
	avg := func(s plan.Scheme) float64 { return r.Totals(s, PeakMB) / float64(len(Queries)) }
	peak := func(s plan.Scheme) float64 {
		m := 0.0
		for _, run := range r.Runs[s] {
			if v := PeakMB(run.Stats); v > m {
				m = v
			}
		}
		return m
	}
	if a, b := avg(plan.BDCC), avg(plan.Plain); a >= b/2 {
		t.Errorf("avg memory: bdcc %.3f MB vs plain %.3f MB — want at least 2x reduction (paper: ~17x at SF100)", a, b)
	}
	if a, b := avg(plan.BDCC), avg(plan.PK); a >= b {
		t.Errorf("avg memory: bdcc %.3f MB vs pk %.3f MB — want bdcc below pk (paper: 6x)", a, b)
	}
	if a, b := peak(plan.BDCC), peak(plan.Plain); a >= b/2 {
		t.Errorf("peak memory: bdcc %.3f MB vs plain %.3f MB — want at least 2x reduction (paper: ~29x at SF100)", a, b)
	}
}

// TestFig2IOShape asserts the Figure 2 direction on the modeled device time:
// BDCC reads substantially less than Plain over the full query set, and the
// per-query pattern follows the paper's detailed analysis.
func TestFig2IOShape(t *testing.T) {
	r := reportFixture(t)
	if a, b := r.Totals(plan.BDCC, IOSeconds), r.Totals(plan.Plain, IOSeconds); a >= b*0.8 {
		t.Errorf("total device time: bdcc %.4fs vs plain %.4fs — want a clear reduction", a, b)
	}
	// Per-query expectations from the paper's Section IV detailed analysis.
	idx := func(name string) int {
		for i, q := range Queries {
			if q.Name == name {
				return i
			}
		}
		t.Fatalf("unknown query %s", name)
		return -1
	}
	bytes := func(s plan.Scheme, q string) float64 {
		return float64(r.Runs[s][idx(q)].Stats.IO.Bytes)
	}
	// Selection pushdown / propagation queries must read much less.
	for _, q := range []string{"Q03", "Q05", "Q07", "Q08", "Q10", "Q11", "Q14", "Q15", "Q20"} {
		if b, p := bytes(plan.BDCC, q), bytes(plan.Plain, q); b >= 0.7*p {
			t.Errorf("%s: bdcc reads %.1f MB vs plain %.1f MB — paper lists it as pushdown-accelerated",
				q, b/(1<<20), p/(1<<20))
		}
	}
	// MinMax-correlation queries (shipdate via orderdate locality).
	for _, q := range []string{"Q06", "Q12"} {
		if b, p := bytes(plan.BDCC, q), bytes(plan.Plain, q); b >= 0.9*p {
			t.Errorf("%s: bdcc reads %.1f MB vs plain %.1f MB — paper credits MinMax correlation", q, b/(1<<20), p/(1<<20))
		}
	}
	// Q1 is a ~97% scan: no scheme should read materially less.
	if b, p := bytes(plan.BDCC, "Q01"), bytes(plan.Plain, "Q01"); b < 0.9*p {
		t.Errorf("Q01: bdcc reads %.1f MB vs plain %.1f MB — paper says Q1 cannot be accelerated by indexing", b/(1<<20), p/(1<<20))
	}
}

// TestDetailedAnalysisPlans asserts the planner decisions behind the paper's
// per-query attribution: sandwich joins on the sandwich-credited queries,
// merge joins under PK, the streaming aggregate for PK Q18, and the Q13
// sandwich on the never-mentioned customer nation dimension.
func TestDetailedAnalysisPlans(t *testing.T) {
	r := reportFixture(t)
	explainHas := func(scheme plan.Scheme, q, want string) bool {
		for _, line := range r.Explain[scheme.String()+"/"+q] {
			if strings.Contains(line, want) {
				return true
			}
		}
		return false
	}
	// Q9 and Q13: "BDCC acceleration strictly comes from sandwiched
	// execution of joins".
	for _, q := range []string{"Q09", "Q13"} {
		if !explainHas(plan.BDCC, q, "sandwich hash join") {
			t.Errorf("%s under bdcc: no sandwich join placed", q)
		}
	}
	// Q13's sandwich aligns on the nation dimension although the query never
	// references NATION.
	if !explainHas(plan.BDCC, "Q13", "sandwich hash join on d_nation") {
		t.Error("Q13: sandwich not aligned on d_nation (the paper's implied-dimension example)")
	}
	// Q18: sandwiched aggregation of LINEITEM on l_orderkey under BDCC...
	if !explainHas(plan.BDCC, "Q18", "sandwich aggregation") {
		t.Error("Q18 under bdcc: no sandwich aggregation")
	}
	// ...and the unbeatable streaming aggregate under PK.
	if !explainHas(plan.PK, "Q18", "streaming aggregation") {
		t.Error("Q18 under pk: no streaming aggregation")
	}
	// PK gets its LINEITEM⋈ORDERS and PART⋈PARTSUPP merge joins.
	if !explainHas(plan.PK, "Q03", "merge join on l_orderkey = o_orderkey") {
		t.Error("Q03 under pk: LINEITEM-ORDERS not merge joined")
	}
	if !explainHas(plan.PK, "Q16", "merge join") {
		t.Error("Q16 under pk: PARTSUPP-PART not merge joined")
	}
	// Selection propagation reaches LINEITEM for the region query Q5.
	if !explainHas(plan.BDCC, "Q05", "scan lineitem: bdcc pushdown") {
		t.Error("Q05 under bdcc: no count-table pushdown on lineitem")
	}
}

// TestSandwichMemoryEffect isolates the paper's central memory claim on
// Q13: the per-group build of the sandwiched join must stay far below the
// full CUSTOMER materialization the PK scheme pays.
func TestSandwichMemoryEffect(t *testing.T) {
	r := reportFixture(t)
	var q13 int
	for i, q := range Queries {
		if q.Name == "Q13" {
			q13 = i
		}
	}
	b := r.Runs[plan.BDCC][q13].Stats.PeakMem
	p := r.Runs[plan.PK][q13].Stats.PeakMem
	if b*2 >= p {
		t.Errorf("Q13 peak memory: bdcc %d vs pk %d — want at least 2x reduction (paper: 'strongly reduces memory')", b, p)
	}
}

// TestOrderingComparison reproduces the "Other Orderings" experiment shape:
// the automatic Z-order setup and the hand-tuned major-minor setup are
// comparable (within 2x on device time; the paper measures 284 s vs 291 s).
func TestOrderingComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("ordering comparison builds a second BDCC database")
	}
	b, err := NewBenchmark(0.01, plan.BDCC)
	if err != nil {
		t.Fatal(err)
	}
	oc, err := RunOrderingComparison(b)
	if err != nil {
		t.Fatalf("RunOrderingComparison: %v", err)
	}
	ratio := oc.ZOrderIO.Seconds() / oc.MajorIO.Seconds()
	if ratio > 2 || ratio < 0.5 {
		t.Errorf("z-order/major-minor device time ratio %.2f — paper finds the runs comparable", ratio)
	}
}
