package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"bdcc/internal/engine"
	"bdcc/internal/expr"
	"bdcc/internal/tpch"
	"bdcc/internal/vector"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianQuartilesSpread(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median of 3 values = %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 values = %v, want 2.5", m)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25],
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75].
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{1, 2, 3, 4}); !near(q1, 1.25) || !near(q3, 3.75) {
		t.Errorf("quartiles(1..4) = %v, %v, want 1.25, 3.75", q1, q3)
	}
	if s := spread(ten); !near(s, 1) {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", s)
	}
	if s := spread([]float64{7, 7, 7}); s != 0 {
		t.Errorf("spread of equal values = %v, want 0", s)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 10, 100}); !near(g, 10) {
		t.Errorf("geomean(1,10,100) = %v, want 10", g)
	}
	if g := geomean([]float64{3, 0}); g != 0 {
		t.Errorf("geomean with a zero = %v, want 0", g)
	}
	if g := geomean(nil); g != 0 {
		t.Errorf("geomean of nothing = %v, want 0", g)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	if _, _, ok := tail(seq(10)); ok {
		t.Error("10 samples cannot have 10 beyond any of them")
	}
	if v, pct, ok := tail(seq(11)); !ok || v != 1 || !near(pct, 100.0/11) {
		t.Errorf("tail of 11 = %v at p%v ok=%v, want the smallest sample at p9.09", v, pct, ok)
	}
	v, pct, ok := tail(seq(100))
	if !ok || v != 90 || !near(pct, 90) {
		t.Errorf("tail of 1..100 = %v at p%v ok=%v, want 90 at p90", v, pct, ok)
	}
	beyond := 0
	for _, x := range seq(100) {
		if x > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Errorf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}
}

// Two clients' sweeps overlap under one root: the root's self time subtracts
// the union of its children, not their sum, and never what lies outside it.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "run", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "sweep", Client: 0, StartNS: 10, EndNS: 60},
		{ID: 2, Parent: 0, Name: "sweep", Client: 1, StartNS: 40, EndNS: 90},
		{ID: 3, Parent: 1, Name: "query", Client: 0, StartNS: 10, EndNS: 30},
		{ID: 4, Parent: 1, Name: "query", Client: 0, StartNS: 30, EndNS: 55},
		{ID: 5, Parent: 2, Name: "query", Client: 1, StartNS: 45, EndNS: 120}, // runs past its parent
		{ID: 6, Parent: 2, Name: "query", Client: 1, StartNS: 50, EndNS: 60},  // inside its sibling
	}
	want := []int64{20, 5, 5, 20, 25, 75, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// A handler span joins the client span of the same query that encloses it;
// two clients running the same query at once each get their own.
func TestAdoptByEnclosure(t *testing.T) {
	tr := newTracer("t")
	at := func(ns int64) time.Time { return tr.epoch.Add(time.Duration(ns)) }
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: "serve.query", Query: "Q01", Client: 0, Sweep: 3, StartNS: 0, EndNS: 100},
		{ID: 1, Parent: -1, Name: "serve.query", Query: "Q01", Client: 1, Sweep: 4, StartNS: 20, EndNS: 90},
		{ID: 2, Parent: -1, Name: "serve.query", Query: "Q02", Client: 1, Sweep: 4, StartNS: 0, EndNS: 100},
	}
	tr.record("tpch.handle", "tpch", "Q01", at(30), at(80), nil)   // fits both: the tighter one has less slack
	tr.record("tpch.handle", "tpch", "Q01", at(5), at(95), nil)    // fits only client 0
	tr.record("tpch.handle", "tpch", "Q01", at(200), at(300), nil) // its client was not traced
	tr.adopt("serve.query")
	if len(tr.spans) != 5 {
		t.Fatalf("%d spans left, want 5 (the unmatched handler span dropped)", len(tr.spans))
	}
	if s := tr.spans[3]; s.Parent != 1 || s.Client != 1 || s.Sweep != 4 {
		t.Errorf("inner handler span went to parent %d client %d sweep %d, want 1, 1, 4", s.Parent, s.Client, s.Sweep)
	}
	if s := tr.spans[4]; s.Parent != 0 || s.Client != 0 || s.Sweep != 3 {
		t.Errorf("outer handler span went to parent %d client %d sweep %d, want 0, 0, 3", s.Parent, s.Client, s.Sweep)
	}
}

// An untraced client's request that ran nested inside a traced client's
// request of the same query must not take that client's slot, although its
// handler finished first.
func TestAdoptIgnoresNestedUntracedRequest(t *testing.T) {
	tr := newTracer("t")
	at := func(ns int64) time.Time { return tr.epoch.Add(time.Duration(ns)) }
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: "serve.query", Query: "Q05", Client: 0, Sweep: 2, StartNS: 0, EndNS: 100},
	}
	tr.record("tpch.handle", "tpch", "Q05", at(20), at(60), nil) // the untraced client's, finished first
	tr.record("tpch.handle", "tpch", "Q05", at(2), at(99), nil)  // the traced client's own
	tr.adopt("serve.query")
	if len(tr.spans) != 2 {
		t.Fatalf("%d spans left, want 2 (the nested request's handler span dropped)", len(tr.spans))
	}
	if s := tr.spans[1]; s.Parent != 0 || s.StartNS != 2 || s.EndNS != 99 || s.Client != 0 || s.Sweep != 2 {
		t.Errorf("client span adopted [%d,%d] under parent %d, want its own handler span [2,99] under 0", s.StartNS, s.EndNS, s.Parent)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.begin("x", "bench", nil, where{})
	sp.end(nil)
	tr.record("y", "bench", "", time.Now(), time.Now(), nil)
	if sp != nil {
		t.Error("a nil tracer handed out a span")
	}
}

func fixtureResult(rows [][3]any) *engine.Result {
	res := &engine.Result{
		Schema: expr.Schema{{Name: "k", Kind: vector.Int64}, {Name: "s", Kind: vector.String}, {Name: "f", Kind: vector.Float64}},
		Cols:   []*vector.Vector{vector.NewVector(vector.Int64, 0), vector.NewVector(vector.String, 0), vector.NewVector(vector.Float64, 0)},
	}
	for _, r := range rows {
		res.Cols[0].AppendInt64(int64(r[0].(int)))
		res.Cols[1].AppendString(r[1].(string))
		res.Cols[2].AppendFloat64(r[2].(float64))
	}
	return res
}

func TestChecksumStability(t *testing.T) {
	base := fixtureResult([][3]any{{1, "a", 10.5}, {2, "b", 123456.789}, {3, "c", 0.25}})
	rows, sum := checksum(base)
	// Pinned: expected.json was written with this function, so its value for
	// a given result must not change without the expectations being rewritten.
	if rows != 3 || sum != "c7455ee41098aa3f" {
		t.Errorf("checksum = %d rows %s, want 3 rows c7455ee41098aa3f", rows, sum)
	}
	reordered := fixtureResult([][3]any{{3, "c", 0.25}, {1, "a", 10.5}, {2, "b", 123456.789}})
	if _, s := checksum(reordered); s != sum {
		t.Errorf("row order changed the checksum: %s vs %s", s, sum)
	}
	lastBits := fixtureResult([][3]any{{1, "a", 10.5}, {2, "b", math.Nextafter(123456.789, 0)}, {3, "c", 0.25}})
	if _, s := checksum(lastBits); s != sum {
		t.Errorf("a last-bit float difference changed the checksum: %s vs %s", s, sum)
	}
	for name, other := range map[string]*engine.Result{
		"float":   fixtureResult([][3]any{{1, "a", 10.5}, {2, "b", 123457.9}, {3, "c", 0.25}}),
		"string":  fixtureResult([][3]any{{1, "a", 10.5}, {2, "B", 123456.789}, {3, "c", 0.25}}),
		"int":     fixtureResult([][3]any{{1, "a", 10.5}, {2, "b", 123456.789}, {4, "c", 0.25}}),
		"missing": fixtureResult([][3]any{{1, "a", 10.5}, {2, "b", 123456.789}}),
		"swapped": fixtureResult([][3]any{{1, "b", 10.5}, {2, "a", 123456.789}, {3, "c", 0.25}}),
	} {
		if _, s := checksum(other); s == sum {
			t.Errorf("a changed %s left the checksum unchanged", name)
		}
	}
}

func TestCorruptedExpectationFails(t *testing.T) {
	res := fixtureResult([][3]any{{1, "a", 10.5}})
	rows, sum := checksum(res)
	exp := expectations{"sf0.5": {"Q01": {Rows: rows, FNV: sum}}}
	if err := exp.check(0.5, "Q01", res); err != nil {
		t.Fatalf("matching expectation rejected: %v", err)
	}
	exp["sf0.5"]["Q01"] = expectation{Rows: rows, FNV: "0000000000000000"}
	if err := exp.check(0.5, "Q01", res); err == nil {
		t.Error("a corrupted checksum was accepted")
	}
	exp["sf0.5"]["Q01"] = expectation{Rows: rows + 1, FNV: sum}
	if err := exp.check(0.5, "Q01", res); err == nil {
		t.Error("a wrong row count was accepted")
	}
	if err := exp.check(0.5, "Q02", res); err == nil {
		t.Error("a query without an expectation was accepted")
	}
	if err := exp.check(0.25, "Q01", res); err == nil {
		t.Error("a scale factor without expectations was accepted")
	}
}

func TestSameRowsToleratesSummationOrder(t *testing.T) {
	a := fixtureResult([][3]any{{1, "a", 1000000.004}, {2, "b", 5.0}})
	b := fixtureResult([][3]any{{2, "b", 5.0}, {1, "a", 1000000.0049}})
	if err := sameRows(a, b); err != nil {
		t.Errorf("results equal within tolerance rejected: %v", err)
	}
	c := fixtureResult([][3]any{{2, "b", 5.0}, {1, "a", 1000002.0}})
	if err := sameRows(a, c); err == nil {
		t.Error("results that differ were accepted")
	}
}

func TestEmbeddedExpectationsCoverEveryWorkload(t *testing.T) {
	exp, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	for _, sf := range expectedSFs() {
		if n := len(exp[sfKey(sf)]); n != 22 {
			t.Errorf("expected.json has %d queries at %s, want 22", n, sfKey(sf))
		}
	}
}

// The traced run's set-up is tpch.NewBenchmarkCompressed taken apart so that
// its steps can be timed. The two must build the same database, or the
// per-layer set-up metrics describe something other than setup_s: same
// encoding, and for every query the same rows, bytes read and peak memory.
func TestPhasedSetupMatchesConstructor(t *testing.T) {
	for _, w := range []*workload{&workloads[0], &workloads[1]} { // Plain and BDCC
		phased, err := setupPhased(smokeSF, w.scheme, map[string][]float64{})
		if err != nil {
			t.Fatal(err)
		}
		whole, err := tpch.NewBenchmarkCompressed(smokeSF, true, w.scheme)
		if err != nil {
			t.Fatal(err)
		}
		if len(phased.DBs) != 1 || phased.SF != whole.SF || phased.Compressed != whole.Compressed {
			t.Errorf("%s: phased set-up built %d databases at SF %v compressed=%t", w.scheme, len(phased.DBs), phased.SF, phased.Compressed)
		}
		a, b := phased.DBs[w.scheme], whole.DBs[w.scheme]
		if a.CompressionStats() != b.CompressionStats() {
			t.Errorf("%s: compression differs: phased %+v, constructor %+v", w.scheme, a.CompressionStats(), b.CompressionStats())
		}
		for _, q := range tpch.Queries {
			ra, sa, err := execQuery(a, w.opt, q, nil, nil, where{})
			if err != nil {
				t.Fatal(err)
			}
			rb, sb, err := execQuery(b, w.opt, q, nil, nil, where{})
			if err != nil {
				t.Fatal(err)
			}
			rowsA, sumA := checksum(ra)
			rowsB, sumB := checksum(rb)
			if rowsA != rowsB || sumA != sumB || sa.bytes != sb.bytes || sa.runs != sb.runs || sa.peak != sb.peak {
				t.Errorf("%s %s: phased %d rows %s, %d bytes in %d runs, peak %d; constructor %d rows %s, %d bytes in %d runs, peak %d",
					w.scheme, q.Name, rowsA, sumA, sa.bytes, sa.runs, sa.peak, rowsB, sumB, sb.bytes, sb.runs, sb.peak)
			}
		}
	}
}

func TestTimedSweeps(t *testing.T) {
	w := &workload{sweeps: 11}
	if n := w.timedSweeps(defaultSeconds, false); n != 11 {
		t.Errorf("untraced sweeps at the default length = %d, want 11", n)
	}
	if n := w.timedSweeps(2*defaultSeconds, false); n != 22 {
		t.Errorf("untraced sweeps at twice the length = %d, want 22", n)
	}
	if n := w.timedSweeps(defaultSeconds, true); n != 6 {
		t.Errorf("traced sweeps = %d, want 3 untraced/traced pairs", n)
	}
	if n := w.timedSweeps(0.1, true); n != 2 {
		t.Errorf("shortest traced run = %d sweeps, want one pair", n)
	}
}

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// BENCHMARK.json at the repo root must say what this package does.
func TestManifestMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the sweep counts are sized for %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in code (or their reasons differ)", i, m.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: reason must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in code", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in code", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s is used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// Every workload runs end to end at a tiny scale, untraced and traced, with
// every result verified, so that the harness keeps compiling and verifying
// as internal/ changes.
func TestSmokeAllWorkloads(t *testing.T) {
	defer func(d time.Duration, n int) { probeFor, calibPasses = d, n }(probeFor, calibPasses)
	probeFor, calibPasses = 0, 1 // every probe still runs, three times
	start := time.Now()
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			out, err := runWorkload(w, config{seed: 7, seconds: defaultSeconds, traced: traced, smoke: true, out: io.Discard})
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s traced=%t: %d of %d operations failed: %v", w.name, traced, out.failed, out.attempted, out.firstErr)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(out.metrics) != len(defs) {
				t.Errorf("%s traced=%t: %d metrics reported, want %d", w.name, traced, len(out.metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := out.metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%t: metric %s = %+v (present %t)", w.name, traced, d.Name, v, ok)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, v.Value)
				}
			}
			if traced {
				for _, name := range []string{"engine.gc_cycles", "tpch.generate_s", "storage.encoded_ratio", "bench.accounted_share"} {
					if out.metrics[name].Value <= 0 {
						t.Errorf("%s: traced run reports %s = %v", w.name, name, out.metrics[name].Value)
					}
				}
				if len(out.spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", w.name)
				}
			}
		}
	}
	// 8.5 s on a quiet box, whose speed drifts by up to 20 %.
	if d := time.Since(start); d > 15*time.Second && !raceEnabled {
		t.Errorf("smoke test took %v, want under 10 s on a quiet box and never over 15 s", d)
	}
}
