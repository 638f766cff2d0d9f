package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans are recorded by the
// benchmark around its calls into the layers' public functions; nothing
// inside the program is instrumented.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Client   int    `json:"client"`
	Query    string `json:"query,omitempty"`
	Sweep    int    `json:"sweep"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// Counters are the counter snapshots taken at the span's end: the
	// process-wide heap bytes allocated and GC cycles completed while it was
	// open (they include what other clients did meanwhile), and whatever
	// meters the layer exposes at that boundary.
	Counters map[string]float64 `json:"counters,omitempty"`
}

func (s *span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory until the benchmark ends. A nil *tracer
// records nothing, so traced and untraced runs share one call sequence.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
	loose []span // finished spans waiting for adopt to find their parent
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// ref is an open span's handle; the zero-tracer's handle is nil.
type ref struct {
	t           *tracer
	id          int
	alloc0, gc0 uint64
}

// where locates a span in the run.
type where struct {
	client, sweep int
	query         string
}

func (t *tracer) begin(name, layer string, parent *ref, w where) *ref {
	if t == nil {
		return nil
	}
	pid := -1
	if parent != nil {
		pid = parent.id
	}
	alloc, gc := heapCounters()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: pid, Name: name, Layer: layer, Workload: t.workload,
		Client: w.client, Query: w.query, Sweep: w.sweep, StartNS: int64(time.Since(t.epoch))})
	t.mu.Unlock()
	return &ref{t: t, id: id, alloc0: alloc, gc0: gc}
}

// end closes the span; counters are extra meters read at this boundary.
func (r *ref) end(counters map[string]float64) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t.epoch))
	alloc, gc := heapCounters()
	if counters == nil {
		counters = make(map[string]float64, 2)
	}
	counters["alloc_bytes"] = float64(alloc - r.alloc0)
	counters["gc_cycles"] = float64(gc - r.gc0)
	r.t.mu.Lock()
	r.t.spans[r.id].EndNS = now
	r.t.spans[r.id].Counters = counters
	r.t.mu.Unlock()
}

// record keeps an already finished span whose parent is not known where it
// was timed (the daemon's handler runs on a server goroutine and does not
// know its client) until adopt finds the parent.
func (t *tracer) record(name, layer, query string, start, end time.Time, counters map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.loose = append(t.loose, span{Name: name, Layer: layer, Workload: t.workload, Query: query,
		StartNS: int64(start.Sub(t.epoch)), EndNS: int64(end.Sub(t.epoch)), Counters: counters})
	t.mu.Unlock()
}

// adopt attaches the recorded spans to the spans named parent: a recorded span
// can belong to a parent of the same query that encloses it (a client waits
// for its reply, so a handler span lies inside its client's span), and among
// all such pairs the ones with the least slack — parent's duration minus
// child's — are joined first, each span at most once. A request of an
// untraced client that ran nested inside a traced client's request of the
// same query therefore cannot take that client's slot: the client's own
// handler span fills its span more tightly. The child takes the parent's
// client and sweep; recorded spans left without a parent (warm-up, untraced
// sweeps) are dropped.
func (t *tracer) adopt(parent string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	type pair struct {
		parent, loose int
		slack         int64
	}
	var pairs []pair
	for j := range t.spans {
		p := &t.spans[j]
		if p.Name != parent {
			continue
		}
		for i := range t.loose {
			c := &t.loose[i]
			if c.Query == p.Query && p.StartNS <= c.StartNS && c.EndNS <= p.EndNS {
				pairs = append(pairs, pair{j, i, p.dur() - c.dur()})
			}
		}
	}
	sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].slack < pairs[b].slack })
	parentOf := map[int]int{}
	taken := map[int]bool{}
	for _, pr := range pairs {
		if _, done := parentOf[pr.loose]; done || taken[pr.parent] {
			continue
		}
		parentOf[pr.loose] = pr.parent
		taken[pr.parent] = true
	}
	for i, c := range t.loose {
		j, ok := parentOf[i]
		if !ok {
			continue
		}
		c.ID, c.Parent, c.Client, c.Sweep = len(t.spans), j, t.spans[j].Client, t.spans[j].Sweep
		t.spans = append(t.spans, c)
	}
	t.loose = nil
}

// heapCounters reads the cumulative heap bytes allocated and GC cycles
// completed, without stopping the world.
func heapCounters() (allocBytes, gcCycles uint64) {
	s := [2]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap one another
// (two clients' sweeps under one root), so the covered part is the union of
// their intervals, clipped to the parent.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].StartNS < spans[ks[b]].StartNS })
		var covered int64
		edge := s.StartNS // everything before edge is already counted
		for _, k := range ks {
			lo, hi := spans[k].StartNS, spans[k].EndNS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerOrder fixes the column order of the self-time report: the repo's
// modules that a span can belong to, then the harness itself.
var layerOrder = []string{"tpch", "serve", "plan", "shard", "engine", "bench"}

// selfReport aggregates self times per layer, per query name and per sweep.
type selfReport struct {
	sweeps  int                           // traced sweeps the sums were divided by
	perQ    map[string]map[string]float64 // query → layer → ms per sweep
	perS    map[string]float64            // layer → ms per sweep
	sweepMS float64                       // mean traced sweep duration, ms
}

func buildSelfReport(spans []span) selfReport {
	self := selfTimes(spans)
	r := selfReport{perQ: map[string]map[string]float64{}, perS: map[string]float64{}}
	var sweepNS int64
	for _, s := range spans {
		if s.Name == "sweep" {
			r.sweeps++
			sweepNS += s.dur()
		}
	}
	if r.sweeps == 0 {
		return r
	}
	n := float64(r.sweeps)
	for i, s := range spans {
		if s.Name == "run" {
			continue // the root only groups the sweeps
		}
		ms := float64(self[i]) / 1e6 / n
		r.perS[s.Layer] += ms
		q := s.Query
		if q == "" {
			q = "-"
		}
		if r.perQ[q] == nil {
			r.perQ[q] = map[string]float64{}
		}
		r.perQ[q][s.Layer] += ms
	}
	r.sweepMS = float64(sweepNS) / 1e6 / n
	return r
}

// accounted is the share of the traced sweep that lies in spans of the
// repo's layers rather than in the harness between them.
func (r selfReport) accounted() float64 {
	if r.sweepMS == 0 {
		return 0
	}
	var sum float64
	for l, ms := range r.perS {
		if l != "bench" {
			sum += ms
		}
	}
	return sum / r.sweepMS
}

func (r selfReport) write(w io.Writer) {
	if r.sweeps == 0 {
		return
	}
	fmt.Fprintf(w, "self time per layer, ms per sweep (mean of %d traced sweeps; a layer's self time is its spans minus what their children cover)\n", r.sweeps)
	fmt.Fprintf(w, "%-8s", "query")
	for _, l := range layerOrder {
		fmt.Fprintf(w, " %10s", l)
	}
	fmt.Fprintln(w)
	names := make([]string, 0, len(r.perQ))
	for q := range r.perQ {
		names = append(names, q)
	}
	sort.Strings(names)
	for _, q := range names {
		fmt.Fprintf(w, "%-8s", q)
		for _, l := range layerOrder {
			fmt.Fprintf(w, " %10.3f", r.perQ[q][l])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-8s", "sweep")
	var sum float64
	for _, l := range layerOrder {
		fmt.Fprintf(w, " %10.3f", r.perS[l])
		sum += r.perS[l]
	}
	fmt.Fprintf(w, "\nlayers sum to %.3f ms of a %.3f ms traced sweep; %.1f%% of it lies in the repo's layers\n",
		sum, r.sweepMS, 100*r.accounted())
}

// writeSpans writes the trace as one JSON document.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
