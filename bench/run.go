package main

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"bdcc/internal/engine"
	"bdcc/internal/iosim"
	"bdcc/internal/plan"
	"bdcc/internal/tpch"
)

// config is one invocation's settings.
type config struct {
	seed     int64
	seconds  float64
	traced   bool
	traceOut string // file the spans are written to; empty = not written
	// smoke shrinks the run to the size of the test that runs every workload
	// once: smokeSF, one set-up, no warm-up, one timed sweep (one
	// untraced/traced pair in a traced run). Only the test sets it.
	smoke bool
	out   io.Writer // human-readable report
}

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median of them.
const setupRepeats = 3

// outcome is what one run reports.
type outcome struct {
	attempted, failed int
	metrics           map[string]value
	spans             []span
	firstErr          error
}

// qstats are the meters one query's context exposes once it has run.
type qstats struct {
	bytes, runs int64
	dev, hidden time.Duration
	peak        int64
	net         iosim.Stats
	worker      []int64 // bytes read per worker of a partitioned run
	retries     int64
	fallback    int64
	sched       engine.SchedStats
}

func readStats(ctx *engine.Context) qstats {
	io := ctx.Acct.Stats()
	st := qstats{bytes: io.Bytes, runs: io.Runs, dev: io.Time, hidden: io.Hidden, peak: ctx.Mem.Peak(),
		net: ctx.NetStats(), fallback: ctx.LocalFallbackUnits()}
	for _, w := range ctx.WorkerIOStats() {
		st.worker = append(st.worker, w.Bytes)
	}
	for _, h := range ctx.HealthStats() {
		st.retries += h.Retries
	}
	if s := ctx.Scheduler(); s != nil {
		st.sched = s.Stats()
	}
	return st
}

// add folds o into s: sums, except the peak, which is the largest seen.
func (s *qstats) add(o qstats) {
	s.bytes += o.bytes
	s.runs += o.runs
	s.dev += o.dev
	s.hidden += o.hidden
	if o.peak > s.peak {
		s.peak = o.peak
	}
	s.net.Runs += o.net.Runs
	s.net.Bytes += o.net.Bytes
	s.net.Saved += o.net.Saved
	for i, b := range o.worker {
		if i >= len(s.worker) {
			s.worker = append(s.worker, 0)
		}
		s.worker[i] += b
	}
	s.retries += o.retries
	s.fallback += o.fallback
	s.sched.Tasks += o.sched.Tasks
	s.sched.Steals += o.sched.Steals
	s.sched.Idle += o.sched.Idle
}

func (s qstats) workerBytes() int64 {
	var n int64
	for _, b := range s.worker {
		n += b
	}
	return n
}

func (s qstats) counters() map[string]float64 {
	return map[string]float64{
		"read_bytes": float64(s.bytes + s.workerBytes()), "read_runs": float64(s.runs),
		"device_ns": float64(s.dev), "peak_bytes": float64(s.peak),
		"net_msgs": float64(s.net.Runs), "net_bytes": float64(s.net.Bytes),
		"sched_tasks": float64(s.sched.Tasks),
	}
}

// queryObs is one executed query as its client saw it.
type queryObs struct {
	name string
	lat  time.Duration
	res  *engine.Result
	err  error
}

// sweepObs is one sweep of one client.
type sweepObs struct {
	queries []queryObs
	stats   qstats // zero on the daemon, whose handler meters the queries
	// ops are the sweep's operations besides its queries (appends, merges).
	ops, opsFailed int
	err            error
}

// execQuery runs one query the way every workload that calls the engine
// directly does, traced or not: NewEnvOpts → Build → Plan → Run → Close.
func execQuery(db *plan.DB, opt tpch.RunOptions, q tpch.QueryDef, tr *tracer, parent *ref, w where) (*engine.Result, qstats, error) {
	w.query = q.Name
	sp := tr.begin("query", "bench", parent, w)
	env := tpch.NewEnvOpts(db, opt)
	fail := func(err error) (*engine.Result, qstats, error) {
		env.Close() // the query already failed; its error is the one reported
		sp.end(nil)
		return nil, qstats{}, fmt.Errorf("%s: %w", q.Name, err)
	}
	bs := tr.begin("tpch.build", "tpch", sp, w)
	node, err := q.Build(env)
	bs.end(nil)
	if err != nil {
		return fail(err)
	}
	p := plan.NewPlanner(env.DB, env.Ctx)
	ps := tr.begin("plan.plan", "plan", sp, w)
	op, err := p.Plan(node)
	ps.end(nil)
	if err != nil {
		return fail(err)
	}
	es := tr.begin("engine.run", "engine", sp, w)
	res, err := engine.Run(env.Ctx, op)
	es.end(nil)
	if err != nil {
		return fail(err)
	}
	st := readStats(env.Ctx) // the backend set's meters are gone after Close
	cs := tr.begin("shard.close", "shard", sp, w)
	err = env.Close()
	cs.end(nil)
	if sp != nil {
		sp.end(st.counters())
	}
	if err != nil {
		return nil, st, fmt.Errorf("%s: backend close: %w", q.Name, err)
	}
	return res, st, nil
}

// rotation returns the query list rotated to start at offset.
func rotation(qs []tpch.QueryDef, offset int) []tpch.QueryDef {
	out := make([]tpch.QueryDef, 0, len(qs))
	out = append(out, qs[offset%len(qs):]...)
	return append(out, qs[:offset%len(qs)]...)
}

// timedSweep is one timed sweep's record.
type timedSweep struct {
	traced bool
	dur    time.Duration
}

// latency is one timed query's record.
type latency struct {
	name string
	d    time.Duration
}

// section is everything measured between the end of warm-up and the end of
// the last client's last sweep.
type section struct {
	wall              time.Duration
	sweeps            []timedSweep
	lats              []latency
	total             qstats
	peaks             []float64 // per sweep: the largest query peak, bytes
	attempted, failed int
	okQueries         int
	allocBytes, gcs   uint64
	coldPass          []time.Duration // each client's first warm-up sweep
	calibBefore       time.Duration
	calibAfter        time.Duration
	firstErr          error
}

// runWorkload sets the workload up, warms it, runs the timed section and
// turns what it measured into metrics.
func runWorkload(w *workload, cfg config) (*outcome, error) {
	exp, err := loadExpectations()
	if err != nil {
		return nil, err
	}
	nSetups, nWarm, nTimed := setupRepeats, w.warmup, w.timedSweeps(cfg.seconds, cfg.traced)
	if cfg.smoke {
		small := *w
		small.sf = smokeSF
		w = &small
		nSetups, nWarm, nTimed = 1, 0, 1
		if cfg.traced {
			nTimed = 2
		}
	}
	// Every client starts its passes at another query of the list, so that
	// two clients do not run the same query in lockstep.
	rng := rand.New(rand.NewSource(cfg.seed))
	offsets := rng.Perm(len(w.queries))
	orders := make([][]tpch.QueryDef, w.clients)
	for c := range orders {
		orders[c] = rotation(w.queryDefs(), offsets[c])
	}
	deltaSeed := rng.Int63()

	var tr *tracer
	if cfg.traced {
		tr = newTracer(w.name)
	}

	// Set-up, repeated so that its time is a median; the last one is kept.
	var sys *system
	var setupS []float64
	phases := map[string][]float64{}
	for i := 0; i < nSetups; i++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		sys, err = w.setup(cfg.traced, tr, phases)
		if err != nil {
			return nil, fmt.Errorf("bench: %s set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer sys.close()
	if w.kind == kindIngest {
		// The arrival stream is the benchmark's input, generated here from
		// the seed; the program only ever sees the batches.
		gen := tpch.NewDeltaGen(sys.bench.Data, deltaSeed)
		for i := 0; i < (nWarm+nTimed)*len(w.queries); i++ {
			sys.batches = append(sys.batches, gen.Next(ingestOrdersPerBatch))
		}
	}

	sec := runSection(w, sys, exp, orders, nWarm, nTimed, tr)

	out := &outcome{attempted: sec.attempted, failed: sec.failed, firstErr: sec.firstErr}
	if w.kind == kindIngest {
		att, failed, err := sys.verifyIngest(w)
		out.attempted += att
		out.failed += failed
		if err != nil && out.firstErr == nil {
			out.firstErr = err
		}
	}

	drift := 0.0
	if sec.calibBefore > 0 {
		drift = float64(sec.calibAfter-sec.calibBefore) / float64(sec.calibBefore)
	}
	noisy := drift > noisyDrift || drift < -noisyDrift
	fmt.Fprintf(cfg.out, "workload %s seed %d sf %g: %d timed sweeps per client, %d client(s), timed section %.3f s\n",
		w.name, cfg.seed, w.sf, nTimed, w.clients, sec.wall.Seconds())
	fmt.Fprintf(cfg.out, "noise_sentinel before=%.3fms after=%.3fms drift=%+.1f%% noisy=%t\n",
		ms(sec.calibBefore), ms(sec.calibAfter), 100*drift, noisy)
	fmt.Fprintf(cfg.out, "sweep ms (t = traced):")
	for _, s := range sec.sweeps {
		mark := ""
		if s.traced {
			mark = "t"
		}
		fmt.Fprintf(cfg.out, " %.1f%s", ms(s.dur), mark)
	}
	fmt.Fprintf(cfg.out, "\noperations attempted=%d failed=%d\n", out.attempted, out.failed)
	if out.firstErr != nil {
		fmt.Fprintf(cfg.out, "first failure: %v\n", out.firstErr)
	}

	if !cfg.traced {
		out.metrics = report(cfg.out, endToEnd, endToEndValues(sec, setupS))
		return out, nil
	}
	tr.adopt("serve.query")
	out.spans = tr.spans
	rep := buildSelfReport(tr.spans)
	vals := layerValues(sys, sec, tr.spans, rep, phases)
	if err := runProbes(w, sys, vals); err != nil {
		return nil, fmt.Errorf("bench: %s kernel probes: %w", w.name, err)
	}
	rep.write(cfg.out)
	out.metrics = report(cfg.out, perLayer, vals)
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, tr.spans); err != nil {
			return nil, fmt.Errorf("bench: writing trace: %w", err)
		}
		fmt.Fprintf(cfg.out, "wrote %d spans to %s\n", len(tr.spans), cfg.traceOut)
	}
	return out, nil
}

// runSection warms every client up, then runs the timed sweeps. Clients
// start the timed section together and do not wait for one another after
// that. In a traced run every second timed sweep is traced, so the two
// halves see the same machine and their difference is the tracing overhead.
func runSection(w *workload, sys *system, exp expectations, orders [][]tpch.QueryDef, nWarm, nTimed int, tr *tracer) *section {
	sec := &section{}
	var mu sync.Mutex // guards sec while clients run
	var warm, done sync.WaitGroup
	start := make(chan struct{})
	ends := make([]time.Time, w.clients)
	var root *ref
	if tr != nil {
		root = tr.begin("run", "bench", nil, where{client: -1, sweep: -1})
	}
	for c := 0; c < w.clients; c++ {
		warm.Add(1)
		done.Add(1)
		go func(c int) {
			defer done.Done()
			check := func(idx int, obs sweepObs, timed bool) {
				att, failed, ok := obs.ops, obs.opsFailed, 0
				firstErr := obs.err
				for _, q := range obs.queries {
					att++
					err := q.err
					if err == nil && w.kind != kindIngest {
						// On ingest_mixed a query sees whatever delta has
						// arrived; its reference is the rebuild at the end.
						err = exp.check(w.sf, q.name, q.res)
					}
					if err != nil {
						failed++
						if firstErr == nil {
							firstErr = fmt.Errorf("client %d sweep %d: %w", c, idx, err)
						}
						continue
					}
					ok++
				}
				mu.Lock()
				sec.attempted += att
				sec.failed += failed
				if timed {
					sec.okQueries += ok
				}
				if firstErr != nil && sec.firstErr == nil {
					sec.firstErr = firstErr
				}
				mu.Unlock()
			}
			for i := 0; i < nWarm; i++ {
				t0 := time.Now()
				obs := sys.sweep(w, c, i, orders[c], nil, nil)
				if i == 0 {
					mu.Lock()
					sec.coldPass = append(sec.coldPass, time.Since(t0))
					mu.Unlock()
				}
				check(i, obs, false)
			}
			warm.Done()
			<-start
			for i := 0; i < nTimed; i++ {
				idx := nWarm + i
				var t *tracer
				if i%2 == 1 {
					t = tr // nil in an untraced run
				}
				t0 := time.Now()
				sw := t.begin("sweep", "bench", root, where{client: c, sweep: idx})
				obs := sys.sweep(w, c, idx, orders[c], t, sw)
				sw.end(nil)
				dur := time.Since(t0)
				ends[c] = time.Now()
				// Verification happens after the sweep's clock has stopped.
				check(idx, obs, true)
				mu.Lock()
				sec.sweeps = append(sec.sweeps, timedSweep{traced: t != nil, dur: dur})
				for _, q := range obs.queries {
					sec.lats = append(sec.lats, latency{q.name, q.lat})
				}
				sec.total.add(obs.stats)
				if obs.stats.peak > 0 {
					sec.peaks = append(sec.peaks, float64(obs.stats.peak))
				}
				mu.Unlock()
			}
		}(c)
	}
	warm.Wait()
	sec.calibBefore = calibrate()
	sys.beginTimed()
	alloc0, gc0 := heapCounters()
	t0 := time.Now()
	close(start)
	done.Wait()
	last := t0
	for _, e := range ends {
		if e.After(last) {
			last = e
		}
	}
	sec.wall = last.Sub(t0)
	alloc1, gc1 := heapCounters()
	sec.allocBytes, sec.gcs = alloc1-alloc0, gc1-gc0
	sec.total.add(sys.endTimed())
	sec.calibAfter = calibrate()
	root.end(nil)
	return sec
}

func endToEndValues(sec *section, setupS []float64) map[string]float64 {
	n := float64(len(sec.sweeps))
	var durs []float64
	for _, s := range sec.sweeps {
		durs = append(durs, float64(s.dur)/1e6)
	}
	const mb = 1 << 20
	// The largest peak of any query in a sweep, as the median over sweeps:
	// with two workers the tracked peak depends on how their tasks overlap,
	// and the largest of a whole run would be an extreme value. The daemon's
	// handler does not see sweeps; its pools are serial and its peaks repeat.
	peak := float64(sec.total.peak)
	if len(sec.peaks) > 0 {
		peak = median(sec.peaks)
	}
	return map[string]float64{
		"setup_s":          median(setupS),
		"sweep_ms":         median(durs),
		"queries_per_s":    float64(sec.okQueries) / sec.wall.Seconds(),
		"query_ms_geomean": geomean(nameMedians(sec.lats)),
		"mb_read":          float64(sec.total.bytes+sec.total.workerBytes()) / n / mb,
		"peak_mb":          peak / mb,
		"alloc_mb":         float64(sec.allocBytes) / n / mb,
	}
}

// nameMedians returns each query name's median latency in ms, in name order.
// The mix is fixed, so a percentile over pooled latencies would be set by
// which query sits at that rank, not by the system.
func nameMedians(lats []latency) []float64 {
	by := map[string][]float64{}
	for _, l := range lats {
		by[l.name] = append(by[l.name], float64(l.d)/1e6)
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]float64, len(names))
	for i, n := range names {
		out[i] = median(by[n])
	}
	return out
}
