package main

import (
	"time"
)

// layerValues derives the per-layer metrics a traced run has before its
// kernel probes: sums and medians of its spans, the counters the layers
// expose, and the timed phases of set-up.
func layerValues(sys *system, sec *section, spans []span, rep selfReport, phases map[string][]float64) map[string]float64 {
	const mb = 1 << 20
	v := map[string]float64{}
	n := float64(len(sec.sweeps))

	// Set-up phases (medians over the repeated set-ups).
	v["catalog.parse_ddl_us"] = median(phases["parse_ddl"]) * 1e6
	v["tpch.generate_s"] = median(phases["generate"])
	v["core.materialize_s"] = median(phases["materialize"])
	if c := median(phases["compress"]); c > 0 {
		v["storage.compress_mb_per_s"] = median(phases["compress_raw_bytes"]) / mb / c
	}

	// Counters over the whole timed section, per sweep.
	t := sec.total
	v["iosim.device_ms"] = ms(t.dev) / n
	v["iosim.read_runs"] = float64(t.runs) / n
	v["iosim.hidden_ms"] = ms(t.hidden) / n
	v["engine.sched_tasks"] = float64(t.sched.Tasks) / n
	v["engine.sched_steals"] = float64(t.sched.Steals) / n
	v["engine.sched_idle_ms"] = ms(t.sched.Idle) / n
	v["engine.gc_cycles"] = float64(sec.gcs) / n
	v["shard.net_msgs"] = float64(t.net.Runs) / n
	v["shard.net_mb"] = float64(t.net.Bytes) / n / mb
	v["shard.wire_saved_mb"] = float64(t.net.Saved) / n / mb
	v["shard.retries"] = float64(t.retries) / n
	v["shard.fallback_units"] = float64(t.fallback) / n
	if wb := t.workerBytes(); wb > 0 {
		var most int64
		for _, b := range t.worker {
			if b > most {
				most = b
			}
		}
		// The slowest worker sets a partitioned query's time.
		v["shard.worker_read_share_max"] = float64(most) / float64(wb)
	}
	if sys.srv != nil {
		v["serve.queued"] = float64(sys.srvStats[1].QueuedTotal - sys.srvStats[0].QueuedTotal)
		v["serve.rejected"] = float64(sys.srvStats[1].Rejected - sys.srvStats[0].Rejected)
		hits := float64(sys.cache[1][0] - sys.cache[0][0])
		misses := float64(sys.cache[1][1] - sys.cache[0][1])
		if hits+misses > 0 {
			v["tpch.cache_hit_ratio"] = hits / (hits + misses)
		}
		var cold []float64
		for _, d := range sec.coldPass {
			cold = append(cold, ms(d))
		}
		v["plan.cold_pass_ms"] = median(cold)
	}
	if ing := sys.db.Ingest(); ing != nil {
		st := ing.Stats()
		v["plan.merges"] = float64(st.Merges)
		v["plan.merged_rows"] = float64(st.MergedRows)
	}

	// Latency tail over every timed query of this run: each latency divided
	// by its own name's median, at the highest percentile the sample supports.
	by := map[string][]float64{}
	for _, l := range sec.lats {
		by[l.name] = append(by[l.name], ms(l.d))
	}
	var slow []float64
	for _, xs := range by {
		m := median(xs)
		if m > v["tpch.query_ms_slowest"] {
			v["tpch.query_ms_slowest"] = m
		}
		for _, x := range xs {
			slow = append(slow, x/m)
		}
	}
	if val, pct, ok := tail(slow); ok {
		v["tpch.slowdown_tail"], v["tpch.slowdown_tail_pct"] = val, pct
	}
	v["tpch.slowdown_samples"] = float64(len(slow))

	// Spans of the traced sweeps.
	sumBySweep := func(name string) float64 {
		per := map[[2]int]float64{}
		for _, s := range spans {
			if s.Name == name {
				per[[2]int{s.Client, s.Sweep}] += float64(s.dur()) / 1e6
			}
		}
		var xs []float64
		for _, x := range per {
			xs = append(xs, x)
		}
		return median(xs)
	}
	durs := func(name string) []float64 {
		var xs []float64
		for _, s := range spans {
			if s.Name == name {
				xs = append(xs, float64(s.dur())/1e6)
			}
		}
		return xs
	}
	v["tpch.build_ms"] = sumBySweep("tpch.build")
	v["plan.plan_ms"] = sumBySweep("plan.plan")
	v["engine.exec_ms"] = sumBySweep("engine.run")
	v["shard.close_ms"] = sumBySweep("shard.close")
	v["plan.append_ms_p50"] = median(durs("plan.append"))
	v["plan.merge_ms"] = median(durs("plan.merge"))

	var tracedMS, plainMS []float64
	for _, s := range sec.sweeps {
		if s.traced {
			tracedMS = append(tracedMS, ms(s.dur))
		} else {
			plainMS = append(plainMS, ms(s.dur))
		}
	}
	if m := median(tracedMS); m > 0 {
		v["plan.plan_share"] = v["plan.plan_ms"] / m
	}
	if m := median(plainMS); m > 0 {
		// Measured: traced over untraced sweeps of this one run. Its
		// resolution is the sweep-to-sweep spread, a few percent on a shared
		// box, which is far more than the spans cost.
		v["trace_overhead_pct"] = 100 * (median(tracedMS)/m - 1)
	}
	// Costed: what recording this run's spans takes, from timing the
	// recorder itself, as a share of the traced sweep.
	v["bench.span_cost_ns"] = spanCost()
	if m := median(tracedMS); m > 0 && len(tracedMS) > 0 {
		perSweep := float64(len(spans)) / float64(len(tracedMS))
		v["trace_cost_pct"] = 100 * perSweep * v["bench.span_cost_ns"] / (m * 1e6)
	}

	// The daemon's overhead around a query: the client's span minus the
	// handler span inside it (admission, framing, result encoding).
	child := map[int]int64{}
	for _, s := range spans {
		if s.Name == "tpch.handle" && s.Parent >= 0 {
			child[s.Parent] = s.dur()
		}
	}
	var over []float64
	for _, s := range spans {
		if d, ok := child[s.ID]; ok && s.Name == "serve.query" {
			over = append(over, float64(s.dur()-d)/1e6)
		}
	}
	v["serve.overhead_ms"] = median(over)

	for _, l := range layerOrder {
		v[l+".self_ms"] = rep.perS[l]
	}
	v["bench.accounted_share"] = rep.accounted()
	return v
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// spanCost times opening and closing one span, in ns.
func spanCost() float64 {
	const n = 10_000
	t := newTracer("cost")
	root := t.begin("root", "bench", nil, where{})
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.begin("span", "bench", root, where{}).end(nil)
	}
	return float64(time.Since(t0)) / n
}

// noisyDrift is how far the calibration loop may differ before and after the
// timed section before the run is flagged noisy.
const noisyDrift = 0.05

var calibSink uint64

var calibPasses = 3 // the smoke test makes one

// calibrate times a fixed pure-CPU loop (no memory traffic, no allocation):
// the best of three passes, so that a single preemption does not flag a run.
// It is the noise sentinel: the same loop taking longer after the timed
// section than before it means the machine, not the program, changed speed.
func calibrate() time.Duration {
	best := time.Duration(0)
	for pass := 0; pass < calibPasses; pass++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
	}
	return best
}
