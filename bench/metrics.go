package main

import (
	"fmt"
	"io"
)

// metricDef is one metric the benchmark reports, as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

// endToEnd are the seven metrics every workload reports from an untraced run.
//
// A bound has to hold two ways at once: the driver that accepts this benchmark
// runs every workload ten times on ten seeds and refuses it when a metric's
// quartile distance ÷ median exceeds the bound (and wants it below a third of
// it), and later it rejects a PR whose median is worse by more than the bound.
// So a bound cannot be tighter than the spread of identical code. On this box
// that spread is 5–21 % for the wall-clock metrics (its speed drifts by
// 10–20 % for minutes at a time, whatever the run length or estimator), hence
// the contract's maximum of 25 % instead of the issue's 10 %. The counts
// repeat exactly for a given seed, with two exceptions. Across seeds
// ingest_mixed varies, its arrival stream being the seeded input: mb_read by
// 0.5–0.6 %, peak_mb by 0.3–0.6 %, alloc_mb by 2–3 % (how much an append copies
// jumps with the delta's size, and the seed decides where the jumps fall). And
// bdcc_partitioned's tracked peak depends on how its two workers' tasks
// overlap: a run reads 0.8987 or 0.9265 MB, 3.1 % apart, and a set of ten had
// its quartiles on both. So mb_read has 2 % (a third of it covers its spread),
// and peak_mb and alloc_mb have 5 % where the issue wanted 2 %: under 2 % the
// benchmark's own A/A run fails on peak_mb.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sweep_ms", "ms", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"query_ms_geomean", "ms", "lower", 0.25},
	{"mb_read", "MB", "lower", 0.02},
	{"peak_mb", "MB", "lower", 0.05},
	{"alloc_mb", "MB", "lower", 0.05},
}

// perLayer are the metrics of single layers, reported by a traced run: from
// its spans, from the counters the layers expose, and from the kernel probes
// it executes after its sweeps. A workload that does not exercise a layer
// reports that layer's metrics as 0.
var perLayer = []metricDef{
	{Name: "tpch.generate_s", Unit: "s", Better: "lower"},
	{Name: "tpch.build_ms", Unit: "ms", Better: "lower"},
	{Name: "tpch.query_ms_slowest", Unit: "ms", Better: "lower"},
	{Name: "tpch.slowdown_tail", Unit: "ratio", Better: "lower"},
	{Name: "tpch.slowdown_tail_pct", Unit: "%", Better: "higher"},
	{Name: "tpch.slowdown_samples", Unit: "count", Better: "higher"},
	{Name: "tpch.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "tpch.self_ms", Unit: "ms", Better: "lower"},

	{Name: "catalog.parse_ddl_us", Unit: "us", Better: "lower"},

	{Name: "core.materialize_s", Unit: "s", Better: "lower"},
	{Name: "core.scatter_plan_us", Unit: "us", Better: "lower"},
	{Name: "core.merge_rows_per_s", Unit: "rows/s", Better: "higher"},

	{Name: "storage.compress_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "storage.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "storage.pushdown_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "storage.encoded_ratio", Unit: "ratio", Better: "lower"},
	{Name: "storage.concat_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.delta_append_us", Unit: "us", Better: "lower"},

	{Name: "vector.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "vector.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "vector.wire_ratio", Unit: "ratio", Better: "lower"},
	{Name: "vector.hash_keys_ns_per_row", Unit: "ns/row", Better: "lower"},

	{Name: "expr.filter_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "expr.arith_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "expr.alloc_b_per_batch", Unit: "B/batch", Better: "lower"},

	{Name: "engine.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.hashjoin_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "engine.hashagg_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "engine.sort_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "engine.sched_tasks", Unit: "count", Better: "lower"},
	{Name: "engine.sched_steals", Unit: "count", Better: "lower"},
	{Name: "engine.sched_idle_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.gc_cycles", Unit: "count", Better: "lower"},

	{Name: "plan.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.plan_share", Unit: "ratio", Better: "lower"},
	{Name: "plan.self_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.cold_pass_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.append_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "plan.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.merges", Unit: "count", Better: "lower"},
	{Name: "plan.merged_rows", Unit: "count", Better: "higher"},
	{Name: "plan.snapshot_ns", Unit: "ns", Better: "lower"},

	{Name: "iosim.device_ms", Unit: "ms", Better: "lower"},
	{Name: "iosim.read_runs", Unit: "count", Better: "lower"},
	{Name: "iosim.hidden_ms", Unit: "ms", Better: "higher"},

	{Name: "shard.ship_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.unit_encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "shard.unit_decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "shard.partition_us", Unit: "us", Better: "lower"},
	{Name: "shard.net_msgs", Unit: "count", Better: "lower"},
	{Name: "shard.net_mb", Unit: "MB", Better: "lower"},
	{Name: "shard.wire_saved_mb", Unit: "MB", Better: "higher"},
	{Name: "shard.worker_read_share_max", Unit: "ratio", Better: "lower"},
	{Name: "shard.retries", Unit: "count", Better: "lower"},
	{Name: "shard.fallback_units", Unit: "count", Better: "lower"},
	{Name: "shard.close_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.self_ms", Unit: "ms", Better: "lower"},

	{Name: "serve.rtt_us", Unit: "us", Better: "lower"},
	{Name: "serve.dial_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.self_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queued", Unit: "count", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},

	{Name: "bench.self_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.accounted_share", Unit: "ratio", Better: "higher"},
	{Name: "bench.span_cost_ns", Unit: "ns", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace_cost_pct", Unit: "%", Better: "lower"},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report fills in every metric of defs from vals (0 where vals has none) and
// prints them by name with their unit.
func report(w io.Writer, defs []metricDef, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: vals[d.Name], Unit: d.Unit}
		fmt.Fprintf(w, "%-30s %16.6f %s\n", d.Name, vals[d.Name], d.Unit)
	}
	return out
}
