package tpch

import (
	"fmt"
	"io"
	"time"

	"bdcc/internal/core"
	"bdcc/internal/engine"
	"bdcc/internal/plan"
	"bdcc/internal/storage"
)

// QueryRun is one (query, scheme) measurement. Round is 0 on a read-only
// grid; an ingest grid runs every query twice — round 1 interleaved with
// appends (delta visible), round 2 after the merge consolidated it.
type QueryRun struct {
	Query  string
	Scheme plan.Scheme
	Round  int
	Stats  *Stats
}

// Report holds the full Figure 2 / Figure 3 measurement grid.
type Report struct {
	SF      float64
	Workers int      // morsel-parallelism knob the grid ran with (0/1 = serial)
	Shards  int      // scale-out knob the grid ran with (0/1 = single-box)
	Remotes []string // bdccworker addresses the grid ran against (empty = simulated)
	Schemes []plan.Scheme
	Runs    map[plan.Scheme][]QueryRun // indexed by query position
	Explain map[string][]string        // per "scheme/query"
	// Compressed records the storage-compression knob; Comp holds the
	// per-scheme compression outcome (modeled on-disk bytes and the wire
	// bytes the batch codec saved across the scheme's 22 runs).
	Compressed bool
	Comp       map[plan.Scheme]CompRecord
	// Concurrency holds the daemon leg of the grid (closed-loop clients
	// through bdccd, one record per scheme); nil when the grid ran without
	// a daemon. Populated by tpchbench -clients.
	Concurrency []ConcurrencyStats
	// IngestRate and IngestLimit are the mixed-workload knobs of an ingest
	// grid (RunAllIngest): orders appended before each round-1 query and the
	// per-table delta bound that triggers merges. Ingest holds the
	// per-scheme outcome; all empty/zero on a read-only grid.
	IngestRate  int
	IngestLimit int
	Ingest      map[plan.Scheme]IngestRecord
}

// IngestRecord is one scheme's ingest outcome over the grid: lifetime
// appended rows and committed consolidations.
type IngestRecord struct {
	AppendedRows int64
	Merges       int64
	MergedRows   int64
}

// CompRecord is one scheme's compression outcome: the storage-side chunk
// totals plus the wire bytes the batch codec saved over the scheme's runs.
type CompRecord struct {
	storage.CompressionStats
	WireSaved int64
}

// newReport starts an empty grid over the benchmark's materialized schemes,
// recording the knobs it runs with: real workers set the shard count, and
// placement defaults to "hash".
func (b *Benchmark) newReport() *Report {
	rep := &Report{
		SF:         b.SF,
		Workers:    b.Workers,
		Shards:     b.Shards,
		Remotes:    b.Remotes,
		Runs:       make(map[plan.Scheme][]QueryRun),
		Explain:    make(map[string][]string),
		Compressed: b.Compressed,
		Comp:       make(map[plan.Scheme]CompRecord),
	}
	if len(b.Remotes) > 0 {
		rep.Shards = len(b.Remotes)
	}
	for _, scheme := range []plan.Scheme{plan.Plain, plan.PK, plan.BDCC} {
		if _, ok := b.DBs[scheme]; ok {
			rep.Schemes = append(rep.Schemes, scheme)
		}
	}
	return rep
}

// RunAll executes every TPC-H query under every materialized scheme of the
// benchmark, with fresh meters per run (cold execution, as in the paper's
// Figure 2). The benchmark's Workers knob applies to every run.
func (b *Benchmark) RunAll() (*Report, error) {
	rep := b.newReport()
	opt := b.RunOptions
	for _, scheme := range rep.Schemes {
		db := b.DBs[scheme]
		comp := CompRecord{CompressionStats: db.CompressionStats()}
		for _, q := range Queries {
			_, st, explain, err := RunQueryOpts(db, q, opt)
			if err != nil {
				return nil, fmt.Errorf("tpch: %s under %s: %w", q.Name, scheme, err)
			}
			rep.Runs[scheme] = append(rep.Runs[scheme], QueryRun{Query: q.Name, Scheme: scheme, Stats: st})
			rep.Explain[fmt.Sprintf("%s/%s", scheme, q.Name)] = explain
			comp.WireSaved += st.Net.Saved
		}
		rep.Comp[scheme] = comp
	}
	return rep, nil
}

// RunAllIngest executes the mixed read/write grid: every scheme ingests the
// same pre-generated arrival stream — rate orders (plus their lineitems)
// appended before each round-1 query, so each measurement reads a snapshot
// with in-flight delta — then consolidates and runs all queries again
// post-merge. Round-1 runs carry the freshness tax (uncompressed delta views,
// Stats.DeltaRows > 0); round-2 runs must be back at base-layout cost with
// no delta rows. Compression stats are taken post-merge, where the appended
// views have been re-encoded; a merge re-bins and re-sorts nothing.
func (b *Benchmark) RunAllIngest(rate, limit int) (*Report, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("tpch: ingest grid needs a positive rate, got %d", rate)
	}
	if err := b.EnableIngest(limit, 0); err != nil {
		return nil, err
	}
	gen := NewDeltaGen(b.Data, 424242)
	batches := make([]*DeltaBatch, len(Queries))
	for i := range batches {
		batches[i] = gen.Next(rate)
	}
	rep := b.newReport()
	rep.IngestRate, rep.IngestLimit = rate, limit
	rep.Ingest = make(map[plan.Scheme]IngestRecord)
	opt := b.RunOptions
	for _, scheme := range rep.Schemes {
		db := b.DBs[scheme]
		ing := db.Ingest()
		comp := CompRecord{}
		for qi, q := range Queries {
			if err := appendTo(db, batches[qi]); err != nil {
				return nil, fmt.Errorf("tpch: ingest before %s under %s: %w", q.Name, scheme, err)
			}
			_, st, explain, err := RunQueryOpts(db, q, opt)
			if err != nil {
				return nil, fmt.Errorf("tpch: %s under %s (round 1): %w", q.Name, scheme, err)
			}
			rep.Runs[scheme] = append(rep.Runs[scheme], QueryRun{Query: q.Name, Scheme: scheme, Round: 1, Stats: st})
			rep.Explain[fmt.Sprintf("%s/%s", scheme, q.Name)] = explain
			comp.WireSaved += st.Net.Saved
		}
		if err := ing.Merge(); err != nil {
			return nil, fmt.Errorf("tpch: merge under %s: %w", scheme, err)
		}
		for _, q := range Queries {
			_, st, _, err := RunQueryOpts(db, q, opt)
			if err != nil {
				return nil, fmt.Errorf("tpch: %s under %s (round 2): %w", q.Name, scheme, err)
			}
			rep.Runs[scheme] = append(rep.Runs[scheme], QueryRun{Query: q.Name, Scheme: scheme, Round: 2, Stats: st})
			comp.WireSaved += st.Net.Saved
		}
		post := ing.Stats()
		rep.Ingest[scheme] = IngestRecord{
			AppendedRows: post.MergedRows + post.DeltaRows,
			Merges:       post.Merges,
			MergedRows:   post.MergedRows,
		}
		comp.CompressionStats = db.Snapshot().CompressionStats()
		rep.Comp[scheme] = comp
	}
	return rep, nil
}

// Totals sums a metric across the 22 queries of one scheme.
func (r *Report) Totals(scheme plan.Scheme, metric func(*Stats) float64) float64 {
	var sum float64
	for _, run := range r.Runs[scheme] {
		sum += metric(run.Stats)
	}
	return sum
}

// ColdSeconds extracts the modeled cold time in seconds.
func ColdSeconds(s *Stats) float64 { return s.Cold.Seconds() }

// PeakMB extracts the peak query memory in MB.
func PeakMB(s *Stats) float64 { return float64(s.PeakMem) / (1 << 20) }

// WriteFig2 renders the Figure 2 analogue: per-query cold execution time per
// scheme, plus the run totals the paper reports (630.82 / 491.33 / 284.43 s
// at SF100 on the authors' hardware — here the shape, not the absolute
// scale, is the claim under reproduction).
func (r *Report) WriteFig2(w io.Writer) {
	fmt.Fprintf(w, "Figure 2 — TPC-H SF%g cold execution time (modeled device time + CPU)\n", r.SF)
	fmt.Fprintf(w, "%-5s", "query")
	for _, s := range r.Schemes {
		fmt.Fprintf(w, " %12s", s)
	}
	fmt.Fprintln(w)
	for qi, q := range Queries {
		fmt.Fprintf(w, "%-5s", q.Name)
		for _, s := range r.Schemes {
			fmt.Fprintf(w, " %12.4f", ColdSeconds(r.Runs[s][qi].Stats))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-5s", "total")
	for _, s := range r.Schemes {
		fmt.Fprintf(w, " %12.4f", r.Totals(s, ColdSeconds))
	}
	fmt.Fprintln(w)
}

// WriteFig3 renders the Figure 3 analogue: per-query peak memory per scheme
// plus the aggregate the paper reports (avg 1.59 GB plain vs 0.09 GB BDCC,
// peaks 8 GB / 275 MB at SF100).
func (r *Report) WriteFig3(w io.Writer) {
	fmt.Fprintf(w, "Figure 3 — TPC-H SF%g peak query memory (MB)\n", r.SF)
	fmt.Fprintf(w, "%-5s", "query")
	for _, s := range r.Schemes {
		fmt.Fprintf(w, " %12s", s)
	}
	fmt.Fprintln(w)
	for qi, q := range Queries {
		fmt.Fprintf(w, "%-5s", q.Name)
		for _, s := range r.Schemes {
			fmt.Fprintf(w, " %12.3f", PeakMB(r.Runs[s][qi].Stats))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-5s", "avg")
	for _, s := range r.Schemes {
		fmt.Fprintf(w, " %12.3f", r.Totals(s, PeakMB)/float64(len(Queries)))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-5s", "peak")
	for _, s := range r.Schemes {
		peak := 0.0
		for _, run := range r.Runs[s] {
			if m := PeakMB(run.Stats); m > peak {
				peak = m
			}
		}
		fmt.Fprintf(w, " %12.3f", peak)
	}
	fmt.Fprintln(w)
}

// WriteIO renders the per-query device activity (bytes, access runs, modeled
// device time) underlying Figure 2.
func (r *Report) WriteIO(w io.Writer) {
	fmt.Fprintf(w, "Device activity — TPC-H SF%g (MB read / access runs / modeled seconds)\n", r.SF)
	fmt.Fprintf(w, "%-5s", "query")
	for _, s := range r.Schemes {
		fmt.Fprintf(w, " %24s", s)
	}
	fmt.Fprintln(w)
	for qi, q := range Queries {
		fmt.Fprintf(w, "%-5s", q.Name)
		for _, s := range r.Schemes {
			st := r.Runs[s][qi].Stats
			fmt.Fprintf(w, " %10.1f %6d %6.3f",
				float64(st.IO.Bytes)/(1<<20), st.IO.Runs, st.IO.Time.Seconds())
		}
		fmt.Fprintln(w)
	}
}

// WriteSched renders the per-scheme scheduler activity (tasks, steals, idle
// time) and the hidden (overlapped) device time, for tpchbench -v. All
// numbers are zero in serial runs.
func (r *Report) WriteSched(w io.Writer) {
	fmt.Fprintf(w, "Scheduler — per-query pool activity over the 22 queries (workers=%d shards=%d remotes=%d)\n",
		r.Workers, r.Shards, len(r.Remotes))
	fmt.Fprintf(w, "%-6s %10s %10s %12s %12s %10s %10s\n", "scheme", "tasks", "steals", "idle-ms", "hidden-io-ms", "net-msgs", "net-ms")
	for _, s := range r.Schemes {
		var tasks, steals, msgs int64
		var idle, hidden, netT time.Duration
		var loads []engine.BackendLoad
		for _, run := range r.Runs[s] {
			tasks += run.Stats.Sched.Tasks
			steals += run.Stats.Sched.Steals
			idle += run.Stats.Sched.Idle
			hidden += run.Stats.IO.Hidden
			msgs += run.Stats.Net.Runs
			netT += run.Stats.Net.Time
			for i, l := range run.Stats.Shard {
				if i >= len(loads) {
					loads = append(loads, engine.BackendLoad{})
				}
				loads[i].Units += l.Units
				loads[i].Bytes += l.Bytes
			}
		}
		var retries, downs, readmits, fallback int64
		for _, run := range r.Runs[s] {
			for _, h := range run.Stats.Health {
				retries += h.Retries
				downs += h.Downs
				readmits += h.Readmits
			}
			fallback += run.Stats.LocalFallbackUnits
		}
		fmt.Fprintf(w, "%-6s %10d %10d %12.1f %12.1f %10d %10.1f\n", s, tasks, steals,
			float64(idle.Microseconds())/1000, float64(hidden.Microseconds())/1000,
			msgs, float64(netT.Microseconds())/1000)
		if len(loads) > 0 {
			fmt.Fprintf(w, "       routed group units per backend:")
			for _, l := range loads {
				fmt.Fprintf(w, " %d (%.1f MB)", l.Units, float64(l.Bytes)/(1<<20))
			}
			fmt.Fprintln(w)
		}
		if retries+downs+readmits+fallback > 0 {
			fmt.Fprintf(w, "       failover: %d retries, %d downs, %d readmits, %d local-fallback units\n",
				retries, downs, readmits, fallback)
		}
		var workerBytes []int64
		for _, run := range r.Runs[s] {
			for i, wio := range run.Stats.WorkerIO {
				if i >= len(workerBytes) {
					workerBytes = append(workerBytes, 0)
				}
				workerBytes[i] += wio.Bytes
			}
		}
		if len(workerBytes) > 0 {
			fmt.Fprintf(w, "       partitioned scan MB read per worker:")
			for _, b := range workerBytes {
				fmt.Fprintf(w, " %.1f", float64(b)/(1<<20))
			}
			fmt.Fprintln(w)
		}
	}
}

// WriteComp renders the per-scheme compression outcome (tpchbench -v with
// -compress): modeled raw vs encoded storage bytes, the chunk mix per
// encoding, and the wire bytes the batch codec saved on sharded legs.
func (r *Report) WriteComp(w io.Writer) {
	if !r.Compressed {
		return
	}
	fmt.Fprintf(w, "Compression — chunk-encoded storage per scheme (SF%g)\n", r.SF)
	fmt.Fprintf(w, "%-6s %12s %12s %7s %8s %8s %8s %8s %14s\n",
		"scheme", "storage-MB", "encoded-MB", "ratio", "raw", "rle", "dict", "for", "wire-saved-MB")
	for _, s := range r.Schemes {
		c, ok := r.Comp[s]
		if !ok {
			continue
		}
		ratio := 1.0
		if c.RawBytes > 0 {
			ratio = float64(c.EncodedBytes) / float64(c.RawBytes)
		}
		fmt.Fprintf(w, "%-6s %12.1f %12.1f %7.3f %8d %8d %8d %8d %14.1f\n",
			s, float64(c.RawBytes)/(1<<20), float64(c.EncodedBytes)/(1<<20), ratio,
			c.Chunks[storage.EncRaw], c.Chunks[storage.EncRLE], c.Chunks[storage.EncDict], c.Chunks[storage.EncFOR],
			float64(c.WireSaved)/(1<<20))
	}
}

// WriteIngest renders the mixed-workload leg: per-scheme arrival totals,
// merge counters, and the freshness tax — round-1 (delta visible)
// versus round-2 (post-merge) MB read over the query set.
func (r *Report) WriteIngest(w io.Writer) {
	if len(r.Ingest) == 0 {
		return
	}
	fmt.Fprintf(w, "Ingest — mixed read/write grid (SF%g, %d orders per query, limit %d)\n",
		r.SF, r.IngestRate, r.IngestLimit)
	fmt.Fprintf(w, "%-6s %12s %8s %12s %14s %14s\n",
		"scheme", "appended", "merges", "merged-rows", "r1-MB-read", "r2-MB-read")
	for _, s := range r.Schemes {
		rec, ok := r.Ingest[s]
		if !ok {
			continue
		}
		var mb [3]float64
		for _, run := range r.Runs[s] {
			if run.Round >= 1 && run.Round <= 2 {
				mb[run.Round] += float64(run.Stats.IO.Bytes) / (1 << 20)
			}
		}
		fmt.Fprintf(w, "%-6s %12d %8d %12d %14.1f %14.1f\n",
			s, rec.AppendedRows, rec.Merges, rec.MergedRows, mb[1], mb[2])
	}
}

// WriteConcurrency renders the daemon leg: closed-loop throughput and
// latency quantiles per scheme, with the admission counters of each run.
func (r *Report) WriteConcurrency(w io.Writer) {
	if len(r.Concurrency) == 0 {
		return
	}
	fmt.Fprintf(w, "Concurrency — closed-loop clients through bdccd (SF%g)\n", r.SF)
	fmt.Fprintf(w, "%-6s %8s %9s %9s %9s %9s %8s %9s\n",
		"scheme", "clients", "requests", "qps", "p50-ms", "p99-ms", "queued", "rejected")
	for _, c := range r.Concurrency {
		fmt.Fprintf(w, "%-6s %8d %9d %9.1f %9.3f %9.3f %8d %9d\n",
			c.Scheme, c.Clients, c.Requests, c.QPS, c.P50MS, c.P99MS, c.Queued, c.Rejected)
	}
}

// OrderingComparison reproduces the paper's "Other Orderings" experiment:
// the automatic Z-order setup versus a hand-tuned major-minor setup using
// the same dimensions and bit counts, with the time dimension as the major
// dimension (the paper measures 284 s vs 291 s — comparable, Z slightly
// ahead).
type OrderingComparison struct {
	ZOrder     time.Duration
	MajorMinor time.Duration
	ZOrderIO   time.Duration
	MajorIO    time.Duration
}

// RunOrderingComparison runs the full query set serially under the
// benchmark's own BDCC database and under a major-minor one built over the
// same generated tables, so both sides share its scale factor and storage
// compression. The benchmark must be read-only: after appends its BDCC
// database holds rows the generated tables do not.
func RunOrderingComparison(b *Benchmark) (*OrderingComparison, error) {
	zDB, ok := b.DBs[plan.BDCC]
	if !ok {
		return nil, fmt.Errorf("tpch: ordering comparison needs the BDCC scheme materialized")
	}
	if zDB.Ingest() != nil {
		return nil, fmt.Errorf("tpch: ordering comparison needs a read-only benchmark")
	}
	mmDB, err := plan.NewBDCCDB(b.Schema, b.Data.Tables, zDB.Device, core.BuildOptions{MajorMinor: true})
	if err != nil {
		return nil, err
	}
	out := &OrderingComparison{}
	for _, q := range Queries {
		_, st, _, err := RunQuery(zDB, q)
		if err != nil {
			return nil, err
		}
		out.ZOrder += st.Cold
		out.ZOrderIO += st.IO.Time
		_, st, _, err = RunQuery(mmDB, q)
		if err != nil {
			return nil, err
		}
		out.MajorMinor += st.Cold
		out.MajorIO += st.IO.Time
	}
	return out, nil
}
