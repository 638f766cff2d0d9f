package main

import (
	"time"

	"bdcc/internal/core"
	"bdcc/internal/engine"
	"bdcc/internal/expr"
	"bdcc/internal/plan"
	"bdcc/internal/serve"
	"bdcc/internal/shard"
	"bdcc/internal/storage"
	"bdcc/internal/tpch"
	"bdcc/internal/vector"
)

// Kernel probes: after its sweeps a traced run times single public functions
// of the layers its workload exercises, on the workload's own data. A probe
// is repeated until probeFor has passed (at least probeReps times) and the
// median call is reported.
const probeReps = 3

var probeFor = 60 * time.Millisecond // the smoke test sets it to 0

func timeIt(f func()) time.Duration {
	var ds []float64
	for start := time.Now(); len(ds) < probeReps || (time.Since(start) < probeFor && len(ds) < 10_000); {
		t0 := time.Now()
		f()
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds))
}

// probeBatches is how many 1024-row batches the batch-level probes run over.
const probeBatches = 64

// probeFailure carries a probe's error up to runProbes.
type probeFailure struct{ err error }

// must stops the probes on an error; runProbes reports it.
func must(err error) {
	if err != nil {
		panic(probeFailure{err})
	}
}

// runProbes adds the kernel-probe metrics of the layers w exercises to v.
func runProbes(w *workload, sys *system, v map[string]float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(probeFailure)
			if !ok {
				panic(r)
			}
			err = f.err
		}
	}()
	li, err := sys.db.StoredTable("lineitem")
	must(err)
	ord, err := sys.db.StoredTable("orders")
	must(err)
	cs := sys.db.CompressionStats()
	if cs.RawBytes > 0 {
		v["storage.encoded_ratio"] = float64(cs.EncodedBytes) / float64(cs.RawBytes)
	}
	v["plan.snapshot_ns"] = float64(timeIt(func() {
		for i := 0; i < 1000; i++ {
			sys.db.Snapshot()
		}
	})) / 1000
	if w.scheme == plan.BDCC {
		probeScatter(sys, v)
	}
	switch {
	case w.kind == kindDaemon:
		probeServe(sys, v)
		probeReplay(w, sys, v)
	case w.kind == kindIngest:
		probeIngest(sys, v)
	case w.opt.Partition:
		probeShard(sys, li, ord, v)
		probeCodec(li, v)
	default:
		probeStorage(li, v)
		probeExpr(li, v)
		probeOperators(li, ord, v)
	}
	return nil
}

func colIndexes(t *storage.Table, names ...string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = t.ColumnIndex(n)
	}
	return out
}

// readBatches materializes up to limit batches of the named columns
// (limit ≤ 0: all of them).
func readBatches(t *storage.Table, limit int, names ...string) []*vector.Batch {
	r := storage.NewReader(t, colIndexes(t, names...), nil, nil)
	var out []*vector.Batch
	for limit <= 0 || len(out) < limit {
		b := vector.NewBatch(r.Kinds())
		if !r.Next(b) {
			break
		}
		out = append(out, b)
	}
	return out
}

func allColumns(t *storage.Table) []string {
	names := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		names[i] = c.Name
	}
	return names
}

// asResult materializes columns of a table as an operator input.
func asResult(t *storage.Table, names ...string) *engine.Result {
	res := &engine.Result{}
	for _, b := range readBatches(t, 0, names...) {
		if res.Cols == nil {
			for i, c := range b.Cols {
				res.Schema = append(res.Schema, expr.ColMeta{Name: names[i], Kind: c.Kind})
				res.Cols = append(res.Cols, vector.NewVector(c.Kind, t.Rows()))
			}
		}
		for i, c := range b.Cols {
			res.Cols[i].I64 = append(res.Cols[i].I64, c.I64...)
			res.Cols[i].F64 = append(res.Cols[i].F64, c.F64...)
			res.Cols[i].Str = append(res.Cols[i].Str, c.Str...)
		}
	}
	return res
}

var q1Columns = []string{"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_shipdate"}

// probeStorage: chunk decode over Q1's lineitem columns, and Q6's date range
// pushed into the reader.
func probeStorage(li *storage.Table, v map[string]float64) {
	cols := colIndexes(li, q1Columns...)
	var bytes int64
	d := timeIt(func() {
		bytes = 0
		r := storage.NewReader(li, cols, nil, nil)
		b := vector.NewBatch(r.Kinds())
		for r.Next(b) {
			bytes += b.Bytes()
		}
	})
	v["storage.decode_mb_per_s"] = float64(bytes) / (1 << 20) / d.Seconds()

	push := []storage.PushPred{{Col: 0, Iv: storage.Interval{
		Lo: storage.Bound{Set: true, I: vector.ParseDate("1994-01-01")},
		Hi: storage.Bound{Set: true, I: vector.ParseDate("1994-12-31")},
	}}}
	q6 := colIndexes(li, "l_shipdate", "l_discount", "l_quantity", "l_extendedprice")
	d = timeIt(func() {
		r := storage.NewReaderPush(li, q6, nil, nil, push)
		b := vector.NewBatch(r.Kinds())
		for r.Next(b) {
		}
	})
	v["storage.pushdown_ns_per_row"] = float64(d) / float64(li.Rows())
}

// probeExpr: Q6's predicate and Q1's charge expression, bound once and
// evaluated batch by batch as the engine's Filter and Project do.
func probeExpr(li *storage.Table, v map[string]float64) {
	names := []string{"l_shipdate", "l_discount", "l_quantity", "l_extendedprice", "l_tax"}
	batches := readBatches(li, 4*probeBatches, names...)
	if len(batches) == 0 {
		return
	}
	schema := make(expr.Schema, len(names))
	for i, n := range names {
		schema[i] = expr.ColMeta{Name: n, Kind: batches[0].Cols[i].Kind}
	}
	rows := 0
	for _, b := range batches {
		rows += b.Len()
	}
	pred := expr.NewAnd(
		expr.NewCmp(expr.GE, expr.C("l_shipdate"), expr.Date("1994-01-01")),
		expr.NewCmp(expr.LT, expr.C("l_shipdate"), expr.Date("1995-01-01")),
		expr.Between(expr.C("l_discount"), expr.Float(0.05), expr.Float(0.07)),
		expr.NewCmp(expr.LT, expr.C("l_quantity"), expr.Float(24)),
	)
	charge := expr.NewArith(expr.Mul,
		expr.NewArith(expr.Mul, expr.C("l_extendedprice"), expr.NewArith(expr.Sub, expr.Float(1), expr.C("l_discount"))),
		expr.NewArith(expr.Add, expr.Float(1), expr.C("l_tax")))
	if expr.Bind(pred, schema) != nil || expr.Bind(charge, schema) != nil {
		return
	}
	sel := expr.NewScratch(vector.Int64)
	var calls int
	a0, _ := heapCounters()
	d := timeIt(func() {
		calls++
		for _, b := range batches {
			sel.Reset()
			pred.Eval(b, sel)
		}
	})
	a1, _ := heapCounters()
	v["expr.filter_ns_per_row"] = float64(d) / float64(rows)
	v["expr.alloc_b_per_batch"] = float64(a1-a0) / float64(calls*len(batches))
	out := expr.NewScratch(vector.Float64)
	d = timeIt(func() {
		for _, b := range batches {
			out.Reset()
			charge.Eval(b, out)
		}
	})
	v["expr.arith_ns_per_row"] = float64(d) / float64(rows)
}

// probeOperators: the engine's join, aggregation and sort over in-memory
// inputs (engine.Values), shaped like bench_test.go's hash benchmarks, plus
// the key hashing they share.
func probeOperators(li, ord *storage.Table, v map[string]float64) {
	lres := asResult(li, "l_orderkey", "l_quantity")
	ores := asResult(ord, "o_orderkey", "o_custkey")
	rows := float64(li.Rows())
	run := func(op engine.Operator) {
		ctx := &engine.Context{Mem: &engine.MemTracker{}}
		_, err := engine.Run(ctx, op)
		must(err)
	}
	v["engine.hashjoin_ns_per_row"] = float64(timeIt(func() {
		run(&engine.HashJoin{Left: &engine.Values{Rows: lres}, Right: &engine.Values{Rows: ores},
			LeftKeys: []string{"l_orderkey"}, RightKeys: []string{"o_orderkey"}, Type: engine.InnerJoin})
	})) / rows
	v["engine.hashagg_ns_per_row"] = float64(timeIt(func() {
		run(&engine.HashAggregate{Child: &engine.Values{Rows: lres}, GroupBy: []string{"l_orderkey"},
			Aggs: []engine.AggSpec{{Name: "c", Func: engine.AggCount}, {Name: "s", Func: engine.AggSum, Arg: expr.C("l_quantity")}}})
	})) / rows
	v["engine.sort_ns_per_row"] = float64(timeIt(func() {
		run(&engine.Sort{Child: &engine.Values{Rows: lres}, By: []engine.SortSpec{{Col: "l_quantity"}, {Col: "l_orderkey", Desc: true}}})
	})) / rows

	batches := readBatches(li, 4*probeBatches, "l_orderkey", "l_quantity")
	var hashes []uint64
	n := 0
	for _, b := range batches {
		n += b.Len()
	}
	v["vector.hash_keys_ns_per_row"] = float64(timeIt(func() {
		for _, b := range batches {
			hashes = vector.HashKeys(b, []int{0}, hashes)
		}
	})) / float64(n)
}

// probeScatter: the count-table walk behind a scatter scan of lineitem.
func probeScatter(sys *system, v map[string]float64) {
	bt := sys.db.BDCCTable("lineitem")
	if bt == nil || len(bt.Uses) == 0 {
		return
	}
	bits := core.Ones(bt.Uses[0].Mask)
	v["core.scatter_plan_us"] = float64(timeIt(func() {
		_, err := bt.ScatterPlan([]int{0}, []int{bits}, nil)
		must(err)
	})) / 1e3
}

// probeCodec: the batch wire codec over lineitem batches.
func probeCodec(li *storage.Table, v map[string]float64) {
	batches := readBatches(li, probeBatches, allColumns(li)...)
	var raw, enc int
	var bufs [][]byte
	d := timeIt(func() {
		raw, enc, bufs = 0, 0, bufs[:0]
		for _, b := range batches {
			buf := b.Encode(nil)
			raw += b.RawWireSize()
			enc += len(buf)
			bufs = append(bufs, buf)
		}
	})
	if raw == 0 {
		return
	}
	v["vector.encode_mb_per_s"] = float64(raw) / (1 << 20) / d.Seconds()
	v["vector.wire_ratio"] = float64(enc) / float64(raw)
	d = timeIt(func() {
		for _, buf := range bufs {
			_, _, err := vector.DecodeBatch(buf)
			must(err)
		}
	})
	v["vector.decode_mb_per_s"] = float64(raw) / (1 << 20) / d.Seconds()
}

// probeShard: what the partitioned path does per query — place the cells,
// ship lineitem to a fresh two-worker set — and the unit codec.
func probeShard(sys *system, li, ord *storage.Table, v map[string]float64) {
	bt := sys.db.BDCCTable("lineitem")
	if bt == nil {
		return
	}
	v["shard.ship_ms"] = ms(timeIt(func() {
		set := shard.NewSet(2, 2, shard.PaperNet())
		set.PartitionTable("lineitem", li, bt.Count)
		for _, b := range set.Backends() {
			b.Close()
		}
	}))
	all := core.EntriesRanges(bt.Count)
	v["shard.partition_us"] = float64(timeIt(func() {
		p := shard.NewPartitioning("lineitem", bt.Count, 2)
		_, err := p.SplitGroup(all)
		must(err)
	})) / 1e3

	unit := &engine.GroupUnit{GID: 1,
		Probe: readBatches(li, 8, "l_orderkey", "l_partkey", "l_quantity", "l_extendedprice", "l_shipdate"),
		Build: readBatches(ord, 2, "o_orderkey", "o_custkey", "o_orderdate")}
	raw := float64(shard.RawUnitWireSize(unit)) / (1 << 20)
	var wire []byte
	v["shard.unit_encode_mb_per_s"] = raw / timeIt(func() { wire = shard.EncodeUnit(unit, wire[:0]) }).Seconds()
	v["shard.unit_decode_mb_per_s"] = raw / timeIt(func() {
		_, err := shard.DecodeUnit(wire)
		must(err)
	}).Seconds()
}

// probeServe: the daemon's round trip without a query, and a dial.
func probeServe(sys *system, v map[string]float64) {
	cl := sys.clients[0]
	v["serve.rtt_us"] = float64(timeIt(func() {
		_, err := cl.Stats()
		must(err)
	})) / 1e3
	v["serve.dial_ms"] = ms(timeIt(func() {
		c, err := serve.Dial(sys.addr, "")
		must(err)
		c.Close()
	}))
}

// probeReplay: Planner.Plan over a completed memo, summed over the
// workload's queries — what planning costs once the daemon's cache is warm.
func probeReplay(w *workload, sys *system, v map[string]float64) {
	var total time.Duration
	for _, q := range w.queryDefs() {
		build := func(memo *plan.Memo) (*plan.Planner, plan.Node, *tpch.Env) {
			env := tpch.NewEnvOpts(sys.db, w.opt)
			node, err := q.Build(env)
			must(err)
			p := plan.NewPlanner(env.DB, env.Ctx)
			p.UseMemo(memo)
			return p, node, env
		}
		memo := plan.NewMemo()
		p, node, env := build(memo)
		_, err := p.Plan(node)
		must(err)
		env.Close()
		memo.Complete()
		var ds []float64
		for i := 0; i < probeReps; i++ {
			p, node, env := build(memo)
			t0 := time.Now()
			_, err := p.Plan(node)
			ds = append(ds, float64(time.Since(t0)))
			env.Close()
			must(err)
		}
		total += time.Duration(median(ds))
	}
	v["plan.replay_ms"] = ms(total)
}

// probeIngest: the pieces of one append and one merge of lineitem — the
// full-table concat, the delta-store append, and the incremental re-cluster.
func probeIngest(sys *system, v map[string]float64) {
	// The ingest state has moved on from the loaded tables: take the current
	// merged version, and a batch that continues its key space.
	snap := sys.db.Snapshot()
	raw := snap.Tables
	gen := tpch.NewDeltaGen(&tpch.Dataset{SF: sys.bench.SF, Tables: raw}, 1)
	batch := gen.Next(ingestOrdersPerBatch)
	base := raw["lineitem"]

	v["storage.concat_ms"] = ms(timeIt(func() {
		_, err := storage.Concat(base, base.Rows(), batch.Lineitem)
		must(err)
	}))
	delta := storage.NewDelta(base)
	v["storage.delta_append_us"] = float64(timeIt(func() {
		_, err := delta.Append(batch.Lineitem)
		must(err)
	})) / 1e3

	bt := snap.BDCCTable("lineitem")
	if bt == nil {
		return
	}
	tables := make(map[string]*storage.Table, len(raw))
	for n, t := range raw {
		tables[n] = t
	}
	var err error
	tables["orders"], err = storage.Concat(raw["orders"], raw["orders"].Rows(), batch.Orders)
	must(err)
	tables["lineitem"], err = storage.Concat(base, base.Rows(), batch.Lineitem)
	must(err)
	d := timeIt(func() {
		uses, err := core.BindUses(snap.Clustered, snap.Schema, tables, "lineitem", base.Rows())
		must(err)
		_, err = core.MergeBDCCTable(bt, batch.Lineitem, uses, core.BuildOptions{Device: snap.Device})
		must(err)
	})
	v["core.merge_rows_per_s"] = float64(base.Rows()+batch.Lineitem.Rows()) / d.Seconds()
}
