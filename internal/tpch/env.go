package tpch

import (
	"fmt"
	"time"

	"bdcc/internal/catalog"
	"bdcc/internal/core"
	"bdcc/internal/engine"
	"bdcc/internal/iosim"
	"bdcc/internal/plan"
)

// Schema parses the TPC-H DDL together with the paper's BDCC hints.
func Schema() *catalog.Schema {
	return catalog.MustParseDDL(DDL + HintDDL)
}

// Benchmark holds one generated dataset materialized under the three
// physical schemes of the paper's evaluation. The embedded RunOptions are
// the execution knobs RunAll applies to every query (zero values keep the
// paper's serial single-box setup).
type Benchmark struct {
	SF     float64
	Schema *catalog.Schema
	Data   *Dataset
	DBs    map[plan.Scheme]*plan.DB
	// Compressed records whether the base tables were chunk-compressed
	// before materialization (NewBenchmarkCompressed). A layout that moves
	// rows (PK's partsupp, BDCC's clusterings) re-encodes in its own order
	// (Permute/AppendRows); one that moves none is the loaded table itself.
	Compressed bool
	RunOptions
}

// NewBenchmark generates data at the scale factor and materializes the
// requested schemes (all three when none are named), uncompressed.
func NewBenchmark(sf float64, schemes ...plan.Scheme) (*Benchmark, error) {
	return NewBenchmarkCompressed(sf, false, schemes...)
}

// NewBenchmarkCompressed is NewBenchmark with the storage-compression knob:
// with compress set, every base table is chunk-encoded before the schemes
// materialize, and the PK/BDCC permutations that move rows re-encode in their
// order (where BDCC's locally homogeneous values pay off). Query results are
// byte-identical across the knob.
func NewBenchmarkCompressed(sf float64, compress bool, schemes ...plan.Scheme) (*Benchmark, error) {
	if len(schemes) == 0 {
		schemes = []plan.Scheme{plan.Plain, plan.PK, plan.BDCC}
	}
	schema := Schema()
	data := Generate(sf)
	dev := iosim.PaperSSD()
	if compress {
		for _, t := range data.Tables {
			t.Compress()
		}
	}
	b := &Benchmark{SF: sf, Schema: schema, Data: data, DBs: map[plan.Scheme]*plan.DB{}, Compressed: compress}
	for _, s := range schemes {
		switch s {
		case plan.Plain:
			b.DBs[s] = plan.NewPlainDB(schema, data.Tables, dev)
		case plan.PK:
			db, err := plan.NewPKDB(schema, data.Tables, dev)
			if err != nil {
				return nil, err
			}
			b.DBs[s] = db
		case plan.BDCC:
			db, err := plan.NewBDCCDB(schema, data.Tables, dev, core.BuildOptions{})
			if err != nil {
				return nil, err
			}
			b.DBs[s] = db
		}
	}
	return b, nil
}

// Env is the per-execution environment a query builder runs in: it exposes
// the database and allows evaluating uncorrelated scalar subqueries and
// one-shot views (TPC-H Q11, Q15, Q17, Q22) against the same execution
// meters as the main plan.
type Env struct {
	DB  *plan.DB
	Ctx *engine.Context
	// Explain accumulates planner decisions across sub-plans.
	Explain []string

	// rec/replay are the subquery-memo halves of the daemon's plan cache:
	// recording appends every Scalar and Materialize result in Build-call
	// order, replaying returns them in the same order without executing
	// (Build functions are deterministic in their env-call sequence).
	rec    *subMemo
	replay *subMemo
	si, mi int
}

// subMemo records the environment-level subquery results of one query
// build. Cached alongside the plan memo, it lets a cache hit skip the
// scalar-subquery and one-shot-view executions of Q11/Q15/Q17/Q22-style
// builds; the recorded results are shared read-only across replays.
type subMemo struct {
	scalars []float64
	mats    []*engine.Result
}

// NewEnvOpts returns an environment with the full knob set applied — the
// one place every front end's knob wiring goes through (engine.Options). The
// database is pinned here: one snapshot serves the whole query, including
// every scalar-subquery and one-shot-view sub-plan, so a query never mixes
// ingest versions. Read-only databases pass through unchanged.
func NewEnvOpts(db *plan.DB, opt RunOptions) *Env {
	db = db.Snapshot()
	return &Env{DB: db, Ctx: opt.NewContext(db.Device)}
}

// Close releases the environment's per-query resources (the backend set of
// sharded runs). Safe on never-sharded environments.
func (e *Env) Close() error { return e.Ctx.CloseBackends() }

// run plans and executes a sub-plan within the environment.
func (e *Env) run(n plan.Node) (*engine.Result, error) {
	p := plan.NewPlanner(e.DB, e.Ctx)
	res, err := p.Run(n)
	e.Explain = append(e.Explain, p.Log...)
	return res, err
}

// Scalar evaluates a plan expected to yield a single row and returns its
// first column as float64.
func (e *Env) Scalar(n plan.Node) (float64, error) {
	if e.replay != nil {
		if e.si >= len(e.replay.scalars) {
			return 0, fmt.Errorf("tpch: subquery replay out of scalars (call %d)", e.si)
		}
		v := e.replay.scalars[e.si]
		e.si++
		return v, nil
	}
	res, err := e.run(n)
	if err != nil {
		return 0, err
	}
	if res.Rows() != 1 {
		return 0, fmt.Errorf("tpch: scalar subquery returned %d rows", res.Rows())
	}
	c := res.Cols[0]
	v := float64(0)
	if len(c.F64) == 1 {
		v = c.F64[0]
	} else {
		v = float64(c.I64[0])
	}
	if e.rec != nil {
		e.rec.scalars = append(e.rec.scalars, v)
	}
	return v, nil
}

// Materialize evaluates a plan once and wraps it for reuse in the main plan.
func (e *Env) Materialize(n plan.Node) (*plan.Materialized, *engine.Result, error) {
	if e.replay != nil {
		if e.mi >= len(e.replay.mats) {
			return nil, nil, fmt.Errorf("tpch: subquery replay out of views (call %d)", e.mi)
		}
		res := e.replay.mats[e.mi]
		e.mi++
		return &plan.Materialized{Res: res}, res, nil
	}
	res, err := e.run(n)
	if err != nil {
		return nil, nil, err
	}
	if e.rec != nil {
		e.rec.mats = append(e.rec.mats, res)
	}
	return &plan.Materialized{Res: res}, res, nil
}

// QueryDef is one of the 22 TPC-H queries.
type QueryDef struct {
	Num  int
	Name string
	// Build constructs the logical plan; it may evaluate scalar subqueries
	// through the environment.
	Build func(e Subqueries) (plan.Node, error)
}

// Subqueries is what a query builder asks of the system it runs on: the
// scalar subqueries and one-shot views it evaluates before the main plan,
// and a table's row count. Env answers through the planner and the engine.
type Subqueries interface {
	Scalar(n plan.Node) (float64, error)
	Materialize(n plan.Node) (*plan.Materialized, *engine.Result, error)
	Rows(table string) int
}

// Rows returns the row count of the named table at the pinned version.
func (e *Env) Rows(table string) int { return e.DB.Rows(table) }

// Stats are the execution meters of one query run — the quantities behind
// the paper's Figure 2 (cold time) and Figure 3 (memory).
type Stats struct {
	Rows    int
	Wall    time.Duration
	IO      iosim.Stats
	PeakMem int64
	// Cold is the modeled cold execution time. Serially (workers below 2,
	// the paper's setup) it is device time plus CPU wall time. With a
	// multi-worker scheduler, grouped scans post their scattered group
	// reads asynchronously and each overlap window contributes
	// max(io, cpu) instead of io + cpu: Cold = Wall + IO.Time − IO.Hidden
	// (see iosim.Stats.ColdTime). Serial runs hide nothing, so their
	// numbers are unchanged.
	Cold time.Duration
	// Sched is the per-query scheduler activity (zero when serial),
	// reported by tpchbench -v.
	Sched engine.SchedStats
	// Net is the cross-backend transport activity of a sharded run
	// (runs = messages); zero when single-box. Reported as net-ms by
	// tpchbench -v. Network time is tracked separately from device time — it
	// does not enter Cold, which keeps single-box cold numbers comparable
	// across the shards knob. Against real TCP workers the message and byte
	// counts are real while the time remains the 10 GbE model's (the wall
	// clock already contains the real cost).
	Net iosim.Stats
	// Shard is the per-backend routed load of a sharded run (group units
	// and batch bytes the route placed on each backend); nil when
	// single-box. Reported per backend by tpchbench -v.
	Shard []engine.BackendLoad
	// Health is the per-backend failover health of a sharded run (retries,
	// downs, mid-query re-admissions); nil when single-box. Summed in
	// tpchbench -v's failover line.
	Health []engine.BackendHealth
	// LocalFallbackUnits counts units that ran on the coordinator's local
	// fallback because no remote backend survived them (graceful
	// degradation); summed in tpchbench -v's failover line.
	LocalFallbackUnits int64
	// Epoch is the ingest version the query's snapshot pinned (0 for a
	// read-only or never-appended database) and DeltaRows the un-merged rows
	// visible at that version — the freshness the run paid its mb_read for.
	Epoch     int64
	DeltaRows int64
	// WorkerIO is the per-worker device activity of a partitioned run: the
	// modeled reads each worker's shipped scan units performed against its
	// local partition (reported back in unit done frames); nil unless the
	// Partition knob lowered at least one scan. Units re-scanned on the
	// coordinator's failover path appear in IO instead — the coordinator's
	// device did that work. The headline shared-nothing claim is that each
	// entry's byte volume is ~1/N of the single-box scan volume
	// (TestPartitionedEquivalence).
	WorkerIO []iosim.Stats
}

// RunOptions is the full execution knob set of one query run — an alias of
// engine.Options, the shared knob bundle every front end (tpchbench, this
// harness, bdccd) wires through one constructor instead of copying fields.
type RunOptions = engine.Options

// RunQuery executes one query against one database and reports results and
// meters, serially (the paper's measurement setup).
func RunQuery(db *plan.DB, q QueryDef) (*engine.Result, *Stats, []string, error) {
	return RunQueryOpts(db, q, RunOptions{})
}

// RunQueryOpts is the full-knob query runner: workers (below 2 mean serial),
// shards (below 2 mean single-box; otherwise the planner installs a backend
// set that BDCC group streams shard across, closed before returning, with the
// network activity reported in Stats.Net), real worker addresses (dialed TCP
// backends instead of simulated remotes), and the placement policy. Results
// are byte-identical across every knob cell — including runs where a worker
// dies mid-query and its units fail over.
func RunQueryOpts(db *plan.DB, q QueryDef, opt RunOptions) (*engine.Result, *Stats, []string, error) {
	env := NewEnvOpts(db, opt)
	db = env.DB // the pinned snapshot
	defer env.Close()
	start := time.Now()
	node, err := q.Build(env)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("tpch: %s build: %w", q.Name, err)
	}
	res, err := env.run(node)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("tpch: %s (%s): %w", q.Name, db.Scheme, err)
	}
	wall := time.Since(start)
	st := &Stats{
		Rows:               res.Rows(),
		Wall:               wall,
		IO:                 env.Ctx.Acct.Stats(),
		PeakMem:            env.Ctx.Mem.Peak(),
		Net:                env.Ctx.NetStats(),
		Shard:              env.Ctx.ShardLoads(),
		Health:             env.Ctx.HealthStats(),
		LocalFallbackUnits: env.Ctx.LocalFallbackUnits(),
		WorkerIO:           env.Ctx.WorkerIOStats(),
		Epoch:              db.Epoch(),
		DeltaRows:          db.PendingDeltaRows(),
	}
	st.Cold = st.IO.ColdTime(wall)
	if s := env.Ctx.Scheduler(); s != nil {
		st.Sched = s.Stats()
	}
	if err := env.Close(); err != nil {
		return nil, nil, nil, fmt.Errorf("tpch: %s (%s): backend close: %w", q.Name, db.Scheme, err)
	}
	return res, st, env.Explain, nil
}
