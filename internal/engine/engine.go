// Package engine implements the vectorized query executor the reproduction
// runs its workloads on: batch-at-a-time operators (scans, filters, hash /
// merge joins, aggregation, sorting) in the style of the paper's host
// system, plus the sandwich operators of the paper's reference [3] ("Query
// Processing of Pre-Partitioned Data Using Sandwich Operators") that exploit
// BDCC's co-clustered group streams to shrink hash tables to one group at a
// time.
//
// Every operator charges its device reads to the execution context's I/O
// accountant and its materialized state (hash tables, sort buffers) to the
// memory tracker; the paper's Figure 2 (cold time) and Figure 3 (peak query
// memory) series are produced from exactly these two meters.
//
// # One join kernel
//
// Every hash join in the engine — serial and pooled HashJoin, the serial
// SandwichHashJoin, and Fragment.Run (the pooled and remote sandwich group
// join) — builds and probes through one kernel, joinProbe (hashjoin.go): it
// is the only code that walks a match chain, evaluates a join residual, or
// null-extends an outer miss, and it stops whenever the batch it is filling
// reaches BatchSize, resuming mid-probe-row on the next call. The callers
// differ only in who owns that batch: the serial operators fill one reused
// batch (HashJoin across probe batches, flushing on full, group change and
// end of input; the sandwich per probe batch), the pool and fragment forms
// fill a fresh batch per emit and cut at every probe-batch end. So every
// form returns the same rows in the same order, and the serial sandwich and
// Fragment.Run return the same batch sequence.
//
// The kernel and the aggregation table (aggTable, agg.go) work a batch at a
// time. The key shape is picked once, at Fragment.Prepare and
// HashAggregate.Open: a single Int64 key is stored in the hash-table slot and
// compared there; any other key is verified through a comparator bound to the
// typed key columns (keyEq, hashtable.go). Per batch, the kernels hash the key
// columns, resolve every row against the table in one loop, and then move
// data column-wise: a join fills its output in windows of (probe row, build
// row) pairs — one residual evaluation and one gather per column per window —
// and an aggregation runs one typed loop per aggregate over (group ids,
// argument values). Buffers are charged by logical bytes and double their
// capacity; the arrays charged by capacity (chain array, aggregate states,
// first-seen rows) and the slot arrays keep a pinned geometry, because
// their footprint is Figure 3 (TestHashTableFootprintPinned).
//
// # One scan
//
// Every scan in the engine — plain or scatter, serial, morsel-parallel,
// shipped to a worker, or re-run by the coordinator's failover — is bound
// once (bindScan, scan.go: columns, filter, and the filter's intervals
// pushed into the readers when that table is compressed) and reads through
// one cursor (scanCursor): the only code that pulls a storage.Reader, tags a
// batch with its group and applies the scan filter. The one operator, Scan,
// reads a list of groups: a plain scan is the one-group case, its ranges one
// untagged group. The forms differ only in who owns the output batch — the
// serial Scan reuses one, morsel tasks and Fragment.runScan emit fresh ones
// — and in where reads are charged: the serial scan charges the union of its
// ranges once at Open, the morsel form posts one asynchronous read per
// group, a worker reports its own. A reader cuts batches by its ranges
// alone, so every form emits the same batches, pushdown or not.
//
// # Morsel-driven parallelism
//
// Parallel execution runs on one scheduler per query: the Context owns a
// single pool of exactly Workers goroutines (Sched, created lazily by
// Context.Scheduler when the Workers knob exceeds one) with per-worker
// deques and task stealing. The planner injects the scheduler handle into
// the operators it permits to parallelize; operators submit tasks — scan
// morsels, join build stripes and probe jobs, aggregation stripe folds,
// sandwich per-group joins — instead of spawning goroutines, so a
// scan→join→agg pipeline keeps total busy goroutines at Workers plus a
// small constant of coordinators (stream feeders) rather than one pool per
// operator. The threading contract is strict:
//
//   - Scheduler tasks never block on exchange or operator state. The
//     order-preserving exchange applies backpressure by releasing jobs only
//     while its consumption window and buffer cap allow; coordinator
//     goroutines (feeders) may block, pool workers may not. This is what
//     makes sharing one pool across pipeline stages deadlock-free.
//   - Build state is frozen before fan-out: a hash join's buffered rows and
//     slot/chain arrays are written only during build and are read-only
//     while probe tasks run. Partition-parallel work takes one form,
//     Sched.stripes: the consumer stages its input (the join its build
//     rows, the aggregation a window of input rows) with their key hashes,
//     runs one task per hash stripe — each writing only its own stripe's
//     state, so no locks — and waits on the barrier before it goes on. An
//     aggregation stripe folds the window's rows of its stripe in window
//     order, so every group folds on one task in global row order. Sandwich
//     group tasks own their hash state exclusively.
//   - Each pool worker owns its per-worker scratch (for a join, its own
//     joinProbe over the shared build side), indexed by the worker id the
//     scheduler passes to every task. That includes expressions: a bound
//     tree owns the scratch its kernels write into, so it is single-goroutine
//     state, and whoever fans an operator out gives every concurrent
//     evaluator an expr.Clone of the operator's bound tree — the morsel
//     scan one filter per pool worker, Fragment.newProbe one residual per
//     joinProbe, Fragment.runScan one filter per call, newAggTable the
//     aggregate arguments per stripe table. The operator's own tree is
//     evaluated only by the goroutine that drives its Next.
//   - Every parallel operator merges task output order-preservingly —
//     through the exchange in morsel order for scans, input-batch order for
//     joins and group order for sandwich pipelines; an aggregation merges its
//     stripe tables in global first-seen group order — so workers=1 and
//     workers=N produce byte-identical results.
//   - Task-held batches and per-task state are charged to the shared
//     MemTracker (which is mutex-protected) with exact Grow/Shrink pairs;
//     closing an exchange joins every in-flight task and feeder before
//     releasing buffered bytes, so an abandoned consumer (early Limit,
//     downstream error) leaves neither goroutines nor accounted memory
//     behind.
//
// Morsel scans additionally overlap their modeled I/O with compute: with a
// multi-worker scheduler they post each group's read asynchronously (iosim
// Submit/Wait) one group ahead of the morsel tasks, so the cold-time model
// charges max(io, cpu) per overlap window instead of io + cpu.
//
// # Backends and sharding
//
// The scheduler handle is also the scale-out seam, and the Backend
// interface (backend.go) carries its tasks across a transport: BDCC groups
// are self-contained work units, so a sandwich join with an injected backend
// set ships its plan Fragment once at setup and each aligned group — a
// GroupUnit of cloned batches, serialized to vector.Batch bytes by the
// transport — to the backend its route places it on, instead of running it
// on the local pool. The contract extends as follows:
//
//   - A Fragment (fragment.go) is the complete per-operator configuration:
//     for the group join, input schemas, join keys, join type, and
//     residual; for the partitioned scatter scan, the table name, output
//     schema, and filter. Fragment.Run touches only its unit, per-call
//     state (its own clone of the bound residual or filter included), and
//     the fragment's frozen bound state (read-only after Prepare, never
//     evaluated directly), so it runs identically on a local pool task, an
//     in-process simulated remote, or a bdccworker daemon that received the
//     fragment over the wire. Hash-table memory is metered on the box that builds it
//     (the fragment's Mem hook): the query's tracker locally, the worker's
//     tracker remotely; scan device reads likewise charge the box that
//     performs them (the fragment's Acct locally, per-unit ScanStats
//     reported in done frames remotely).
//   - Units come in two shapes (backend.go): join units carry a group's
//     cloned batches to whichever backend the route picks; scan units
//     carry only row ranges, pinned to the worker holding the table
//     partition the planner shipped there (Context.Partition). Backends
//     invoke emit sequentially per unit and done exactly once; emitted
//     batches must not share memory with the shipped unit. The exchange
//     registers every shipped unit (beginJob) and close joins all done
//     callbacks, so an abandoned consumer leaves no in-flight units,
//     goroutines, or accounted bytes behind — on either side of the
//     transport.
//   - The exchange merges backend results in group order exactly as it
//     merges local task output, so results are byte-identical across shard
//     counts, group placement, transports, and data placement (the Shards
//     knob's 0/1 single-box setting preserves the paper's measurement setup
//     outright), and a unit rerouted after a worker failure — to a
//     survivor for joins, to the coordinator's full table copy for scans —
//     reproduces the same bytes the failed backend would have.
package engine

import (
	"fmt"
	"sync"
	"time"

	"bdcc/internal/expr"
	"bdcc/internal/iosim"
	"bdcc/internal/vector"
)

// Context carries per-query execution state shared by all operators.
type Context struct {
	// Acct records device I/O; nil disables I/O accounting.
	Acct *iosim.Accountant
	// Mem tracks operator memory; nil disables memory accounting.
	Mem *MemTracker
	// Options are the query's execution knobs.
	Options
	// SharedBackends marks Backends as owned by a longer-lived host (the
	// bdccd daemon's process-lifetime worker sessions, multiplexed across
	// queries) rather than by this query: CloseBackends becomes a no-op and
	// the host tears the set down at process shutdown.
	SharedBackends bool
	// Backends is the per-query backend set the planner installed when
	// Shards exceeds one (one entry per shard); nil means single-box. The
	// query owner closes it via CloseBackends once execution finishes.
	Backends []Backend
	// Cluster is the set Backends belongs to, installed with it: where a
	// group lives and what the set recorded. nil when single-box.
	Cluster Cluster

	sched *Sched
}

// Cluster is what the engine and its callers need of a backend set beyond the
// backends themselves; *shard.Set is the implementation.
type Cluster interface {
	// Route is the set's group-placement function (group id and unit bytes →
	// backend index), so every operator of the query — and every placement
	// policy — agrees on where a group lives.
	Route(gid uint64, bytes int64) int
	// Net is the accountant the set's transports share. For simulated
	// remotes the recorded time models a 10 GbE link; for real TCP backends
	// the message and byte counts are real while the time remains the
	// model's (the wall clock already contains the real cost).
	Net() *iosim.Accountant
	// Loads is the routed load per backend (units and bytes placed on each).
	Loads() []BackendLoad
	// Health is the per-backend failover health (retries, downs,
	// re-admissions).
	Health() []BackendHealth
	// LocalFallbackUnits counts units that ran on the coordinator's local
	// fallback because no remote backend survived them.
	LocalFallbackUnits() int64
	// ScanIO is the per-worker scan device reads of a partitioned query
	// (index-aligned with the backends), fed by the read stats the workers
	// return in scan units' done frames; nil when not partitioned.
	ScanIO() []iosim.Stats
}

// WorkerIOStats returns the per-worker scan device reads of a partitioned
// query; nil when single-box or not partitioned. Like ShardLoads, it must
// be read before CloseBackends.
func (c *Context) WorkerIOStats() []iosim.Stats {
	if c == nil || c.Cluster == nil {
		return nil
	}
	return c.Cluster.ScanIO()
}

// ShardLoads returns the per-backend routed load of the query's backend
// set; nil when single-box.
func (c *Context) ShardLoads() []BackendLoad {
	if c == nil || c.Cluster == nil {
		return nil
	}
	return c.Cluster.Loads()
}

// NetStats returns the modeled network activity of the query's backend set;
// zero when single-box.
func (c *Context) NetStats() iosim.Stats {
	if c == nil || c.Cluster == nil {
		return iosim.Stats{}
	}
	return c.Cluster.Net().Stats()
}

// HealthStats returns the per-backend failover health of the query's
// backend set; nil when single-box. Like ShardLoads, it must be read before
// CloseBackends.
func (c *Context) HealthStats() []BackendHealth {
	if c == nil || c.Cluster == nil {
		return nil
	}
	return c.Cluster.Health()
}

// LocalFallbackUnits returns how many units ran on the coordinator's local
// fallback because no remote backend survived them; zero when single-box.
func (c *Context) LocalFallbackUnits() int64 {
	if c == nil || c.Cluster == nil {
		return 0
	}
	return c.Cluster.LocalFallbackUnits()
}

// CloseBackends shuts down the query's backend set, joining every backend's
// goroutines, and returns the first close error. It is idempotent and a
// no-op for single-box contexts and for contexts borrowing a shared set
// (SharedBackends) — those sessions outlive the query and are closed by
// their host. Callers close after the operator tree is closed — the
// exchanges have joined all in-flight units by then.
func (c *Context) CloseBackends() error {
	if c.SharedBackends {
		return nil
	}
	var first error
	for _, b := range c.Backends {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.Backends, c.Cluster = nil, nil
	return first
}

// Scheduler returns the context's shared worker pool, creating it on first
// use, or nil when the Workers knob keeps execution serial. The planner
// injects this one handle into every operator it permits to parallelize.
func (c *Context) Scheduler() *Sched {
	if c == nil || c.Workers < 2 {
		return nil
	}
	if c.sched == nil {
		c.sched = NewSched(c.Workers)
	}
	return c.sched
}

// SetScheduler installs a pre-created scheduler pool on the context in
// place of the lazily created per-query pool, aligning the Workers knob
// with the pool's size so operators fan out consistently. The caller owns
// the pool's lifecycle: it must hold its own Retain for as long as the pool
// is shared (operators' paired Retain/Release then never drop it to zero)
// and Release it when done. This is how the daemon runs many queries on a
// bounded number of process-lifetime pools.
func (c *Context) SetScheduler(s *Sched) {
	c.sched = s
	if s != nil {
		c.Workers = s.Workers()
	}
}

// NewContext returns a context with fresh meters for the given device.
func NewContext(dev iosim.Device) *Context {
	return &Context{Acct: iosim.NewAccountant(dev), Mem: &MemTracker{}}
}

// Options bundles the execution knobs every front end (tpchbench, the tpch
// test harness, bdccd) sets on a query context, so the knob wiring lives in
// exactly one place.
type Options struct {
	// Workers is the morsel-parallelism knob: the per-query scheduler runs
	// this many pool goroutines, shared by every parallel operator of the
	// plan. Values below 2 (including the zero value) mean serial execution,
	// preserving the paper's single-threaded measurement setup;
	// DefaultWorkers() uses all cores.
	Workers int
	// Shards is the scale-out knob: how many backends the query's BDCC
	// group streams are sharded across. Values below 2 (including the zero
	// value) mean single-box execution — no backends, no transport, the
	// paper's measurement setup unchanged. With Shards ≥ 2 the planner
	// installs one backend set (Backends, Net) per query — simulated remotes
	// by default, real TCP workers when Remotes is set — and routes each
	// aligned sandwich group to a backend; results stay byte-identical
	// across shard counts.
	Shards int
	// Remotes lists bdccworker daemon addresses (host:port). When non-empty
	// the planner dials one TCP backend per address instead of building
	// simulated remotes, and Shards is ignored in favor of len(Remotes).
	Remotes []string
	// ProbeBase and ProbeMax tune the health prober's reconnect backoff for
	// dialed TCP backends (first delay and cap of the jittered exponential
	// sequence); zero values select the shard layer's defaults.
	ProbeBase time.Duration
	ProbeMax  time.Duration
	// AuthToken is the shared secret presented in the wire protocol's hello
	// frame when dialing remote backends; empty means no token. It must
	// match the workers' configured token or the dial is dropped.
	AuthToken string
	// Partition is the shared-nothing knob: with it set (and a backend set
	// installed), the planner partitions each BDCC base table across the
	// workers, ships every worker its partition once, and lowers scatter
	// scans to placement-pinned scan units that stream from worker-local
	// storage — the coordinator charges no device I/O for them and only
	// merges the returned group batches. Ignored when single-box.
	Partition bool
}

// NewContext returns a context with fresh meters for the given device and
// the option set's knobs.
func (o Options) NewContext(dev iosim.Device) *Context {
	c := NewContext(dev)
	c.Options = o
	return c
}

// MemTracker accounts the bytes of materialized operator state (hash
// tables, buffered groups, sort runs). Peak is the query's high-water mark —
// the metric of the paper's Figure 3.
//
// A tracker is optionally hierarchical: AttachBudget ties it to a
// process-global MemBudget shared by concurrent queries (see membudget.go).
// The cur/peak arithmetic below is identical with and without a parent;
// governance only adds quantum-granular reservations on the side.
type MemTracker struct {
	mu   sync.Mutex
	cur  int64
	peak int64

	// Hierarchical state (membudget.go); all zero for a standalone tracker.
	parent   *MemBudget
	quantum  int64
	reserved int64
	failed   error
	resMu    sync.Mutex
}

// Grow records the allocation of n bytes.
func (m *MemTracker) Grow(n int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.cur += n
	m.peak = max(m.peak, m.cur)
	covered := m.parent == nil || m.cur <= m.reserved || m.failed != nil
	m.mu.Unlock()
	if !covered {
		m.ensureReserved()
	}
}

// Shrink records the release of n bytes.
func (m *MemTracker) Shrink(n int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.cur -= n
	var give int64
	var parent *MemBudget
	if m.parent != nil {
		keep := int64(0)
		if m.cur > 0 {
			keep = (m.cur + m.quantum - 1) / m.quantum * m.quantum
		}
		if m.reserved > keep {
			give = m.reserved - keep
			m.reserved = keep
			parent = m.parent
		}
	}
	m.mu.Unlock()
	parent.Release(give)
}

// settle moves the tracker from *charged, what an owner has charged so far,
// to its current footprint foot, and records foot as charged. Grow and
// Shrink stay symmetric: whatever was charged is released again.
func (m *MemTracker) settle(charged *int64, foot int64) {
	switch d := foot - *charged; {
	case d > 0:
		m.Grow(d)
	case d < 0:
		m.Shrink(-d)
	}
	*charged = foot
}

// Peak returns the high-water mark in bytes.
func (m *MemTracker) Peak() int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peak
}

// Current returns the currently accounted bytes.
func (m *MemTracker) Current() int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur
}

// Operator is a pull-based vectorized operator. Next returns nil at end of
// stream; the returned batch is owned by the operator and valid until the
// following Next or Close call.
type Operator interface {
	// Schema describes the produced columns.
	Schema() expr.Schema
	// Open prepares execution; it must be called exactly once before Next.
	Open(ctx *Context) error
	// Next produces the next batch, or nil at end of stream.
	Next() (*vector.Batch, error)
	// Close releases resources; it must be called exactly once.
	Close() error
}

// Result is a fully materialized query result.
type Result struct {
	Schema expr.Schema
	Cols   []*vector.Vector
}

// Rows returns the number of result rows.
func (r *Result) Rows() int {
	if len(r.Cols) == 0 {
		return 0
	}
	return r.Cols[0].Len()
}

// Row renders row i as display strings (stable across schemes, used by the
// cross-scheme equivalence tests).
func (r *Result) Row(i int) []string {
	out := make([]string, len(r.Cols))
	for c, col := range r.Cols {
		out[c] = col.GetString(i)
	}
	return out
}

// Run executes an operator tree to completion and materializes the result.
func Run(ctx *Context, op Operator) (*Result, error) {
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	defer op.Close()
	res := &Result{Schema: op.Schema()}
	for _, c := range op.Schema() {
		res.Cols = append(res.Cols, vector.NewVector(c.Kind, vector.BatchSize))
	}
	for {
		// A tracker governed by a process budget latches rejection instead
		// of erroring inside Grow (which has no error path and runs on pool
		// goroutines); surface it here so an over-budget query aborts
		// between batches and its operators unwind normally.
		if err := ctx.Mem.Err(); err != nil {
			return nil, err
		}
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return res, nil
		}
		for c, col := range res.Cols {
			col.AppendVector(b.Cols[c]) // doubling, like a Buffer
		}
	}
}

func errOp(op string, err error) error { return fmt.Errorf("engine: %s: %w", op, err) }
