package engine

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"bdcc/internal/expr"
	"bdcc/internal/vector"
)

// AggFunc enumerates aggregate functions.
type AggFunc uint8

const (
	// AggSum sums the argument (int64 or float64).
	AggSum AggFunc = iota
	// AggMin tracks the minimum argument.
	AggMin
	// AggMax tracks the maximum argument.
	AggMax
	// AggCount counts rows (Arg nil) or non-default indicator semantics are
	// handled by the planner via CASE expressions.
	AggCount
	// AggCountDistinct counts distinct argument values.
	AggCountDistinct
	// AggAvg computes the mean of the argument as float64.
	AggAvg
)

// AggSpec is one aggregate of an aggregation operator.
type AggSpec struct {
	Name string
	Func AggFunc
	// Arg is the aggregated expression; nil is permitted for AggCount.
	Arg expr.Expr
}

// resultKind returns the output kind of the aggregate.
func (a AggSpec) resultKind() vector.Kind {
	switch a.Func {
	case AggCount, AggCountDistinct:
		return vector.Int64
	case AggAvg:
		return vector.Float64
	default:
		return a.Arg.Kind()
	}
}

// aggState is the running state of one aggregate in one group.
type aggState struct {
	i64      int64
	f64      float64
	str      string
	count    int64
	distinct *distinctSet
}

// aggStateBytes is the in-memory size of one aggState (four 8-byte fields
// plus the 16-byte string header), charged to the memory tracker per
// (group, aggregate) pair.
const aggStateBytes = 48

// update folds row r of the aggregate's evaluated argument vector (nil for
// COUNT(*)) into the state and returns the footprint growth of its
// COUNT(DISTINCT) set in bytes, 0 for every other function.
func (st *aggState) update(f AggFunc, arg *vector.Vector, r int) int64 {
	switch f {
	case AggCount:
		st.count++
	case AggCountDistinct:
		if st.distinct == nil {
			st.distinct = newDistinctSet(arg.Kind)
		}
		return st.distinct.Add(arg, r)
	case AggSum, AggAvg:
		switch arg.Kind {
		case vector.Int64:
			st.i64 += arg.I64[r]
			st.f64 += float64(arg.I64[r])
		case vector.Float64:
			st.f64 += arg.F64[r]
		}
		st.count++
	case AggMin, AggMax:
		updateMinMax(st, arg, r, f == AggMin)
	}
	return 0
}

// render appends the aggregate's result to its output column.
func (st *aggState) render(f AggFunc, col *vector.Vector) {
	switch f {
	case AggCount:
		col.AppendInt64(st.count)
	case AggCountDistinct:
		col.AppendInt64(int64(st.distinct.Len()))
	case AggAvg:
		if st.count == 0 {
			col.AppendFloat64(0)
		} else {
			col.AppendFloat64(st.f64 / float64(st.count))
		}
	case AggSum:
		if col.Kind == vector.Int64 {
			col.AppendInt64(st.i64)
		} else {
			col.AppendFloat64(st.f64)
		}
	case AggMin, AggMax:
		switch col.Kind {
		case vector.Int64:
			col.AppendInt64(st.i64)
		case vector.Float64:
			col.AppendFloat64(st.f64)
		case vector.String:
			col.AppendString(st.str)
		}
	}
}

// aggTable is one hash-aggregation state: the open-addressing group index,
// the flat state array, the materialized group keys, and per-batch scratch.
// The serial operator owns one; each parallel worker owns its own (workers
// aggregate disjoint key partitions, so tables never share mutable state —
// which includes the aggregate arguments: every table evaluates its own
// clones of the bound trees). A batch is folded in two passes: find-or-insert
// resolves every row to its group id in one loop picked by the key shape,
// then each aggregate runs one typed loop over (group ids, argument values).
// states and firstRows are charged by capacity, so they grow only by one-row
// appends — the geometry TestHashTableFootprintPinned pins.
type aggTable struct {
	aggs      []AggSpec
	keyIdx    []int
	table     oaTable      // key -> group id
	eq        keyEq        // batch rows against keyBuf rows
	states    []aggState   // flat, group g's states at [g*len(aggs) : (g+1)*len(aggs)]
	nGroups   int          // group count (keyBuf.Len() is 0 for zero-column keys)
	keyBuf    *Buffer      // one row per group, in first-seen (emission) order
	firstRows []int64      // per group: global row index of the first-seen row
	memBytes  int64        // bytes charged to the memory tracker
	hashes    []uint64     // per-batch key hash scratch
	gids      []int32      // per batch: each row's group id
	distBytes int64        // footprint of all COUNT(DISTINCT) sets
	keyBatch  vector.Batch // per batch: the key columns, in keyBuf's layout
}

func newAggTable(aggs []AggSpec, keyIdx []int, keySchema expr.Schema) *aggTable {
	t := &aggTable{aggs: slices.Clone(aggs), keyIdx: keyIdx, eq: newKeyEq(len(keyIdx))}
	for i := range t.aggs {
		t.aggs[i].Arg = expr.Clone(t.aggs[i].Arg)
	}
	t.table.keyed = keyedShape(keySchema.Kinds())
	t.keyBuf = NewBuffer(keySchema)
	t.keyBatch.Cols = make([]*vector.Vector, len(keyIdx))
	return t
}

// accumulate folds one batch into the table: the key columns are hashed
// vector-at-a-time (or taken pre-hashed from a routing feeder), every row
// resolves (or claims) its group id, and then each aggregate folds its
// evaluated argument into the groups' states in one loop whose (function,
// kind) dispatch sits outside it. Rows reach a group's state in input order
// whatever the loop structure, so float sums keep their bits. rowIdx, when
// non-nil, carries each row's global input row index so parallel workers can
// reconstruct the serial first-seen emission order.
func (t *aggTable) accumulate(b *vector.Batch, hashes []uint64, rowIdx []int64) {
	for c, ki := range t.keyIdx {
		t.keyBatch.Cols[c] = b.Cols[ki]
	}
	if hashes == nil {
		t.hashes = vector.HashKeys(b, t.keyIdx, t.hashes)
		hashes = t.hashes
	}
	t.gids = sized(t.gids, len(hashes))
	bindKeyCols(t.eq.sought, b.Cols, t.keyIdx)
	if t.table.keyed {
		for r, key := range t.eq.sought[0].I64 {
			t.table.Reserve()
			slot, found := t.table.FindKey(hashes[r], key)
			if !found {
				t.table.Insert(slot, uint64(key), t.newGroup(r, rowIdx))
			}
			t.gids[r] = t.table.vals[slot]
		}
	} else {
		bindKeyCols(t.eq.stored, t.keyBuf.cols, nil)
		for r, h := range hashes {
			t.table.Reserve()
			slot, found := t.table.FindSlot(h, &t.eq, r)
			if !found {
				t.table.Insert(slot, h, t.newGroup(r, rowIdx))
				bindKeyCols(t.eq.stored, t.keyBuf.cols, nil)
			}
			t.gids[r] = t.table.vals[slot]
		}
	}
	for i, a := range t.aggs {
		var arg *vector.Vector
		if a.Arg != nil {
			arg = expr.Values(a.Arg, b)
		}
		t.fold(i, a.Func, arg)
	}
}

// newGroup opens a group for row r of the batch being accumulated and
// returns its id.
func (t *aggTable) newGroup(r int, rowIdx []int64) int32 {
	t.keyBuf.AppendRow(&t.keyBatch, r)
	if rowIdx != nil {
		t.firstRows = append(t.firstRows, rowIdx[r])
	}
	for range t.aggs {
		t.states = append(t.states, aggState{})
	}
	t.nGroups++
	return int32(t.nGroups - 1)
}

// fold folds the batch's values of aggregate i (nil for COUNT(*)) into the
// states of the groups in t.gids, row by row in input order.
func (t *aggTable) fold(i int, f AggFunc, arg *vector.Vector) {
	n, states := len(t.aggs), t.states
	switch {
	case f == AggCount:
		for _, g := range t.gids {
			states[int(g)*n+i].count++
		}
	case f == AggCountDistinct:
		for r, g := range t.gids {
			t.distBytes += states[int(g)*n+i].update(f, arg, r)
		}
	case f == AggMin || f == AggMax:
		foldMinMax(states, n, i, t.gids, arg, f == AggMin)
	case arg.Kind == vector.Int64: // SUM, AVG
		for r, g := range t.gids {
			st, x := &states[int(g)*n+i], arg.I64[r]
			st.i64 += x
			st.f64 += float64(x)
			st.count++
		}
	case arg.Kind == vector.Float64:
		for r, g := range t.gids {
			st := &states[int(g)*n+i]
			st.f64 += arg.F64[r]
			st.count++
		}
	}
}

// foldMinMax is fold for MIN and MAX: one loop per argument kind.
func foldMinMax(states []aggState, n, i int, gids []int32, arg *vector.Vector, isMin bool) {
	switch arg.Kind {
	case vector.Int64:
		for r, g := range gids {
			st, x := &states[int(g)*n+i], arg.I64[r]
			if st.count == 0 || (isMin && x < st.i64) || (!isMin && x > st.i64) {
				st.i64 = x
			}
			st.count++
		}
	case vector.Float64:
		for r, g := range gids {
			st, x := &states[int(g)*n+i], arg.F64[r]
			if st.count == 0 || (isMin && x < st.f64) || (!isMin && x > st.f64) {
				st.f64 = x
			}
			st.count++
		}
	case vector.String:
		for r, g := range gids {
			st, x := &states[int(g)*n+i], arg.Str[r]
			if st.count == 0 || (isMin && x < st.str) || (!isMin && x > st.str) {
				st.str = x
			}
			st.count++
		}
	}
}

// bytes returns the exact footprint of the table's flat allocations.
func (t *aggTable) bytes() int64 {
	return t.keyBuf.Bytes() + t.table.Bytes() +
		int64(cap(t.states))*aggStateBytes + t.distBytes +
		int64(cap(t.firstRows))*8
}

// charge reconciles the accounted bytes with the current footprint; mem is
// mutex-protected, so parallel workers charge concurrently.
func (t *aggTable) charge(mem *MemTracker) {
	foot := t.bytes()
	switch d := foot - t.memBytes; {
	case d > 0:
		mem.Grow(d)
	case d < 0:
		mem.Shrink(-d)
	}
	t.memBytes = foot
}

// release returns the charged bytes to the tracker and clears the table,
// keeping capacity.
func (t *aggTable) release(mem *MemTracker) {
	mem.Shrink(t.memBytes)
	t.memBytes = 0
	t.distBytes = 0
	t.table.Reset()
	t.states = t.states[:0]
	t.firstRows = t.firstRows[:0]
	t.nGroups = 0
	t.keyBuf.Reset()
}

func updateMinMax(st *aggState, v *vector.Vector, r int, isMin bool) {
	first := st.count == 0
	st.count++
	switch v.Kind {
	case vector.Int64:
		x := v.I64[r]
		if first || (isMin && x < st.i64) || (!isMin && x > st.i64) {
			st.i64 = x
		}
	case vector.Float64:
		x := v.F64[r]
		if first || (isMin && x < st.f64) || (!isMin && x > st.f64) {
			st.f64 = x
		}
	case vector.String:
		x := v.Str[r]
		if first || (isMin && x < st.str) || (!isMin && x > st.str) {
			st.str = x
		}
	}
}

// HashAggregate groups its input by the GroupBy columns and computes the
// aggregates. With FlushOnGroup set the operator becomes the sandwich
// aggregation of the paper's reference [3]: the input stream must be
// grouped (tagged batches from a scatter scan or a group-preserving
// pipeline), and because the grouping key functionally determines the
// stream's group identifier, the hash table can be emitted and cleared at
// every group boundary — peak memory is one co-clustering group instead of
// the whole input (the paper's Q13/Q16/Q18 memory effect).
//
// With a scheduler handle injected (and FlushOnGroup unset), input rows are
// routed to key-hash partitions whose jobs run as tasks on the query's
// shared worker pool: every group is accumulated entirely by one partition
// in global row order, so even float sums are bit-identical to the serial
// run, and the merged output emits groups in the serial first-seen order.
type HashAggregate struct {
	Child        Operator
	GroupBy      []string
	Aggs         []AggSpec
	FlushOnGroup bool
	// Sched is the planner-injected handle of the query's shared worker
	// pool; it takes effect when FlushOnGroup is unset (the sandwich
	// aggregation is already bounded by one co-clustering group and flushes
	// on a serial group cursor). nil means serial aggregation.
	Sched *Sched

	schema expr.Schema
	ctx    *Context
	keyIdx []int
	agg    *aggTable

	pending []*vector.Batch // flushed output waiting to be returned
	sel     []int32         // emitBatch's gather scratch
	done    bool
	haveGID bool
	curGID  uint64
}

// Schema implements Operator.
func (h *HashAggregate) Schema() expr.Schema { return h.schema }

// Open implements Operator.
func (h *HashAggregate) Open(ctx *Context) error {
	h.ctx = ctx
	if err := h.Child.Open(ctx); err != nil {
		return err
	}
	cs := h.Child.Schema()
	var err error
	h.keyIdx, err = keyIndexes(cs, h.GroupBy)
	if err != nil {
		return errOp("aggregate keys", err)
	}
	var keySchema expr.Schema
	for _, i := range h.keyIdx {
		keySchema = append(keySchema, cs[i])
	}
	h.schema = append(expr.Schema{}, keySchema...)
	for _, a := range h.Aggs {
		if a.Arg != nil {
			if err := expr.Bind(a.Arg, cs); err != nil {
				return errOp(fmt.Sprintf("aggregate %s", a.Name), err)
			}
		} else if a.Func != AggCount {
			return fmt.Errorf("engine: aggregate %s requires an argument", a.Name)
		}
		h.schema = append(h.schema, expr.ColMeta{Name: a.Name, Kind: a.resultKind()})
	}
	h.agg = newAggTable(h.Aggs, h.keyIdx, keySchema)
	return nil
}

// workers resolves the effective worker count of this aggregation.
func (h *HashAggregate) workers() int {
	if h.Sched == nil || h.FlushOnGroup {
		return 1
	}
	return h.Sched.Workers()
}

// emitBatch renders the groups refs (at most BatchSize) into one pending
// batch, column by column: each key column is one gather per run of groups
// from one table (a serial flush is one run, the parallel merge interleaves
// its partitions' tables), each aggregate one loop over the groups' states.
// Flushed batches of a FlushOnGroup aggregation keep the group tag, so a
// sandwich aggregation's output remains a group stream and enclosing sandwich
// operators can align on it.
func (h *HashAggregate) emitBatch(tables []*aggTable, refs []groupRef) {
	nk := len(h.keyIdx)
	nAggs := len(h.Aggs)
	out := vector.NewBatch(h.schema.Kinds())
	for lo := 0; lo < len(refs) && nk > 0; {
		h.sel = h.sel[:0]
		hi := lo
		for ; hi < len(refs) && refs[hi].table == refs[lo].table; hi++ {
			h.sel = append(h.sel, int32(refs[hi].group))
		}
		for c := 0; c < nk; c++ {
			out.Cols[c].AppendSelected(tables[refs[lo].table].keyBuf.cols[c], h.sel)
		}
		lo = hi
	}
	for i, a := range h.Aggs {
		for _, ref := range refs {
			tables[ref.table].states[ref.group*nAggs+i].render(a.Func, out.Cols[nk+i])
		}
	}
	if h.FlushOnGroup && h.haveGID {
		out.Grouped, out.GroupID = true, h.curGID
	}
	h.pending = append(h.pending, out)
}

// groupRef addresses one group of one aggTable during emission.
type groupRef struct {
	table    int
	group    int
	firstRow int64
}

// flush converts the hash table into pending output batches, groups in
// insertion order, and clears it.
func (h *HashAggregate) flush() {
	tables := []*aggTable{h.agg}
	refs := make([]groupRef, 0, min(vector.BatchSize, h.agg.nGroups))
	for g := 0; g < h.agg.nGroups; {
		for refs = refs[:0]; g < h.agg.nGroups && len(refs) < vector.BatchSize; g++ {
			refs = append(refs, groupRef{group: g})
		}
		h.emitBatch(tables, refs)
	}
	h.agg.release(h.ctx.Mem)
}

// aggJob is one routed unit of the parallel aggregation: up to aggJobRows
// rows of one worker's key partition with pre-computed key hashes and
// global row indexes. Jobs are recycled through a free list once a worker
// has folded them in.
type aggJob struct {
	b      *vector.Batch
	hashes []uint64
	rowIdx []int64
	bytes  int64 // charged while in flight
}

func (j *aggJob) reset() {
	j.b.Reset()
	j.hashes = j.hashes[:0]
	j.rowIdx = j.rowIdx[:0]
	j.bytes = 0
}

// aggJobRows is the target row count of one routed job: the feeder buffers
// each worker's rows across input batches up to this size, so per-job
// synchronization amortizes over several batches of table work.
const aggJobRows = 4 * vector.BatchSize

// aggPart is one key-hash partition of the parallel aggregation: a private
// table plus a queue of routed jobs. Jobs of one partition run strictly one
// at a time in routing order — the enqueue path submits a drain task to the
// shared scheduler only when none is active — so each group accumulates on
// a single logical thread in global row order.
type aggPart struct {
	table  *aggTable
	mu     sync.Mutex
	queue  []*aggJob
	active bool
}

// runParallel drains the child on the caller goroutine, routing each row to
// a partition by key hash (so each group lives in exactly one partition and
// accumulates in global row order) with partition jobs running as tasks on
// the shared scheduler, then emits all groups sorted by their global
// first-seen row — exactly the serial emission order.
func (h *HashAggregate) runParallel() error {
	sched := h.Sched
	workers := sched.Workers()
	cs := h.Child.Schema()
	var keySchema expr.Schema
	for _, i := range h.keyIdx {
		keySchema = append(keySchema, cs[i])
	}
	sched.Retain()
	defer sched.Release()

	aparts := make([]*aggPart, workers)
	tables := make([]*aggTable, workers)
	for w := 0; w < workers; w++ {
		tables[w] = newAggTable(h.Aggs, h.keyIdx, keySchema)
		aparts[w] = &aggPart{table: tables[w]}
	}

	// inflight jobs are bounded so routing applies backpressure on the
	// (blockable) caller goroutine; drain tasks never block.
	var pmu sync.Mutex
	pcond := sync.NewCond(&pmu)
	inflight := 0
	var recycle []*aggJob

	drain := func(p *aggPart) {
		for {
			p.mu.Lock()
			if len(p.queue) == 0 {
				p.active = false
				p.mu.Unlock()
				return
			}
			job := p.queue[0]
			p.queue[0] = nil
			p.queue = p.queue[1:]
			p.mu.Unlock()
			p.table.accumulate(job.b, job.hashes, job.rowIdx)
			p.table.charge(h.ctx.Mem)
			h.ctx.Mem.Shrink(job.bytes)
			job.reset()
			pmu.Lock()
			inflight--
			if len(recycle) < 4*workers {
				recycle = append(recycle, job)
			}
			// At most one goroutine ever waits on pcond (the router, in
			// enqueue or settle — never both), so Signal suffices.
			pcond.Signal()
			pmu.Unlock()
		}
	}
	enqueue := func(w int, job *aggJob) {
		pmu.Lock()
		for inflight >= 4*workers {
			pcond.Wait()
		}
		inflight++
		pmu.Unlock()
		p := aparts[w]
		p.mu.Lock()
		p.queue = append(p.queue, job)
		start := !p.active
		p.active = true
		p.mu.Unlock()
		if start {
			sched.Submit(-1, func(int) { drain(p) })
		}
	}
	// settle waits until every routed job has been folded in; partition
	// tables are safe to read afterwards.
	settle := func() {
		pmu.Lock()
		for inflight > 0 {
			pcond.Wait()
		}
		pmu.Unlock()
	}

	// Route: hash each input batch once, gather each partition's rows with
	// a selection vector (one type dispatch per column, not per row), and
	// hand off jobs once they reach aggJobRows. The partition uses high
	// hash bits (the group index uses the low bits).
	kinds := cs.Kinds()
	newJob := func() *aggJob {
		pmu.Lock()
		defer pmu.Unlock()
		if n := len(recycle); n > 0 {
			j := recycle[n-1]
			recycle = recycle[:n-1]
			return j
		}
		return &aggJob{b: vector.NewBatch(kinds)}
	}
	var hashes []uint64
	parts := make([]*aggJob, workers)
	sels := make([][]int32, workers)
	var rowBase int64
	send := func(w int) {
		job := parts[w]
		parts[w] = nil
		job.bytes = job.b.Bytes()
		h.ctx.Mem.Grow(job.bytes)
		enqueue(w, job)
	}
	for {
		b, err := h.Child.Next()
		if err != nil {
			settle()
			for _, t := range tables {
				t.release(h.ctx.Mem)
			}
			return err
		}
		if b == nil {
			break
		}
		if b.Len() == 0 {
			continue
		}
		hashes = vector.HashKeys(b, h.keyIdx, hashes)
		for w := range sels {
			sels[w] = sels[w][:0]
		}
		for r, hv := range hashes {
			w := int((hv >> 32) % uint64(workers))
			sels[w] = append(sels[w], int32(r))
		}
		for w, sel := range sels {
			if len(sel) == 0 {
				continue
			}
			if parts[w] == nil {
				parts[w] = newJob()
			}
			job := parts[w]
			job.b.AppendSelected(b, sel)
			for _, r := range sel {
				job.hashes = append(job.hashes, hashes[r])
				job.rowIdx = append(job.rowIdx, rowBase+int64(r))
			}
			if job.b.Len() >= aggJobRows {
				send(w)
			}
		}
		rowBase += int64(b.Len())
	}
	for w := range parts {
		if parts[w] != nil && parts[w].b.Len() > 0 {
			send(w)
		}
	}
	settle()

	// Merge: emit every partition's groups in global first-seen order.
	var order []groupRef
	for w, t := range tables {
		for g := 0; g < t.nGroups; g++ {
			order = append(order, groupRef{table: w, group: g, firstRow: t.firstRows[g]})
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].firstRow < order[j].firstRow })
	for ; len(order) > 0; order = order[min(vector.BatchSize, len(order)):] {
		h.emitBatch(tables, order[:min(vector.BatchSize, len(order))])
	}
	for _, t := range tables {
		t.release(h.ctx.Mem)
	}
	return nil
}

// Next implements Operator.
func (h *HashAggregate) Next() (*vector.Batch, error) {
	for {
		if len(h.pending) > 0 {
			b := h.pending[0]
			h.pending[0] = nil
			h.pending = h.pending[1:]
			return b, nil
		}
		if h.done {
			return nil, nil
		}
		if h.workers() > 1 {
			h.done = true
			if err := h.runParallel(); err != nil {
				return nil, err
			}
			continue
		}
		b, err := h.Child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			h.done = true
			h.flush()
			continue
		}
		if b.Len() == 0 {
			continue
		}
		if h.FlushOnGroup && b.Grouped {
			if h.haveGID && b.GroupID != h.curGID {
				h.flush()
			}
			h.haveGID = true
			h.curGID = b.GroupID
		}
		h.agg.accumulate(b, nil, nil)
		h.agg.charge(h.ctx.Mem)
	}
}

// Close implements Operator.
func (h *HashAggregate) Close() error {
	if h.agg != nil {
		h.ctx.Mem.Shrink(h.agg.memBytes)
		h.agg.memBytes = 0
	}
	return h.Child.Close()
}

// StreamAggregate aggregates an input already sorted on its grouping
// columns with O(1) state — the "streaming aggregate applied by the PK
// scheme" that wins Q18 in the paper. A group closes when the next row's key
// differs from the buffered key of the open group; output is cut at
// BatchSize, resuming inside the current child batch on the next call.
type StreamAggregate struct {
	Child   Operator
	GroupBy []string
	Aggs    []AggSpec

	schema   expr.Schema
	keyIdx   []int
	keyRow   *Buffer // the open group's key, one row while haveKey
	eq       keyEq   // cur's rows against keyRow's row
	haveKey  bool
	states   []aggState
	argVecs  []*vector.Vector
	out      *vector.Batch
	cur      *vector.Batch // child batch being consumed; rows [row, Len) pending
	row      int
	keyBatch vector.Batch // cur's key columns, in keyRow's layout
	done     bool
}

// Schema implements Operator.
func (s *StreamAggregate) Schema() expr.Schema { return s.schema }

// Open implements Operator.
func (s *StreamAggregate) Open(ctx *Context) error {
	if err := s.Child.Open(ctx); err != nil {
		return err
	}
	cs := s.Child.Schema()
	var err error
	s.keyIdx, err = keyIndexes(cs, s.GroupBy)
	if err != nil {
		return errOp("stream aggregate keys", err)
	}
	var keySchema expr.Schema
	for _, i := range s.keyIdx {
		keySchema = append(keySchema, cs[i])
	}
	s.schema = append(expr.Schema{}, keySchema...)
	for _, a := range s.Aggs {
		if a.Arg != nil {
			if err := expr.Bind(a.Arg, cs); err != nil {
				return errOp(fmt.Sprintf("stream aggregate %s", a.Name), err)
			}
		}
		s.schema = append(s.schema, expr.ColMeta{Name: a.Name, Kind: a.resultKind()})
	}
	s.keyRow = NewBuffer(keySchema)
	s.eq = newKeyEq(len(s.keyIdx))
	s.keyBatch.Cols = make([]*vector.Vector, len(s.keyIdx))
	s.states = make([]aggState, len(s.Aggs))
	s.argVecs = make([]*vector.Vector, len(s.Aggs))
	s.out = vector.NewBatch(s.schema.Kinds())
	return nil
}

// emitGroup appends the open group to the output batch and closes it.
func (s *StreamAggregate) emitGroup() {
	s.keyRow.WriteRow(s.out, 0, 0)
	for i, a := range s.Aggs {
		s.states[i].render(a.Func, s.out.Cols[len(s.keyIdx)+i])
		s.states[i] = aggState{}
	}
	s.keyRow.Reset()
	s.haveKey = false
}

// Next implements Operator.
func (s *StreamAggregate) Next() (*vector.Batch, error) {
	s.out.Reset()
	for {
		if s.cur == nil {
			if s.done {
				if s.out.Len() > 0 {
					return s.out, nil
				}
				return nil, nil
			}
			b, err := s.Child.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				s.done = true
				if s.haveKey {
					s.emitGroup()
				}
				continue
			}
			for i, a := range s.Aggs {
				if a.Arg != nil {
					s.argVecs[i] = expr.Values(a.Arg, b)
				}
			}
			for c, ki := range s.keyIdx {
				s.keyBatch.Cols[c] = b.Cols[ki]
			}
			bindKeyCols(s.eq.sought, b.Cols, s.keyIdx)
			s.cur, s.row = b, 0
		}
		for ; s.row < s.cur.Len(); s.row++ {
			if s.haveKey && !s.eq.equal(s.row, 0) {
				s.emitGroup()
				if s.out.Len() >= vector.BatchSize {
					return s.out, nil // resumes at this row, which opens the next group
				}
			}
			if !s.haveKey {
				s.keyRow.AppendRow(&s.keyBatch, s.row)
				bindKeyCols(s.eq.stored, s.keyRow.cols, nil)
				s.haveKey = true
			}
			for i, a := range s.Aggs {
				s.states[i].update(a.Func, s.argVecs[i], s.row)
			}
		}
		s.cur = nil
	}
}

// Close implements Operator.
func (s *StreamAggregate) Close() error { return s.Child.Close() }
