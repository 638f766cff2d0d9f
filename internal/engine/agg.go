package engine

import (
	"cmp"
	"fmt"
	"slices"

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
		first, isMin := st.count == 0, f == AggMin
		switch arg.Kind {
		case vector.Int64:
			keepMinMax(&st.i64, arg.I64[r], first, isMin)
		case vector.Float64:
			keepMinMax(&st.f64, arg.F64[r], first, isMin)
		case vector.String:
			keepMinMax(&st.str, arg.Str[r], first, isMin)
		}
		st.count++
	}
	return 0
}

// keepMinMax replaces *cur by x when x is a group's first value or beats
// *cur: is smaller for MIN, larger for MAX.
func keepMinMax[T cmp.Ordered](cur *T, x T, first, isMin bool) {
	if first || (isMin && x < *cur) || (!isMin && x > *cur) {
		*cur = x
	}
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
// The serial operator owns one; a striped one owns one per key-hash stripe
// (stripes fold disjoint keys, so tables never share mutable state — which
// includes the aggregate arguments: every table evaluates its own clones of
// the bound trees). A batch is folded in two passes: find-or-insert
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
	hashes    []uint64     // key hash scratch: per batch, or the stripe's gathered rows'
	gids      []int32      // per batch: each row's group id
	distBytes int64        // footprint of all COUNT(DISTINCT) sets
	keyBatch  vector.Batch // per batch: the key columns, in keyBuf's layout

	// foldStripe's scratch: the window rows of the table's stripe, their
	// global row indexes, and the rows gathered into one batch.
	sel    []int32
	rowIdx []int64
	stripe *vector.Batch
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
// vector-at-a-time (or taken pre-hashed from foldStripe), every row
// resolves (or claims) its group id, and then each aggregate folds its
// evaluated argument into the groups' states in one loop whose (function,
// kind) dispatch sits outside it. Rows reach a group's state in input order
// whatever the loop structure, so float sums keep their bits. rowIdx, when
// non-nil, carries each row's global input row index so striped tables can
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

// foldStripe accumulates the rows of the staged window win whose key hash
// falls in stripe w of n, in window order: one pass over the window's
// hashes selects them, one gather copies them into the table's own scratch
// batch. base is the global row index of win's first row. The stripe is
// taken from the high hash bits; the group index uses the low ones.
func (t *aggTable) foldStripe(win *vector.Batch, hashes []uint64, base int64, w, n int) {
	t.sel, t.hashes, t.rowIdx = t.sel[:0], t.hashes[:0], t.rowIdx[:0]
	for r, hv := range hashes {
		if int((hv>>32)%uint64(n)) == w {
			t.sel = append(t.sel, int32(r))
			t.hashes = append(t.hashes, hv)
			t.rowIdx = append(t.rowIdx, base+int64(r))
		}
	}
	if len(t.sel) == 0 {
		return
	}
	if t.stripe == nil {
		t.stripe = vector.NewBatch(win.Kinds())
	}
	t.stripe.Reset()
	t.stripe.AppendSelected(win, t.sel)
	t.accumulate(t.stripe, t.hashes, t.rowIdx)
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
			st := &states[int(g)*n+i]
			keepMinMax(&st.i64, arg.I64[r], st.count == 0, isMin)
			st.count++
		}
	case vector.Float64:
		for r, g := range gids {
			st := &states[int(g)*n+i]
			keepMinMax(&st.f64, arg.F64[r], st.count == 0, isMin)
			st.count++
		}
	case vector.String:
		for r, g := range gids {
			st := &states[int(g)*n+i]
			keepMinMax(&st.str, arg.Str[r], st.count == 0, isMin)
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

// bindAggs resolves the grouping keys of an aggregation operator (named op
// in errors) and binds its aggregates over the child schema cs. It returns
// the key column indexes, their schema and the output schema: the keys,
// then one column per aggregate.
func bindAggs(op string, cs expr.Schema, groupBy []string, aggs []AggSpec) (keyIdx []int, keySchema, out expr.Schema, err error) {
	keyIdx, err = keyIndexes(cs, groupBy)
	if err != nil {
		return nil, nil, nil, errOp(op+" keys", err)
	}
	for _, i := range keyIdx {
		keySchema = append(keySchema, cs[i])
	}
	out = append(expr.Schema{}, keySchema...)
	for _, a := range aggs {
		if a.Arg != nil {
			if err := expr.Bind(a.Arg, cs); err != nil {
				return nil, nil, nil, errOp(fmt.Sprintf("%s %s", op, a.Name), err)
			}
		} else if a.Func != AggCount {
			return nil, nil, nil, fmt.Errorf("engine: %s %s requires an argument", op, a.Name)
		}
		out = append(out, expr.ColMeta{Name: a.Name, Kind: a.resultKind()})
	}
	return keyIdx, keySchema, out, nil
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
// With a scheduler handle injected (and FlushOnGroup unset), the key-hash
// space is split into one stripe per pool worker, each with its own table.
// The consumer stages a window of input rows with their key hashes, then
// one task per stripe folds, in window order, the window's rows of its
// stripe, and the consumer waits for all of them before staging the next
// window — the join build's barrier. Every group is folded by one stripe in
// global row order, so even float sums are bit-identical to the serial run,
// and the tables merge by first-seen row into the serial emission order.
// The serial and sandwich forms are the one-stripe case of the same loop:
// each batch is folded as it arrives, with nothing staged.
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
	tables []*aggTable // one per key-hash stripe

	// The staged window of the striped form (win is nil with one stripe):
	// input rows in input order, their key hashes, the global row index of
	// the first, and the bytes charged for rows and hashes.
	win       *vector.Batch
	winHashes []uint64
	winBase   int64
	winBytes  int64

	pending []*vector.Batch // flushed output waiting to be returned
	refs    []groupRef      // flush's emission scratch
	next    []int           // flush's merge cursor, per table
	sel     []int32         // emitBatch's gather scratch
	done    bool
	haveGID bool
	curGID  uint64
}

// aggStripeRows is the rows a stripe folds per window on average: a window
// stages stripes × aggStripeRows rows, so one barrier amortizes over several
// batches of table work per stripe.
const aggStripeRows = 4 * vector.BatchSize

// Schema implements Operator.
func (h *HashAggregate) Schema() expr.Schema { return h.schema }

// Open implements Operator.
func (h *HashAggregate) Open(ctx *Context) error {
	h.ctx = ctx
	if err := h.Child.Open(ctx); err != nil {
		return err
	}
	cs := h.Child.Schema()
	var keySchema expr.Schema
	var err error
	h.keyIdx, keySchema, h.schema, err = bindAggs("aggregate", cs, h.GroupBy, h.Aggs)
	if err != nil {
		return err
	}
	stripes := 1
	if !h.FlushOnGroup {
		stripes = h.Sched.Workers()
	}
	h.tables = make([]*aggTable, stripes)
	for w := range h.tables {
		h.tables[w] = newAggTable(h.Aggs, h.keyIdx, keySchema)
	}
	h.next = make([]int, len(h.tables))
	if len(h.tables) > 1 {
		h.win = vector.NewBatch(cs.Kinds())
	}
	return nil
}

// emitBatch renders the groups refs (at most BatchSize) into one pending
// batch, column by column: each key column is one gather per run of groups
// from one table (a one-stripe flush is one run, a striped flush interleaves
// the stripes' tables), each aggregate one loop over the groups' states.
// Flushed batches of a FlushOnGroup aggregation keep the group tag, so a
// sandwich aggregation's output remains a group stream and enclosing sandwich
// operators can align on it.
func (h *HashAggregate) emitBatch(refs []groupRef) {
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
			out.Cols[c].AppendSelected(h.tables[refs[lo].table].keyBuf.cols[c], h.sel)
		}
		lo = hi
	}
	for i, a := range h.Aggs {
		for _, ref := range refs {
			h.tables[ref.table].states[ref.group*nAggs+i].render(a.Func, out.Cols[nk+i])
		}
	}
	if h.FlushOnGroup && h.haveGID {
		out.Grouped, out.GroupID = true, h.curGID
	}
	h.pending = append(h.pending, out)
}

// groupRef addresses one group of one aggTable during emission.
type groupRef struct {
	table int
	group int
}

// flush converts the tables into pending output batches and clears them.
// Each table holds its groups in first-seen order, so emission merges the
// tables' group lists by first-seen row, BatchSize groups a batch; with one
// table the merge is that table's own order and compares no rows (a
// one-stripe table records none).
func (h *HashAggregate) flush() {
	clear(h.next)
	for {
		h.refs = h.refs[:0]
		for len(h.refs) < vector.BatchSize {
			best := -1
			for w, t := range h.tables {
				if h.next[w] < t.nGroups && (best < 0 ||
					t.firstRows[h.next[w]] < h.tables[best].firstRows[h.next[best]]) {
					best = w
				}
			}
			if best < 0 {
				break
			}
			h.refs = append(h.refs, groupRef{table: best, group: h.next[best]})
			h.next[best]++
		}
		if len(h.refs) == 0 {
			break
		}
		h.emitBatch(h.refs)
	}
	for _, t := range h.tables {
		t.release(h.ctx.Mem)
	}
}

// fold folds one input batch. With one stripe the batch is accumulated as
// it arrives; striped, it is staged (copied: the child reuses its batch) and
// the window is folded once it holds stripes × aggStripeRows rows.
func (h *HashAggregate) fold(b *vector.Batch) {
	if h.win == nil {
		h.tables[0].accumulate(b, nil, nil)
		h.ctx.Mem.settle(&h.tables[0].memBytes, h.tables[0].bytes())
		return
	}
	h.win.AppendBatch(b)
	bytes := b.Bytes() + 8*int64(b.Len()) // the rows and their key hashes
	h.ctx.Mem.Grow(bytes)
	h.winBytes += bytes
	if h.win.Len() >= len(h.tables)*aggStripeRows {
		h.foldWindow()
	}
}

// foldWindow hashes the staged window once and folds it with one task per
// stripe, each into its own table, then releases the window. It returns
// only after every task has finished, so the tables are never touched
// between two calls of Next.
func (h *HashAggregate) foldWindow() {
	if h.win == nil || h.win.Len() == 0 {
		return
	}
	h.winHashes = vector.HashKeys(h.win, h.keyIdx, h.winHashes)
	n := len(h.tables)
	h.Sched.stripes(n, func(w int) {
		t := h.tables[w]
		t.foldStripe(h.win, h.winHashes, h.winBase, w, n)
		h.ctx.Mem.settle(&t.memBytes, t.bytes()) // the tracker is mutex-protected
	})
	h.winBase += int64(h.win.Len())
	h.win.Reset()
	h.ctx.Mem.Shrink(h.winBytes)
	h.winBytes = 0
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
		b, err := h.Child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			h.done = true
			h.foldWindow()
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
		h.fold(b)
	}
}

// Close implements Operator.
func (h *HashAggregate) Close() error {
	for _, t := range h.tables {
		h.ctx.Mem.Shrink(t.memBytes)
		t.memBytes = 0
	}
	if h.winBytes > 0 {
		h.ctx.Mem.Shrink(h.winBytes)
		h.winBytes = 0
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
	mem      *MemTracker
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
	memBytes int64 // the open group's COUNT(DISTINCT) sets, charged to mem
}

// Schema implements Operator.
func (s *StreamAggregate) Schema() expr.Schema { return s.schema }

// Open implements Operator.
func (s *StreamAggregate) Open(ctx *Context) error {
	s.mem = ctx.Mem
	if err := s.Child.Open(ctx); err != nil {
		return err
	}
	var keySchema expr.Schema
	var err error
	s.keyIdx, keySchema, s.schema, err = bindAggs("stream aggregate", s.Child.Schema(), s.GroupBy, s.Aggs)
	if err != nil {
		return err
	}
	s.keyRow = NewBuffer(keySchema)
	s.eq = newKeyEq(len(s.keyIdx))
	s.keyBatch.Cols = make([]*vector.Vector, len(s.keyIdx))
	s.states = make([]aggState, len(s.Aggs))
	s.argVecs = make([]*vector.Vector, len(s.Aggs))
	s.out = vector.NewBatch(s.schema.Kinds())
	return nil
}

// emitGroup appends the open group to the output batch and closes it,
// releasing its COUNT(DISTINCT) sets.
func (s *StreamAggregate) emitGroup() {
	if s.memBytes > 0 {
		s.mem.Shrink(s.memBytes)
		s.memBytes = 0
	}
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
				if d := s.states[i].update(a.Func, s.argVecs[i], s.row); d > 0 {
					s.mem.Grow(d)
					s.memBytes += d
				}
			}
		}
		s.cur = nil
	}
}

// Close implements Operator.
func (s *StreamAggregate) Close() error {
	s.mem.Shrink(s.memBytes)
	s.memBytes = 0
	return s.Child.Close()
}
