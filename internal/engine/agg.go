package engine

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"

	"bdcc/internal/expr"
	"bdcc/internal/vector"
)

// AggFunc enumerates aggregate functions.
type AggFunc uint8

const (
	// AggSum sums the argument, an Int64 one exactly (an error past int64).
	AggSum AggFunc = iota
	// AggMin tracks the minimum argument.
	AggMin
	// AggMax tracks the maximum argument.
	AggMax
	// AggCount counts rows (Arg nil) or non-default indicator semantics are
	// handled by the planner via CASE expressions.
	AggCount
	// AggCountDistinct counts distinct argument values. It is a logical
	// aggregate: the planner lowers it into two groupings, and the
	// aggregation operators reject it.
	AggCountDistinct
	// AggAvg computes the mean of the argument as float64, dividing once.
	AggAvg
)

// AggSpec is one aggregate of an aggregation operator.
type AggSpec struct {
	Name string
	Func AggFunc
	// Arg is the aggregated expression; nil is permitted for AggCount.
	Arg expr.Expr
}

// result returns the aggregate's output column: a SUM, MIN or MAX has its
// argument's kind and scale.
func (a AggSpec) result() expr.ColMeta {
	switch a.Func {
	case AggCount:
		return expr.ColMeta{Name: a.Name, Kind: vector.Int64}
	case AggAvg:
		return expr.ColMeta{Name: a.Name, Kind: vector.Float64}
	default:
		return expr.ColMeta{Name: a.Name, Kind: a.Arg.Kind(), Scale: expr.Scale(a.Arg)}
	}
}

// aggState is the running state of one aggregate in one group (i64 an Int64
// argument's, f64 a Float64 one's).
type aggState struct {
	i64   int64
	f64   float64
	str   string
	count int64
}

// aggStateBytes is the in-memory size of one aggState (three 8-byte fields
// plus the 16-byte string header), charged to the memory tracker per
// (group, aggregate) pair.
const aggStateBytes = 40

// update folds row r of the aggregate's evaluated argument vector (nil for
// COUNT(*)) into the state, returning add's overflow word (else 0).
func (st *aggState) update(f AggFunc, arg *vector.Vector, r int) int64 {
	switch f {
	case AggCount:
		st.count++
	case AggSum, AggAvg:
		st.count++
		if arg.Kind == vector.Int64 {
			return st.add(arg.I64[r])
		}
		st.f64 += arg.F64[r]
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

// add adds x to the exact sum and returns a word that is negative where the
// sum left int64, for a loop to OR its rows' words and test the sign once.
func (st *aggState) add(x int64) int64 {
	s := st.i64 + x
	ovf := (s ^ st.i64) & (s ^ x)
	st.i64 = s
	return ovf
}

// errSum is the error of an aggregate whose exact sum left int64.
func errSum(a AggSpec) error {
	return fmt.Errorf("engine: aggregate %s: the sum of %s overflows int64", a.Name, a.Arg)
}

// keepMinMax replaces *cur by x when x is a group's first value or beats
// *cur: is smaller for MIN, larger for MAX.
func keepMinMax[T cmp.Ordered](cur *T, x T, first, isMin bool) {
	if first || (isMin && x < *cur) || (!isMin && x > *cur) {
		*cur = x
	}
}

// render appends the result of aggregate a to its output column.
func (st *aggState) render(a AggSpec, col *vector.Vector) {
	switch a.Func {
	case AggCount:
		col.AppendInt64(st.count)
	case AggAvg:
		switch {
		case st.count == 0:
			col.AppendFloat64(0)
		case a.Arg.Kind() == vector.Int64:
			col.AppendFloat64(float64(st.i64) / (float64(st.count) * math.Pow10(int(expr.Scale(a.Arg)))))
		default:
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
// the segmented state array, the materialized group keys, and per-batch
// scratch. A batch is folded in two passes: find-or-insert resolves every
// row to its group id in one loop picked by the key shape, then each
// aggregate runs one typed loop over (group ids, argument values).
// The states live in segments of BatchSize groups, addressed like a
// Buffer's rows, and copied only while their segment grows (addState): at
// any group count they hold at most the states one flat array grown by
// appends would. states are charged by capacity — the geometry
// TestHashTableFootprintPinned pins.
type aggTable struct {
	aggs     []AggSpec
	keyIdx   []int
	table    oaTable      // key -> group id
	eq       keyEq        // batch rows against keyBuf rows
	states   [][]aggState // group g's states: segment g>>segShift, from (g&segMask)*len(aggs)
	stateCap int          // the capacity of one flat state array after the same appends
	keyBuf   *Buffer      // one row per group, in first-seen (emission) order
	memBytes int64        // bytes charged to the memory tracker
	hashes   []uint64     // per batch: each row's key hash
	gids     []int32      // per batch: each row's group id
	err      error        // the first overflow a fold met, failing the query
	rows     int64        // rows accumulated, and the bit length of the largest
	maxBits  int          // Int64 SUM or AVG magnitude: they bound every sum (fold)
}

func newAggTable(aggs []AggSpec, keyIdx []int, keySchema expr.Schema) *aggTable {
	t := &aggTable{aggs: aggs, keyIdx: keyIdx, keyBuf: NewBuffer(keySchema)}
	t.eq = newKeyEq(len(keyIdx), t.keyBuf, nil)
	t.table.keyed = keyedShape(keySchema.Kinds())
	return t
}

// accumulate folds one batch into the table: the key columns are hashed
// vector-at-a-time, every row resolves (or claims) its group id, and then
// each aggregate folds its evaluated argument into the groups' states in
// one loop whose (function, kind) dispatch sits outside it. Rows reach a
// group's state in input order whatever the loop structure, so float sums
// keep their bits.
func (t *aggTable) accumulate(b *vector.Batch) {
	hashes := vector.HashKeys(b, t.keyIdx, t.hashes)
	t.hashes = hashes
	t.gids, t.rows = sized(t.gids, len(hashes)), t.rows+int64(len(hashes))
	bindKeyCols(t.eq.sought, b.Cols, t.keyIdx)
	if t.table.keyed {
		for r, key := range t.eq.sought[0].I64 {
			t.table.Reserve()
			slot, found := t.table.FindKey(hashes[r], key)
			if !found {
				t.table.Insert(slot, uint64(key), t.newGroup(b, r))
			}
			t.gids[r] = t.table.vals[slot]
		}
	} else {
		for r, h := range hashes {
			t.table.Reserve()
			slot, found := t.table.FindSlot(h, &t.eq, r)
			if !found {
				t.table.Insert(slot, h, t.newGroup(b, r))
			}
			t.gids[r] = t.table.vals[slot]
		}
	}
	for i, a := range t.aggs {
		var arg *vector.Vector
		if a.Arg != nil {
			arg = expr.Values(a.Arg, b)
			t.err = cmp.Or(t.err, expr.Err(a.Arg))
		}
		t.fold(i, a.Func, arg)
	}
}

// newGroup opens a group for row r of the batch b being accumulated and
// returns its id.
func (t *aggTable) newGroup(b *vector.Batch, r int) int32 {
	t.keyBuf.appendRows(b.Cols, t.keyIdx, r, r+1)
	g := t.keyBuf.Len() - 1
	if g>>segShift == len(t.states) {
		t.states = append(t.states, nil)
	}
	for range t.aggs {
		t.addState(g >> segShift)
	}
	return int32(g)
}

// addState appends a zeroed state to segment s. A full segment is
// reallocated for at most its part of stateCap, the capacity that one flat
// []aggState would have after the same appends, so the segments never hold
// more than it. Below 32 KiB the runtime rounds that capacity to its size
// classes, so append grows the first segment itself and reports it; above,
// stateCap follows append's rule for large slices, a quarter plus 192
// more rounded up to whole 8 KiB pages (TestAggStatesNeverExceedFlat
// checks it against append).
func (t *aggTable) addState(s int) {
	seg := t.states[s]
	if at := s*vector.BatchSize*len(t.aggs) + len(seg); len(seg) == cap(seg) {
		if at == t.stateCap {
			c := t.stateCap + (t.stateCap+3*256)/4
			if t.stateCap < 256 || c*aggStateBytes <= 32<<10-8 {
				t.states[s] = append(seg, aggState{})
				t.stateCap = cap(t.states[s])
				return
			}
			t.stateCap = ((c*aggStateBytes + 8<<10 - 1) &^ (8<<10 - 1)) / aggStateBytes
		}
		seg = append(make([]aggState, 0, min(vector.BatchSize*len(t.aggs), t.stateCap-at+len(seg))), seg...)
	}
	t.states[s] = append(seg, aggState{})
}

// state returns group g's state of aggregate i.
func (t *aggTable) state(g int32, i int) *aggState {
	return &t.states[g>>segShift][int(g&segMask)*len(t.aggs)+i]
}

// fold folds the batch's values of aggregate i (nil for COUNT(*)) into the
// states of the groups in t.gids, row by row in input order.
func (t *aggTable) fold(i int, f AggFunc, arg *vector.Vector) {
	switch {
	case f == AggCount:
		for _, g := range t.gids {
			t.state(g, i).count++
		}
	case f == AggMin || f == AggMax:
		t.foldMinMax(i, arg, f == AggMin)
	case arg.Kind == vector.Int64: // SUM, AVG: exact, an overflow fails the query
		// Rows add unchecked while the rows so far and the largest magnitude
		// (of v, v^v>>63 is |v| or |v|−1) bound every sum below 2^62; past
		// that, the batch is subtracted again (wrapping undoes it exactly)
		// and re-added checked.
		var m uint64
		states, n, v := t.states, len(t.aggs), arg.I64[:len(t.gids)]
		for r, g := range t.gids {
			st := &states[g>>segShift][int(g&segMask)*n+i]
			st.i64 += v[r]
			st.count++
			m |= uint64(v[r] ^ v[r]>>63)
		}
		if t.maxBits = max(t.maxBits, bits.Len64(m)); t.maxBits+bits.Len64(uint64(t.rows)) <= 62 {
			return
		}
		var ovf int64
		for r, g := range t.gids {
			t.state(g, i).i64 -= v[r]
		}
		for r, g := range t.gids {
			ovf |= t.state(g, i).add(v[r])
		}
		if ovf < 0 && t.err == nil {
			t.err = errSum(t.aggs[i])
		}
	case arg.Kind == vector.Float64:
		for r, g := range t.gids {
			st := t.state(g, i)
			st.f64 += arg.F64[r]
			st.count++
		}
	}
}

// foldMinMax is fold for MIN and MAX: one loop per argument kind.
func (t *aggTable) foldMinMax(i int, arg *vector.Vector, isMin bool) {
	switch arg.Kind {
	case vector.Int64:
		for r, g := range t.gids {
			st := t.state(g, i)
			keepMinMax(&st.i64, arg.I64[r], st.count == 0, isMin)
			st.count++
		}
	case vector.Float64:
		for r, g := range t.gids {
			st := t.state(g, i)
			keepMinMax(&st.f64, arg.F64[r], st.count == 0, isMin)
			st.count++
		}
	case vector.String:
		for r, g := range t.gids {
			st := t.state(g, i)
			keepMinMax(&st.str, arg.Str[r], st.count == 0, isMin)
			st.count++
		}
	}
}

// bytes returns the exact footprint of the table's flat allocations.
func (t *aggTable) bytes() int64 {
	n := t.keyBuf.Bytes() + t.table.Bytes()
	for _, seg := range t.states {
		n += int64(cap(seg)) * aggStateBytes
	}
	return n
}

// release returns the charged bytes to the tracker and clears the table,
// keeping capacity: the state segments are truncated, and a group opened
// later appends zeroed states to them.
func (t *aggTable) release(mem *MemTracker) {
	mem.Shrink(t.memBytes)
	t.memBytes = 0
	t.table.Reset()
	for s := range t.states {
		t.states[s] = t.states[s][:0]
	}
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
		if a.Func == AggCountDistinct {
			return nil, nil, nil, fmt.Errorf("engine: %s %s: COUNT(DISTINCT) is lowered by the planner into two groupings", op, a.Name)
		}
		if a.Arg != nil {
			if err := expr.Bind(a.Arg, cs); err != nil {
				return nil, nil, nil, errOp(fmt.Sprintf("%s %s", op, a.Name), err)
			}
		} else if a.Func != AggCount {
			return nil, nil, nil, fmt.Errorf("engine: %s %s requires an argument", op, a.Name)
		}
		out = append(out, a.result())
	}
	return keyIdx, keySchema, out, nil
}

// HashAggregate groups its input by the GroupBy columns and computes the
// aggregates, folding every batch as it arrives into one aggTable on the
// goroutine that drives Next, whatever the query's worker count: parallel
// children (a morsel scan, a join over one) merge their output in input order
// before it, so groups are emitted in first-seen order and float sums keep
// the serial run's bits. With FlushOnGroup set the operator becomes the
// sandwich aggregation of the paper's reference [3]: the input stream must
// be grouped (tagged batches from a scatter scan or a group-preserving
// pipeline), and because the grouping key functionally determines the
// stream's group identifier, the hash table can be emitted and cleared at
// every group boundary — peak memory is one co-clustering group instead of
// the whole input (the paper's Q13/Q16/Q18 memory effect).
type HashAggregate struct {
	Child        Operator
	GroupBy      []string
	Aggs         []AggSpec
	FlushOnGroup bool

	schema  expr.Schema
	ctx     *Context
	table   *aggTable
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
	keyIdx, keySchema, schema, err := bindAggs("aggregate", h.Child.Schema(), h.GroupBy, h.Aggs)
	if err != nil {
		return err
	}
	h.schema, h.table = schema, newAggTable(h.Aggs, keyIdx, keySchema)
	return nil
}

// emitBatch renders groups [lo, hi) (at most BatchSize) into one pending
// batch, column by column: the key columns are one gather, each aggregate
// one loop over the groups' states. Flushed batches of a FlushOnGroup
// aggregation keep the group tag, so a sandwich aggregation's output
// remains a group stream and enclosing sandwich operators can align on it.
func (h *HashAggregate) emitBatch(lo, hi int) {
	nk := len(h.table.keyIdx)
	out := vector.NewBatch(h.schema.Kinds())
	h.sel = h.sel[:0]
	for g := lo; g < hi; g++ {
		h.sel = append(h.sel, int32(g))
	}
	if nk > 0 {
		h.table.keyBuf.Gather(out.Cols, h.sel)
	}
	for i, a := range h.Aggs {
		for _, g := range h.sel {
			h.table.state(g, i).render(a, out.Cols[nk+i])
		}
	}
	if h.FlushOnGroup && h.haveGID {
		out.Grouped, out.GroupID = true, h.curGID
	}
	h.pending = append(h.pending, out)
}

// flush converts the table into pending output batches, BatchSize groups
// a batch in first-seen order, and clears it.
func (h *HashAggregate) flush() {
	for lo, n := 0, h.table.keyBuf.Len(); lo < n; lo += vector.BatchSize {
		h.emitBatch(lo, min(lo+vector.BatchSize, n))
	}
	h.table.release(h.ctx.Mem)
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
		h.table.accumulate(b)
		h.ctx.Mem.settle(&h.table.memBytes, h.table.bytes())
		if h.table.err != nil {
			return nil, h.table.err
		}
	}
}

// Close implements Operator.
func (h *HashAggregate) Close() error {
	if h.table != nil {
		h.ctx.Mem.Shrink(h.table.memBytes)
		h.table.memBytes = 0
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

	schema  expr.Schema
	keyIdx  []int
	keyRow  *Buffer // the open group's key, row 0 while haveKey
	eq      keyEq   // cur's rows against keyRow's row
	haveKey bool
	states  []aggState
	argVecs []*vector.Vector
	out     *vector.Batch
	cur     *vector.Batch // child batch being consumed; rows [row, Len) pending
	row     int
	done    bool
}

// Schema implements Operator.
func (s *StreamAggregate) Schema() expr.Schema { return s.schema }

// Open implements Operator.
func (s *StreamAggregate) Open(ctx *Context) error {
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
	s.eq = newKeyEq(len(s.keyIdx), s.keyRow, nil)
	s.states = make([]aggState, len(s.Aggs))
	s.argVecs = make([]*vector.Vector, len(s.Aggs))
	s.out = vector.NewBatch(s.schema.Kinds())
	return nil
}

// emitGroup appends the open group to the output batch and closes it.
func (s *StreamAggregate) emitGroup() {
	s.keyRow.Gather(s.out.Cols, []int32{0})
	for i, a := range s.Aggs {
		s.states[i].render(a, s.out.Cols[len(s.keyIdx)+i])
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
				if a.Arg == nil {
					continue
				}
				if s.argVecs[i] = expr.Values(a.Arg, b); expr.Err(a.Arg) != nil {
					return nil, expr.Err(a.Arg)
				}
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
				s.keyRow.appendRows(s.cur.Cols, s.keyIdx, s.row, s.row+1)
				s.haveKey = true
			}
			for i, a := range s.Aggs {
				if s.states[i].update(a.Func, s.argVecs[i], s.row) < 0 {
					return nil, errSum(a)
				}
			}
		}
		s.cur = nil
	}
}

// Close implements Operator.
func (s *StreamAggregate) Close() error {
	return s.Child.Close()
}
