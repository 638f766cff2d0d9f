package engine

import (
	"fmt"
	"math/bits"

	"bdcc/internal/expr"
	"bdcc/internal/vector"
)

// JoinType selects the join semantics of HashJoin and SandwichHashJoin.
type JoinType uint8

const (
	// InnerJoin emits every matching left/right combination.
	InnerJoin JoinType = iota
	// LeftOuterJoin emits all left rows; unmatched rows carry zero values
	// in the right columns and 0 in the appended __matched column.
	LeftOuterJoin
	// SemiJoin emits left rows with at least one match (left columns only).
	SemiJoin
	// AntiJoin emits left rows with no match (left columns only).
	AntiJoin
)

// MatchedColName is the indicator column appended by left outer joins; the
// engine has no NULLs, so COUNT over an outer join tests this column instead
// (the planner rewrites COUNT(right.col) accordingly).
const MatchedColName = "__matched"

// joinProbe is the engine's one hash-join kernel: every join operator —
// HashJoin, SandwichHashJoin, Fragment.Run — builds through insertBatch and
// index and probes through begin/fill, so row order, residual evaluation and
// the BatchSize cut are the same code whoever runs the join. It holds a
// prepared Fragment's frozen join configuration, its build side (buf,
// table), its own clone of the residual, its scratch and its cursor, so one
// joinProbe serves one goroutine: the one that drives its operator's Next,
// or the one running a Fragment.Run. Callers differ only in who owns the
// output batch and when it is flushed: fill appends to whatever batch it is
// handed.
//
// Per-row work is typed straight-line code and the rest happens once per
// batch: index and begin hash the key columns of a build segment or probe
// batch and resolve every row against the table in one loop picked by the
// key shape; fill then works in windows — as many (probe row, build row) candidate pairs as the output
// batch has room for, the residual evaluated once over the window's gathered
// pairs, the surviving pairs emitted by join type with one column gather per
// column. After a first batch has sized the scratch, probing allocates nothing.
type joinProbe struct {
	typ                JoinType
	probeIdx, buildIdx []int
	residual           expr.Expr // this kernel's clone of the fragment's bound residual; nil for none
	outKinds           []vector.Kind

	buf   *Buffer
	table *joinTable

	hashes   []uint64      // key hashes of the build segment or probe batch last hashed
	eq       keyEq         // that segment's or batch's rows against build rows
	view     *vector.Batch // the build segment being indexed
	heads    []int32       // per row of in: the head of its key's chain, -1 for none
	hits     []bool        // per row of in: a candidate passed the residual (outer, semi, anti)
	combined *vector.Batch // the window's pairs as probe+build rows: the residual's input

	// The window: pairs (pairP[i], pairB[i]) of probe row and build row, in
	// emission order; a build row of -1 is an outer miss. Without a residual
	// gather writes what is emitted; with one it writes candidates and filter
	// rewrites the window (through nextP, nextB where it cannot do so in
	// place) into what is emitted.
	pairP, pairB, nextP, nextB []int32

	// Probe cursor: the next window starts at row `row` of in; while looked
	// is set, matches[matchPos:] is what is left of that row's chain.
	in       *vector.Batch
	row      int
	looked   bool
	matches  []int32
	matchPos int

	out *vector.Batch // emitAll's batch, lent to its emit and refilled
}

// newProbe returns a kernel over the prepared join fragment's configuration
// and the given build side.
func (f *Fragment) newProbe(buf *Buffer, table *joinTable) *joinProbe {
	p := &joinProbe{
		typ: f.Type, probeIdx: f.probeIdx, buildIdx: f.buildIdx, residual: expr.Clone(f.Residual),
		outKinds: f.out.Kinds(), buf: buf, table: table,
		eq: newKeyEq(len(f.probeIdx), buf, f.buildIdx), view: &vector.Batch{Cols: make([]*vector.Vector, len(f.Build))},
	}
	if f.Residual != nil {
		p.combined = vector.NewBatch(append(f.Probe.Kinds(), f.Build.Kinds()...))
	}
	return p
}

// insertBatch copies b's rows into the build side: the drain, a build's
// first phase. A build is drained completely before it is indexed.
func (p *joinProbe) insertBatch(b *vector.Batch) { p.buf.AppendBatch(b) }

// index sizes the chain array for the drained rows and the slot arrays for
// their keys once, then inserts them. An indexed build side is left as it
// is; begin calls index too.
func (p *joinProbe) index() {
	if p.table.Len() == p.buf.Len() {
		return
	}
	p.table.GrowChains(p.buf.Len())
	p.presize()
	p.insert()
}

// insert inserts the drained rows into the sized table, segment by segment.
func (p *joinProbe) insert() {
	for s := range p.buf.segments() {
		p.buf.segment(s, p.view)
		p.hashes = vector.HashKeys(p.view, p.buildIdx, p.hashes)
		bindKeyCols(p.eq.sought, p.view.Cols, p.buildIdx)
		p.table.insertRows(p.hashes, int32(s<<segShift), &p.eq)
	}
}

// presize sizes the slots for the distinct keys keyFloor proves the drained
// rows hold. That is never more keys than the insert adds, so the slot count
// it ends at is the one doubling from oaMinSlots would reach, with the
// doubling's copies gone. Rows that fit the slots (a sandwich join's group
// after a larger one, or a build of a few rows) are not counted.
func (p *joinProbe) presize() {
	if p.buf.Len()*10 > max(len(p.table.slots.vals), oaMinSlots)*7 {
		p.table.slots.presize(p.keyFloor())
	}
}

// keyFloor returns a lower bound of the distinct keys of the drained rows:
// the bits set in a linear-counting bitmap (Whang, Vander-Zanden and Taylor,
// TODS 1990). Every row's key hash sets bit h mod m of m ≥ 8·rows bits;
// equal keys set one bit, so the bits set never exceed the distinct keys; at
// m ≥ 8 bits per row the collisions among d keys, about d²/2m, leave them on
// average at most a sixteenth short.
func (p *joinProbe) keyFloor() int {
	m := 64
	for m < 8*p.buf.Len() {
		m <<= 1
	}
	set := make([]uint64, m/64)
	for s := range p.buf.segments() {
		p.buf.segment(s, p.view)
		p.hashes = vector.HashKeys(p.view, p.buildIdx, p.hashes)
		for _, h := range p.hashes {
			bit := h & uint64(m-1)
			set[bit/64] |= 1 << (bit % 64)
		}
	}
	keys := 0
	for _, w := range set {
		keys += bits.OnesCount64(w)
	}
	return keys
}

// begin positions the cursor at the first row of probe batch in, which must
// stay valid until fill reports it done, and resolves every row of in to its
// chain head.
func (p *joinProbe) begin(in *vector.Batch) {
	p.index()
	p.in, p.row, p.looked = in, 0, false
	p.hashes = vector.HashKeys(in, p.probeIdx, p.hashes)
	bindKeyCols(p.eq.sought, in.Cols, p.probeIdx)
	p.heads = sized(p.heads, in.Len())
	p.table.lookupRows(p.hashes, &p.eq, p.heads)
	if p.residual != nil && p.typ != InnerJoin {
		p.hits = sized(p.hits, in.Len())
		clear(p.hits)
	}
}

// fill appends join output for the batch given to begin to out and reports
// whether that batch is exhausted. It stops early, reporting false, only when
// out holds BatchSize rows — no window is larger than the room out has left,
// for every join type, so out never exceeds BatchSize — and the next call
// resumes exactly there, inside a probe row's match list if need be.
func (p *joinProbe) fill(out *vector.Batch) bool {
	for n := p.in.Len(); p.row < n; {
		room := vector.BatchSize - out.Len()
		if room <= 0 {
			return false
		}
		first := p.row
		p.gather(room)
		if p.residual != nil {
			p.filter(first)
		}
		p.emit(out)
	}
	return true
}

// gather advances the cursor, collecting the next window in probe-row order
// and, within a probe row, build insertion order. Every window is bounded by
// the rows it can put out: an inner or outer window holds at most room pairs
// (an outer probe row without candidates counts as one); a semi or anti
// window completes at most room probe rows and, with a residual, holds at
// most BatchSize candidates. A chain that does not fit is continued by the
// next window.
func (p *joinProbe) gather(room int) {
	p.pairP, p.pairB = p.pairP[:0], p.pairB[:0]
	n := len(p.heads)
	existence := p.typ == SemiJoin || p.typ == AntiJoin
	if existence && p.residual == nil {
		for want := p.typ == SemiJoin; p.row < n && len(p.pairP) < room; p.row++ {
			if (p.heads[p.row] >= 0) == want {
				p.pairP = append(p.pairP, int32(p.row))
			}
		}
		return
	}
	pairs, rows := room, n
	if existence {
		pairs, rows = vector.BatchSize, room
	}
	outer := p.typ == LeftOuterJoin
	for p.row < n && pairs > 0 && rows > 0 {
		row := int32(p.row)
		if !p.looked {
			head := p.heads[row]
			if head < 0 || p.table.next[head] < 0 { // no candidate, or one
				// An outer probe row without candidates is a miss and takes a
				// row of room: the pair (row, -1) right away without a
				// residual, one of filter's misses with one.
				if head >= 0 || (outer && p.residual == nil) {
					p.pairP, p.pairB = append(p.pairP, row), append(p.pairB, head)
				}
				if head >= 0 || outer {
					pairs--
				}
				p.row++
				rows--
				continue
			}
			p.matches = p.table.Matches(head, p.matches[:0])
			p.matchPos, p.looked = 0, true
		}
		k := min(pairs, len(p.matches)-p.matchPos)
		p.pairB = append(p.pairB, p.matches[p.matchPos:p.matchPos+k]...)
		for i := 0; i < k; i++ {
			p.pairP = append(p.pairP, row)
		}
		pairs -= k
		if p.matchPos += k; p.matchPos == len(p.matches) {
			p.looked = false
			p.row++
			rows--
		}
	}
}

// filter evaluates the residual over the window's candidates — the one place
// a join residual is evaluated — and rewrites the window into what the join
// type emits: the surviving pairs, plus a miss for every outer probe row the
// window completed (rows first up to the cursor) without a survivor in this
// or an earlier window; or the semi (anti) probe rows completed with
// (without) one.
func (p *joinProbe) filter(first int) {
	var sel []int32
	if len(p.pairP) > 0 {
		p.combined.Reset()
		np := len(p.in.Cols)
		for c, col := range p.in.Cols {
			p.combined.Cols[c].AppendSelected(col, p.pairP)
		}
		p.buf.Gather(p.combined.Cols[np:], p.pairB)
		sel = expr.Select(p.residual, p.combined, nil)
	}
	if p.typ == InnerJoin {
		for i, s := range sel {
			p.pairP[i], p.pairB[i] = p.pairP[s], p.pairB[s]
		}
		p.pairP, p.pairB = p.pairP[:len(sel)], p.pairB[:len(sel)]
		return
	}
	for _, s := range sel {
		p.hits[p.pairP[s]] = true
	}
	p.nextP, p.nextB = p.nextP[:0], p.nextB[:0]
	if p.typ == LeftOuterJoin {
		// Rows before the cursor are complete; the cursor's own row has pairs
		// in the window while its chain is being continued.
		for r, i := first, 0; r <= p.row && r < len(p.heads); r++ {
			for ; i < len(p.pairP) && int(p.pairP[i]) == r; i++ {
				if len(sel) > 0 && int(sel[0]) == i {
					p.nextP, p.nextB = append(p.nextP, int32(r)), append(p.nextB, p.pairB[i])
					sel = sel[1:]
				}
			}
			if r < p.row && !p.hits[r] {
				p.nextP, p.nextB = append(p.nextP, int32(r)), append(p.nextB, -1)
			}
		}
	} else {
		for r, want := first, p.typ == SemiJoin; r < p.row; r++ {
			if p.hits[r] == want {
				p.nextP = append(p.nextP, int32(r))
			}
		}
	}
	p.pairP, p.nextP = p.nextP, p.pairP
	p.pairB, p.nextB = p.nextB, p.pairB
}

// emit appends the window to out, one gather per column.
func (p *joinProbe) emit(out *vector.Batch) {
	if len(p.pairP) == 0 {
		return
	}
	for c, col := range p.in.Cols {
		out.Cols[c].AppendSelected(col, p.pairP)
	}
	if p.typ == InnerJoin || p.typ == LeftOuterJoin {
		p.buf.Gather(out.Cols[len(p.in.Cols):], p.pairB) // an outer miss gathers zero values
	}
	if p.typ == LeftOuterJoin {
		matched := out.Cols[len(out.Cols)-1]
		for _, b := range p.pairB {
			matched.AppendInt64(int64(min(b+1, 1))) // 0 for an outer miss, b = -1
		}
	}
}

// emitAll probes in completely into batches that inherit in's group tags,
// cutting at BatchSize and at the end of in. It fills one batch of its own
// over and over: emit borrows each until it returns, and a caller that keeps
// what it receives clones it.
func (p *joinProbe) emitAll(in *vector.Batch, emit func(*vector.Batch)) {
	if p.out == nil {
		p.out = vector.NewBatch(p.outKinds)
	}
	p.begin(in)
	for done := false; !done; {
		p.out.Reset()
		p.out.Grouped, p.out.GroupID = in.Grouped, in.GroupID
		done = p.fill(p.out)
		if p.out.Len() > 0 {
			emit(p.out)
		}
	}
}

// HashJoin joins its probe (Left) and build (Right) children on key
// equality. The entire build side is materialized into a hash table — the
// memory behaviour the paper's Figure 3 measures and that the sandwich
// variant avoids. An optional Residual predicate over the combined row
// filters matches (used for decorrelated EXISTS subqueries with extra
// conditions, e.g. TPC-H Q21).
//
// The operator builds and probes on the goroutine that drives its Next, at
// every worker count; a parallel child (a morsel scan) hands it its batches
// in input order. It owns one output batch and lets the join kernel fill it
// across probe batches, returning it when it reaches BatchSize, when the
// probe stream's group tag changes (output stays group-pure), or at end of
// input.
type HashJoin struct {
	Left, Right         Operator
	LeftKeys, RightKeys []string
	Type                JoinType
	Residual            expr.Expr

	schema   expr.Schema
	ctx      *Context
	frag     *Fragment // the join's prepared configuration
	memBytes int64     // bytes charged to ctx.Mem for the build side and its table

	// The kernel over the build side, set once it is built, the reused
	// output batch, and the probe batch the kernel is positioned in (nil:
	// fetch the next one).
	probe *joinProbe
	out   *vector.Batch
	cur   *vector.Batch
}

// Schema implements Operator.
func (j *HashJoin) Schema() expr.Schema { return j.schema }

// Open implements Operator.
func (j *HashJoin) Open(ctx *Context) error {
	j.ctx = ctx
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	if err := j.Right.Open(ctx); err != nil {
		return err
	}
	j.frag = &Fragment{
		Probe: j.Left.Schema(), Build: j.Right.Schema(),
		ProbeKeys: j.LeftKeys, BuildKeys: j.RightKeys,
		Type: j.Type, Residual: j.Residual,
	}
	if err := j.frag.Prepare(); err != nil {
		return err
	}
	j.schema = j.frag.OutSchema()
	j.out = vector.NewBatch(j.schema.Kinds())
	return nil
}

func keyIndexes(s expr.Schema, names []string) ([]int, error) {
	idx := make([]int, len(names))
	for i, n := range names {
		k := s.IndexOf(n)
		if k < 0 {
			return nil, fmt.Errorf("unknown key column %q in schema %v", n, s.Names())
		}
		idx[i] = k
	}
	return idx, nil
}

// build drains the right child into the build side and indexes it. The
// charged footprint is exact: the buffered rows plus the table's flat slot
// and chain arrays.
func (j *HashJoin) build() error {
	p := j.frag.newProbe(NewBuffer(j.Right.Schema()), newJoinTable(j.frag.keyed))
	for {
		b, err := j.Right.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		p.insertBatch(b)
		j.ctx.Mem.settle(&j.memBytes, p.buf.Bytes())
	}
	p.index()
	j.ctx.Mem.settle(&j.memBytes, p.buf.Bytes()+p.table.Bytes())
	j.probe = p
	return nil
}

// Next implements Operator.
func (j *HashJoin) Next() (*vector.Batch, error) {
	if j.probe == nil {
		if err := j.build(); err != nil {
			return nil, err
		}
	}
	j.out.Reset()
	if j.cur != nil {
		j.out.Grouped, j.out.GroupID = j.cur.Grouped, j.cur.GroupID
	}
	for {
		if j.cur == nil {
			b, err := j.Left.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				if j.out.Len() > 0 {
					return j.out, nil
				}
				return nil, nil
			}
			if b.Len() == 0 {
				continue
			}
			j.cur = b
			j.probe.begin(b)
			// Group boundary: flush so output batches stay group-pure.
			if j.out.Len() > 0 && (b.Grouped != j.out.Grouped || b.GroupID != j.out.GroupID) {
				return j.out, nil
			}
			j.out.Grouped, j.out.GroupID = b.Grouped, b.GroupID
		}
		if j.probe.fill(j.out) {
			j.cur = nil
		}
		if err := expr.Err(j.probe.residual); err != nil {
			return nil, err
		}
		if j.out.Len() >= vector.BatchSize {
			return j.out, nil
		}
	}
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.ctx.Mem.Shrink(j.memBytes)
	j.memBytes = 0
	j.probe = nil
	err1 := j.Left.Close()
	err2 := j.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
