package expr

import (
	"slices"

	"bdcc/internal/vector"
)

// scratch is the storage a bound node owns: grown on demand to the number of
// rows evaluated (a one-row join residual never touches a batch-sized
// vector), reused from batch to batch, and never shared — Clone starts a tree
// with empty scratch.
type scratch struct {
	vec vector.Vector // the node's result, dense over the evaluated rows
	aux vector.Vector // an operand gathered through the selection (align)
	ids []int32       // surviving row ids: Select's result, a filter's value form
	pos []int32       // surviving positions of a kernel that ran over dense operands
}

func (s *scratch) scr() *scratch { return s }

// grow returns s with length n, reallocating (amortised, as append does) only
// when the capacity is short; the contents are unspecified.
func grow[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// sized returns v as an n-value vector of kind k, contents unspecified.
func sized(v *vector.Vector, k vector.Kind, n int) *vector.Vector {
	v.Kind = k
	switch k {
	case vector.Int64:
		v.I64 = grow(v.I64, n)
	case vector.Float64:
		v.F64 = grow(v.F64, n)
	case vector.String:
		v.Str = grow(v.Str, n)
	}
	return v
}

// rows returns the number of rows an evaluation of b under sel covers.
func rows(b *vector.Batch, sel []int32) int {
	if sel != nil {
		return len(sel)
	}
	return b.Len()
}

func gatherInto[T any](dst, src []T, idx []int32) {
	for i, r := range idx {
		dst[i] = src[r]
	}
}

// gather copies the rows idx of v into dst, making the operand dense.
func gather(dst, v *vector.Vector, idx []int32) *vector.Vector {
	sized(dst, v.Kind, len(idx))
	switch v.Kind {
	case vector.Int64:
		gatherInto(dst.I64, v.I64, idx)
	case vector.Float64:
		gatherInto(dst.F64, v.F64, idx)
	case vector.String:
		gatherInto(dst.Str, v.Str, idx)
	}
	return dst
}

// dense returns the operand (v, idx) as a dense vector, gathering a column
// read through the selection into the node's aux.
func (s *scratch) dense(v *vector.Vector, idx []int32) *vector.Vector {
	if idx == nil {
		return v
	}
	return gather(&s.aux, v, idx)
}

// align gives two operands one indexing for a vector⊕vector kernel: both
// dense, or both columns read through the same selection. A column paired
// with a computed operand is gathered.
func (s *scratch) align(lv *vector.Vector, lidx []int32, rv *vector.Vector, ridx []int32) (*vector.Vector, *vector.Vector, []int32) {
	if (lidx == nil) == (ridx == nil) {
		return lv, rv, lidx
	}
	if lidx != nil {
		return gather(&s.aux, lv, lidx), rv, nil
	}
	return lv, gather(&s.aux, rv, ridx), nil
}

// Select evaluates the boolean expression e over the rows of b listed in sel
// (all rows when sel is nil) and returns the ids of the rows where it holds,
// in sel's order. The result is e's own storage, valid until e is evaluated
// again. This is the entry filters use, and the one an evaluator over encoded
// data would feed: kernels take a selection over typed slices.
func Select(e Expr, b *vector.Batch, sel []int32) []int32 {
	s := e.scr()
	s.ids = grow(s.ids, rows(b, sel))
	return filter(e, b, sel, s.ids)
}

// Values evaluates e over every row of b and returns the result, one value
// per row: the batch's own column when e is a bare column reference,
// otherwise e's own storage, valid until e is evaluated again. Callers must
// not modify it.
func Values(e Expr, b *vector.Batch) *vector.Vector {
	v, _ := e.eval(b, nil)
	return v
}

// appendValues is Expr.Eval: the nil-selection evaluation, copied out.
func appendValues(e Expr, b *vector.Batch, out *vector.Vector) {
	v := Values(e, b)
	switch v.Kind {
	case vector.Int64:
		out.I64 = append(out.I64, v.I64...)
	case vector.Float64:
		out.F64 = append(out.F64, v.F64...)
	case vector.String:
		out.Str = append(out.Str, v.Str...)
	}
}

// filterer is a boolean node that narrows a selection natively: it writes
// the ids of the rows of sel (all rows when nil) where it holds into out and
// returns that prefix. out holds at least rows(b, sel) slots and may be sel
// itself — every implementation reads a slot before it overwrites it.
type filterer interface {
	Expr
	filter(b *vector.Batch, sel, out []int32) []int32
}

// filter narrows sel by e, natively or from e's 0/1 values.
func filter(e Expr, b *vector.Batch, sel, out []int32) []int32 {
	if f, ok := e.(filterer); ok {
		return f.filter(b, sel, out)
	}
	v, idx := e.eval(b, sel)
	n := 0
	switch {
	case idx != nil: // a bare boolean column read through sel
		for _, r := range idx {
			out[n] = r
			if v.I64[r] != 0 {
				n++
			}
		}
	case sel != nil:
		for i, x := range v.I64 {
			out[n] = sel[i]
			if x != 0 {
				n++
			}
		}
	default:
		for i, x := range v.I64 {
			out[n] = int32(i)
			if x != 0 {
				n++
			}
		}
	}
	return out[:n]
}

// values is the 0/1 value form of a filterer: filter, then mark the
// survivors. ids is a subsequence of sel, so one merge pass finds each
// survivor's position.
func values(f filterer, b *vector.Batch, sel []int32) (*vector.Vector, []int32) {
	s := f.scr()
	n := rows(b, sel)
	s.ids = grow(s.ids, n)
	ids := f.filter(b, sel, s.ids)
	out := sized(&s.vec, vector.Int64, n).I64
	if sel == nil {
		clear(out)
		for _, r := range ids {
			out[r] = 1
		}
		return &s.vec, nil
	}
	j := 0
	for i, r := range sel {
		out[i] = 0
		if j < len(ids) && ids[j] == r {
			out[i] = 1
			j++
		}
	}
	return &s.vec, nil
}

// runFilter runs a filter kernel over aligned operands and returns the
// surviving row ids in out. Over dense operands a kernel emits positions;
// under a selection those map back to row ids through sel.
func (s *scratch) runFilter(kern filterKernel, lv, rv *vector.Vector, idx, sel, out []int32) []int32 {
	if sel == nil || idx != nil {
		return out[:kern(lv, rv, idx, out)]
	}
	s.pos = grow(s.pos, len(sel))
	n := kern(lv, rv, nil, s.pos)
	for i, p := range s.pos[:n] {
		out[i] = sel[p]
	}
	return out[:n]
}

func (c *Col) eval(b *vector.Batch, sel []int32) (*vector.Vector, []int32) {
	return b.Cols[c.Index], sel
}

// eval serves the paths with no constant-operand kernel (a CASE branch, a
// projected literal): the broadcast is written once, when the scratch grows,
// and afterwards only re-sliced to the rows asked for.
func (c *Const) eval(b *vector.Batch, sel []int32) (*vector.Vector, []int32) {
	n := rows(b, sel)
	v := &c.vec
	v.Kind = c.K
	switch c.K {
	case vector.Int64:
		v.I64 = broadcast(v.I64, c.I, n)
	case vector.Float64:
		v.F64 = broadcast(v.F64, c.F, n)
	case vector.String:
		v.Str = broadcast(v.Str, c.S, n)
	}
	return v, nil
}

// broadcast returns n copies of c in s, writing them only when s has to grow.
func broadcast[T any](s []T, c T, n int) []T {
	if cap(s) < n {
		s = grow(s, n)
		s = s[:cap(s)]
		for i := range s {
			s[i] = c
		}
	}
	return s[:n]
}

func (c *Cmp) eval(b *vector.Batch, sel []int32) (*vector.Vector, []int32) {
	return values(c, b, sel)
}

func (c *Cmp) filter(b *vector.Batch, sel, out []int32) []int32 {
	lv, idx := c.l.eval(b, sel)
	var rv *vector.Vector
	if !isConst(c.r) {
		var ridx []int32
		rv, ridx = c.r.eval(b, sel)
		lv, rv, idx = c.align(lv, idx, rv, ridx)
	}
	return c.runFilter(c.kern, lv, rv, idx, sel, out)
}

func (a *And) eval(b *vector.Batch, sel []int32) (*vector.Vector, []int32) {
	return values(a, b, sel)
}

// filter feeds each conjunct only the survivors of the ones before it,
// narrowing out in place.
func (a *And) filter(b *vector.Batch, sel, out []int32) []int32 {
	if len(a.Args) == 0 {
		if sel != nil {
			return out[:copy(out, sel)]
		}
		out = out[:b.Len()]
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	cur := sel
	for _, arg := range a.Args {
		if cur = filter(arg, b, cur, out); len(cur) == 0 {
			break // an empty selection must not reach a conjunct as "all rows"
		}
	}
	return cur
}

func (o *Or) eval(b *vector.Batch, sel []int32) (*vector.Vector, []int32) {
	out := sized(&o.vec, vector.Int64, rows(b, sel)).I64
	clear(out)
	for _, arg := range o.Args {
		for i, x := range o.dense(arg.eval(b, sel)).I64 {
			out[i] |= x
		}
	}
	return &o.vec, nil
}

func (n *Not) eval(b *vector.Batch, sel []int32) (*vector.Vector, []int32) {
	out := sized(&n.vec, vector.Int64, rows(b, sel)).I64
	for i, x := range n.dense(n.Arg.eval(b, sel)).I64 {
		out[i] = 1 - x
	}
	return &n.vec, nil
}

func (a *Arith) eval(b *vector.Batch, sel []int32) (*vector.Vector, []int32) {
	var lv, rv *vector.Vector
	var idx []int32
	switch {
	case isConst(a.r):
		lv, idx = a.l.eval(b, sel)
	case isConst(a.l):
		rv, idx = a.r.eval(b, sel)
	default:
		var ridx []int32
		lv, idx = a.l.eval(b, sel)
		rv, ridx = a.r.eval(b, sel)
		lv, rv, idx = a.align(lv, idx, rv, ridx)
	}
	out := sized(&a.vec, a.kind, rows(b, sel))
	a.kern(lv, rv, idx, out)
	return out, nil
}

func isConst(e Expr) bool {
	_, ok := e.(*Const)
	return ok
}

// toFloat promotes an Int64 operand of a Float64 arithmetic node. Arith's
// prepare inserts it, so it never appears in a caller's tree or on the wire.
type toFloat struct {
	arg Expr
	scratch
}

func (t *toFloat) Kind() vector.Kind                        { return vector.Float64 }
func (t *toFloat) String() string                           { return t.arg.String() }
func (t *toFloat) Eval(b *vector.Batch, out *vector.Vector) { appendValues(t, b, out) }

func (t *toFloat) eval(b *vector.Batch, sel []int32) (*vector.Vector, []int32) {
	v, idx := t.arg.eval(b, sel)
	out := sized(&t.vec, vector.Float64, rows(b, sel)).F64
	if idx != nil {
		for i, r := range idx {
			out[i] = float64(v.I64[r])
		}
	} else {
		for i, x := range v.I64 {
			out[i] = float64(x)
		}
	}
	return &t.vec, nil
}

func (c *Case) eval(b *vector.Batch, sel []int32) (*vector.Vector, []int32) {
	cond := c.dense(c.When.eval(b, sel)).I64
	tv, tidx := c.Then.eval(b, sel)
	ev, eidx := c.Else.eval(b, sel)
	out := sized(&c.vec, tv.Kind, rows(b, sel))
	switch out.Kind {
	case vector.Int64:
		choose(out.I64, cond, tv.I64, tidx, ev.I64, eidx)
	case vector.Float64:
		choose(out.F64, cond, tv.F64, tidx, ev.F64, eidx)
	case vector.String:
		choose(out.Str, cond, tv.Str, tidx, ev.Str, eidx)
	}
	return out, nil
}

// choose writes the ELSE operand everywhere and the THEN operand over it
// where cond holds.
func choose[T any](out []T, cond []int64, tv []T, tidx []int32, ev []T, eidx []int32) {
	if eidx != nil {
		gatherInto(out, ev, eidx)
	} else {
		copy(out, ev)
	}
	if tidx != nil {
		for i, c := range cond {
			if c != 0 {
				out[i] = tv[tidx[i]]
			}
		}
		return
	}
	for i, c := range cond {
		if c != 0 {
			out[i] = tv[i]
		}
	}
}

func (y *Year) eval(b *vector.Batch, sel []int32) (*vector.Vector, []int32) {
	out := sized(&y.vec, vector.Int64, rows(b, sel)).I64
	for i, d := range y.dense(y.Arg.eval(b, sel)).I64 {
		out[i] = vector.DateYear(d)
	}
	return &y.vec, nil
}

func (s *Substr) eval(b *vector.Batch, sel []int32) (*vector.Vector, []int32) {
	out := sized(&s.vec, vector.String, rows(b, sel)).Str
	for i, v := range s.dense(s.Arg.eval(b, sel)).Str {
		lo := max(s.Start-1, 0)
		hi := min(lo+s.Length, len(v))
		lo = min(lo, len(v))
		out[i] = v[lo:hi]
	}
	return &s.vec, nil
}

func (in *InList) eval(b *vector.Batch, sel []int32) (*vector.Vector, []int32) {
	return values(in, b, sel)
}

func (in *InList) filter(b *vector.Batch, sel, out []int32) []int32 {
	v, idx := in.Arg.eval(b, sel)
	return in.runFilter(in.kern, v, nil, idx, sel, out)
}
