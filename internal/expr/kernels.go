package expr

import (
	"cmp"
	"slices"

	"bdcc/internal/vector"
)

// This file holds the typed kernels Bind picks from. Every kernel has two
// loops and nothing else in them: over dense operands (idx nil) it visits
// l[i], and under a selection it visits l[idx[i]] — the batch's own column,
// never a copy.

// A filterKernel tests the operand l against a constant (r unused) or a
// second vector r and writes the survivors to out, returning their count:
// positions i over dense operands, row ids idx[i] under a selection. out
// needs one slot per row tested and may be idx itself, since slot n is written
// only once n rows or more have been read. Emission is branch-free: the
// candidate is stored unconditionally and the count advances by the test.
type filterKernel func(l, r *vector.Vector, idx, out []int32) int

// An arithKernel computes out[i] from the operands' i-th values: l or r is
// nil where the kernel has a constant on that side.
type arithKernel func(l, r *vector.Vector, idx []int32, out *vector.Vector)

// Per-kind accessors, handed to the generic bind functions.
func i64s(v *vector.Vector) []int64   { return v.I64 }
func f64s(v *vector.Vector) []float64 { return v.F64 }
func strs(v *vector.Vector) []string  { return v.Str }
func constI(c *Const) int64           { return c.I }
func constF(c *Const) float64         { return c.F }
func constS(c *Const) string          { return c.S }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// The comparison kernels keep the rows whose test equals want, so each
// predicate also serves its complement: < gives >= (not <), > gives <=, and
// = gives <>. That is exactly the three-way comparison of Vector.Compare,
// including its NaN behaviour (a NaN operand is neither < nor >, so it is
// "equal"), which is why Float64 equality uses eq3 and not ==.

func ltC[T cmp.Ordered](l []T, idx []int32, c T, want bool, out []int32) (n int) {
	if idx == nil {
		for i, v := range l {
			out[n] = int32(i)
			n += b2i((v < c) == want)
		}
		return n
	}
	for _, r := range idx {
		out[n] = r
		n += b2i((l[r] < c) == want)
	}
	return n
}

func gtC[T cmp.Ordered](l []T, idx []int32, c T, want bool, out []int32) (n int) {
	if idx == nil {
		for i, v := range l {
			out[n] = int32(i)
			n += b2i((v > c) == want)
		}
		return n
	}
	for _, r := range idx {
		out[n] = r
		n += b2i((l[r] > c) == want)
	}
	return n
}

func eqC[T comparable](l []T, idx []int32, c T, want bool, out []int32) (n int) {
	if idx == nil {
		for i, v := range l {
			out[n] = int32(i)
			n += b2i((v == c) == want)
		}
		return n
	}
	for _, r := range idx {
		out[n] = r
		n += b2i((l[r] == c) == want)
	}
	return n
}

func eq3C(l []float64, idx []int32, c float64, want bool, out []int32) (n int) {
	if idx == nil {
		for i, v := range l {
			out[n] = int32(i)
			n += b2i(!(v < c || v > c) == want)
		}
		return n
	}
	for _, r := range idx {
		out[n] = r
		n += b2i(!(l[r] < c || l[r] > c) == want)
	}
	return n
}

func ltV[T cmp.Ordered](l, r []T, idx []int32, want bool, out []int32) (n int) {
	if idx == nil {
		r = r[:len(l)]
		for i, v := range l {
			out[n] = int32(i)
			n += b2i((v < r[i]) == want)
		}
		return n
	}
	for _, k := range idx {
		out[n] = k
		n += b2i((l[k] < r[k]) == want)
	}
	return n
}

func eqV[T comparable](l, r []T, idx []int32, want bool, out []int32) (n int) {
	if idx == nil {
		r = r[:len(l)]
		for i, v := range l {
			out[n] = int32(i)
			n += b2i((v == r[i]) == want)
		}
		return n
	}
	for _, k := range idx {
		out[n] = k
		n += b2i((l[k] == r[k]) == want)
	}
	return n
}

func eq3V(l, r []float64, idx []int32, want bool, out []int32) (n int) {
	if idx == nil {
		r = r[:len(l)]
		for i, v := range l {
			out[n] = int32(i)
			n += b2i(!(v < r[i] || v > r[i]) == want)
		}
		return n
	}
	for _, k := range idx {
		out[n] = k
		n += b2i(!(l[k] < r[k] || l[k] > r[k]) == want)
	}
	return n
}

// bindCmp returns the comparison kernel for operands of type T under the
// normalised operator op (see Cmp.prepare): against the constant k, or
// against a second vector when k is nil. eqc and eqv are the kind's equality
// kernels.
func bindCmp[T cmp.Ordered](op CmpOp, get func(*vector.Vector) []T, k *Const, val func(*Const) T,
	eqc func([]T, []int32, T, bool, []int32) int, eqv func(_, _ []T, _ []int32, _ bool, _ []int32) int) filterKernel {
	want := op == EQ || op == LT || op == GT
	if k != nil {
		f, c := eqc, val(k)
		switch op {
		case LT, GE:
			f = ltC[T]
		case GT, LE:
			f = gtC[T]
		}
		return func(l, _ *vector.Vector, idx, out []int32) int { return f(get(l), idx, c, want, out) }
	}
	f := eqv
	if op == LT || op == GE {
		f = ltV[T]
	}
	return func(l, r *vector.Vector, idx, out []int32) int { return f(get(l), get(r), idx, want, out) }
}

func inC[T comparable](l []T, idx []int32, vals []T, want bool, out []int32) (n int) {
	if idx == nil {
		for i, v := range l {
			out[n] = int32(i)
			n += b2i(slices.Contains(vals, v) == want)
		}
		return n
	}
	for _, r := range idx {
		out[n] = r
		n += b2i(slices.Contains(vals, l[r]) == want)
	}
	return n
}

// bindIn returns the membership kernel over the list's values of type T.
func bindIn[T comparable](in *InList, get func(*vector.Vector) []T, val func(*Const) T) filterKernel {
	vals := make([]T, len(in.Values))
	for i, c := range in.Values {
		vals[i] = val(c)
	}
	want := !in.Negate
	return func(l, _ *vector.Vector, idx, out []int32) int { return inC(get(l), idx, vals, want, out) }
}

type number interface{ int64 | float64 }

func addVC[T number](l []T, idx []int32, c T, out []T) {
	if idx == nil {
		for i, v := range l {
			out[i] = v + c
		}
		return
	}
	for i, r := range idx {
		out[i] = l[r] + c
	}
}

func mulVC[T number](l []T, idx []int32, c T, out []T) {
	if idx == nil {
		for i, v := range l {
			out[i] = v * c
		}
		return
	}
	for i, r := range idx {
		out[i] = l[r] * c
	}
}

func divVC[T number](l []T, idx []int32, c T, out []T) {
	if idx == nil {
		for i, v := range l {
			out[i] = v / c
		}
		return
	}
	for i, r := range idx {
		out[i] = l[r] / c
	}
}

func subCV[T number](r []T, idx []int32, c T, out []T) {
	if idx == nil {
		for i, v := range r {
			out[i] = c - v
		}
		return
	}
	for i, k := range idx {
		out[i] = c - r[k]
	}
}

func divCV[T number](r []T, idx []int32, c T, out []T) {
	if idx == nil {
		for i, v := range r {
			out[i] = c / v
		}
		return
	}
	for i, k := range idx {
		out[i] = c / r[k]
	}
}

func addVV[T number](l, r []T, idx []int32, out []T) {
	if idx == nil {
		r = r[:len(l)]
		for i, v := range l {
			out[i] = v + r[i]
		}
		return
	}
	for i, k := range idx {
		out[i] = l[k] + r[k]
	}
}

func subVV[T number](l, r []T, idx []int32, out []T) {
	if idx == nil {
		r = r[:len(l)]
		for i, v := range l {
			out[i] = v - r[i]
		}
		return
	}
	for i, k := range idx {
		out[i] = l[k] - r[k]
	}
}

func mulVV[T number](l, r []T, idx []int32, out []T) {
	if idx == nil {
		r = r[:len(l)]
		for i, v := range l {
			out[i] = v * r[i]
		}
		return
	}
	for i, k := range idx {
		out[i] = l[k] * r[k]
	}
}

func divVV[T number](l, r []T, idx []int32, out []T) {
	if idx == nil {
		r = r[:len(l)]
		for i, v := range l {
			out[i] = v / r[i]
		}
		return
	}
	for i, k := range idx {
		out[i] = l[k] / r[k]
	}
}

// bindArith returns the arithmetic kernel for operands of type T: with the
// constant lc on the left, rc on the right, or two vectors. prepare has
// already moved the constant of + and * to the right; v - c runs as v + (-c),
// which is the same value in two's complement and in IEEE 754 alike.
func bindArith[T number](op ArithOp, get func(*vector.Vector) []T, val func(*Const) T, lc, rc *Const) arithKernel {
	switch {
	case rc != nil:
		k, c := addVC[T], val(rc)
		switch op {
		case Sub:
			c = -c
		case Mul:
			k = mulVC[T]
		case Div:
			k = divVC[T]
		}
		return func(l, _ *vector.Vector, idx []int32, out *vector.Vector) { k(get(l), idx, c, get(out)) }
	case lc != nil:
		k, c := subCV[T], val(lc)
		if op == Div {
			k = divCV[T]
		}
		return func(_, r *vector.Vector, idx []int32, out *vector.Vector) { k(get(r), idx, c, get(out)) }
	}
	k := [...]func(_, _ []T, _ []int32, _ []T){Add: addVV[T], Sub: subVV[T], Mul: mulVV[T], Div: divVV[T]}[op]
	return func(l, r *vector.Vector, idx []int32, out *vector.Vector) { k(get(l), get(r), idx, get(out)) }
}
