package expr

import (
	"fmt"

	"bdcc/internal/vector"
)

// Bind resolves column references in e against schema, computes result kinds
// and picks each node's kernel, mutating the tree in place. Expressions must
// be bound before Eval and must not be re-bound against a different schema
// (plan builders construct fresh trees per execution).
func Bind(e Expr, schema Schema) error {
	switch n := e.(type) {
	case *Col:
		i := schema.IndexOf(n.Name)
		if i < 0 {
			return fmt.Errorf("expr: unknown column %q (schema %v)", n.Name, schema.Names())
		}
		n.Index = i
		n.kind = schema[i].Kind
		return nil
	case *Const:
		return nil
	case *Cmp:
		if err := bindAll(schema, n.L, n.R); err != nil {
			return err
		}
		if n.L.Kind() != n.R.Kind() {
			return fmt.Errorf("expr: comparison kind mismatch %s %s %s (%s vs %s)",
				n.L, n.Op, n.R, n.L.Kind(), n.R.Kind())
		}
		if n.Op > GE {
			return fmt.Errorf("expr: unknown comparison operator %d", n.Op)
		}
		n.prepare()
		return nil
	case *And:
		return bindAll(schema, n.Args...)
	case *Or:
		return bindAll(schema, n.Args...)
	case *Not:
		return Bind(n.Arg, schema)
	case *Arith:
		if err := bindAll(schema, n.L, n.R); err != nil {
			return err
		}
		if n.L.Kind() == vector.String || n.R.Kind() == vector.String {
			return fmt.Errorf("expr: arithmetic on string operand in %s", n)
		}
		if n.Op > Div {
			return fmt.Errorf("expr: unknown arithmetic operator %d", n.Op)
		}
		if n.L.Kind() == vector.Float64 || n.R.Kind() == vector.Float64 {
			n.kind = vector.Float64
		} else {
			n.kind = vector.Int64
		}
		n.prepare()
		return nil
	case *Case:
		if err := bindAll(schema, n.When, n.Then, n.Else); err != nil {
			return err
		}
		if n.Then.Kind() != n.Else.Kind() {
			return fmt.Errorf("expr: CASE branches disagree on kind in %s", n)
		}
		return nil
	case *Year:
		return Bind(n.Arg, schema)
	case *Substr:
		if err := Bind(n.Arg, schema); err != nil {
			return err
		}
		if n.Arg.Kind() != vector.String {
			return fmt.Errorf("expr: SUBSTRING of non-string in %s", n)
		}
		return nil
	case *InList:
		if err := Bind(n.Arg, schema); err != nil {
			return err
		}
		for _, c := range n.Values {
			if c.K != n.Arg.Kind() {
				return fmt.Errorf("expr: IN list kind mismatch in %s", n)
			}
		}
		n.prepare()
		return nil
	case *Like:
		if err := Bind(n.Arg, schema); err != nil {
			return err
		}
		if n.Arg.Kind() != vector.String {
			return fmt.Errorf("expr: LIKE on non-string in %s", n)
		}
		n.prepare()
		return nil
	}
	return fmt.Errorf("expr: cannot bind %T", e)
}

func bindAll(schema Schema, es ...Expr) error {
	for _, e := range es {
		if err := Bind(e, schema); err != nil {
			return err
		}
	}
	return nil
}

// prepare derives the comparison's bound form from its bound operands: a
// constant goes to the right (flipping the operator), and a vector⊕vector
// > or <= swaps its operands, so the kernels need only <, = and, against a
// constant, >.
func (c *Cmp) prepare() {
	op := c.Op
	c.l, c.r = c.L, c.R
	if isConst(c.l) && !isConst(c.r) {
		c.l, c.r, op = c.r, c.l, flip(op)
	}
	k, _ := c.r.(*Const)
	if k == nil && (op == GT || op == LE) {
		c.l, c.r, op = c.r, c.l, flip(op)
	}
	switch c.l.Kind() {
	case vector.Int64:
		c.kern = bindCmp(op, i64s, k, constI, eqC[int64], eqV[int64])
	case vector.Float64:
		c.kern = bindCmp(op, f64s, k, constF, eq3C, eq3V)
	case vector.String:
		c.kern = bindCmp(op, strs, k, constS, eqC[string], eqV[string])
	}
}

// prepare derives the arithmetic node's bound form: operands of the result
// kind, the constant of + and * on the right, and the kernel.
func (a *Arith) prepare() {
	a.l, a.r = a.promote(a.L), a.promote(a.R)
	if isConst(a.l) && !isConst(a.r) && (a.Op == Add || a.Op == Mul) {
		a.l, a.r = a.r, a.l
	}
	rc, _ := a.r.(*Const)
	lc, _ := a.l.(*Const)
	if rc != nil {
		lc = nil // constant ⊕ constant: the left one is evaluated as a vector
	}
	if a.kind == vector.Int64 {
		a.kern = bindArith(a.Op, i64s, constI, lc, rc)
	} else {
		a.kern = bindArith(a.Op, f64s, constF, lc, rc)
	}
}

// promote returns operand e in the node's kind: an Int64 operand of a
// Float64 node becomes a Float64 constant or a toFloat over e.
func (a *Arith) promote(e Expr) Expr {
	if e.Kind() == a.kind {
		return e
	}
	if k, ok := e.(*Const); ok {
		return Float(float64(k.I))
	}
	return &toFloat{arg: e}
}

func (in *InList) prepare() {
	switch in.Arg.Kind() {
	case vector.Int64:
		in.kern = bindIn(in, i64s, constI)
	case vector.Float64:
		in.kern = bindIn(in, f64s, constF)
	case vector.String:
		in.kern = bindIn(in, strs, constS)
	}
}

// Clone returns a deep copy of the bound tree e with scratch of its own, so
// that two goroutines can evaluate the same expression at once — each on its
// clone. The copy is bound like e; nil clones to nil.
func Clone(e Expr) Expr {
	switch n := e.(type) {
	case *Col:
		return &Col{Name: n.Name, Index: n.Index, kind: n.kind}
	case *Const:
		return &Const{K: n.K, I: n.I, F: n.F, S: n.S}
	case *Cmp:
		c := &Cmp{Op: n.Op, L: Clone(n.L), R: Clone(n.R)}
		c.prepare()
		return c
	case *And:
		return &And{Args: cloneAll(n.Args)}
	case *Or:
		return &Or{Args: cloneAll(n.Args)}
	case *Not:
		return &Not{Arg: Clone(n.Arg)}
	case *Arith:
		c := &Arith{Op: n.Op, L: Clone(n.L), R: Clone(n.R), kind: n.kind}
		c.prepare()
		return c
	case *Case:
		return &Case{When: Clone(n.When), Then: Clone(n.Then), Else: Clone(n.Else)}
	case *Year:
		return &Year{Arg: Clone(n.Arg)}
	case *Substr:
		return &Substr{Arg: Clone(n.Arg), Start: n.Start, Length: n.Length}
	case *InList:
		c := &InList{Arg: Clone(n.Arg), Values: n.Values, Negate: n.Negate}
		c.prepare()
		return c
	case *Like:
		c := &Like{Arg: Clone(n.Arg), Pattern: n.Pattern, Negate: n.Negate}
		c.prepare()
		return c
	}
	return nil
}

func cloneAll(es []Expr) []Expr {
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = Clone(e)
	}
	return out
}

// Conjuncts flattens nested ANDs into a list of conjuncts. A nil expression
// yields nil.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if a, ok := e.(*And); ok {
		var out []Expr
		for _, arg := range a.Args {
			out = append(out, Conjuncts(arg)...)
		}
		return out
	}
	return []Expr{e}
}

// ColRange is a closed value interval implied by a predicate on one column.
type ColRange struct {
	Col   string
	HasLo bool
	HasHi bool
	// Numeric bounds (Int64 columns, including dates).
	LoI, HiI int64
	// String bounds.
	LoS, HiS string
	Kind     vector.Kind
}

// ImpliedRanges extracts, for each column, the tightest closed interval
// implied by the conjuncts of e. Only directly analyzable conjuncts
// contribute: comparisons between a bare column and a constant, and
// single-element IN lists. The BDCC rewriter maps these intervals onto
// dimension bin ranges; the scan also uses them for MinMax pruning.
func ImpliedRanges(e Expr) map[string]*ColRange {
	out := make(map[string]*ColRange)
	for _, c := range Conjuncts(e) {
		col, op, k, iv, sv, ok := analyzeCmp(c)
		if !ok {
			continue
		}
		r := out[col]
		if r == nil {
			r = &ColRange{Col: col, Kind: k}
			out[col] = r
		}
		switch op {
		case EQ:
			r.tightenLo(k, iv, sv)
			r.tightenHi(k, iv, sv)
		case GE:
			r.tightenLo(k, iv, sv)
		case GT:
			if k == vector.Int64 {
				r.tightenLo(k, iv+1, sv)
			} else {
				r.tightenLo(k, iv, sv) // conservative: treat as ≥ for strings
			}
		case LE:
			r.tightenHi(k, iv, sv)
		case LT:
			if k == vector.Int64 {
				r.tightenHi(k, iv-1, sv)
			} else {
				r.tightenHi(k, iv, sv)
			}
		}
	}
	return out
}

func (r *ColRange) tightenLo(k vector.Kind, iv int64, sv string) {
	if k == vector.Int64 {
		if !r.HasLo || iv > r.LoI {
			r.LoI = iv
		}
	} else {
		if !r.HasLo || sv > r.LoS {
			r.LoS = sv
		}
	}
	r.HasLo = true
}

func (r *ColRange) tightenHi(k vector.Kind, iv int64, sv string) {
	if k == vector.Int64 {
		if !r.HasHi || iv < r.HiI {
			r.HiI = iv
		}
	} else {
		if !r.HasHi || sv < r.HiS {
			r.HiS = sv
		}
	}
	r.HasHi = true
}

// analyzeCmp recognizes `col op const` and `const op col` (flipping the
// operator) over Int64 and String columns, plus single-constant IN lists.
func analyzeCmp(e Expr) (col string, op CmpOp, k vector.Kind, iv int64, sv string, ok bool) {
	if in, isIn := e.(*InList); isIn && !in.Negate && len(in.Values) == 1 {
		c, isCol := in.Arg.(*Col)
		if !isCol {
			return "", 0, 0, 0, "", false
		}
		v := in.Values[0]
		if v.K == vector.Float64 {
			return "", 0, 0, 0, "", false
		}
		return c.Name, EQ, v.K, v.I, v.S, true
	}
	cmp, isCmp := e.(*Cmp)
	if !isCmp {
		return "", 0, 0, 0, "", false
	}
	if c, isCol := cmp.L.(*Col); isCol {
		if v, isConst := cmp.R.(*Const); isConst && v.K != vector.Float64 {
			return c.Name, cmp.Op, v.K, v.I, v.S, true
		}
	}
	if c, isCol := cmp.R.(*Col); isCol {
		if v, isConst := cmp.L.(*Const); isConst && v.K != vector.Float64 {
			return c.Name, flip(cmp.Op), v.K, v.I, v.S, true
		}
	}
	return "", 0, 0, 0, "", false
}

func flip(op CmpOp) CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	}
	return op
}
