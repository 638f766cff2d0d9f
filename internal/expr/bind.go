package expr

import (
	"fmt"
	"math"

	"bdcc/internal/vector"
)

// Bind resolves column references in e against schema, computes result kinds
// and decimal scales and picks each node's kernel, mutating the tree in place.
// Expressions must be bound before Eval and must not be re-bound against a
// different schema (plan builders construct fresh trees per execution).
func Bind(e Expr, schema Schema) error {
	switch n := e.(type) {
	case *Col:
		i := schema.IndexOf(n.Name)
		if i < 0 {
			return fmt.Errorf("expr: unknown column %q (schema %v)", n.Name, schema.Names())
		}
		n.Index, n.kind, n.scale = i, schema[i].Kind, schema[i].Scale
		return nil
	case *Const:
		return nil
	case *Cmp:
		if err := bindAll(schema, n.L, n.R); err != nil {
			return err
		}
		if (n.L.Kind() == vector.String) != (n.R.Kind() == vector.String) {
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
		n.prepare()
		return nil
	case *Case:
		if err := bindAll(schema, n.When, n.Then, n.Else); err != nil {
			return err
		}
		if (n.Then.Kind() == vector.String) != (n.Else.Kind() == vector.String) {
			return fmt.Errorf("expr: CASE branches disagree on kind in %s", n)
		}
		n.prepare()
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
			if _, ok := member(c, n.Arg); !ok {
				return fmt.Errorf("expr: IN list value %s does not fit %s in %s", c, n.Arg.Kind(), n)
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

// Scale returns the decimal scale of a bound expression's values: an Int64
// value v of scale s stands for v/10^s. It is 0 for any other value.
func Scale(e Expr) uint8 {
	switch n := e.(type) {
	case *Col:
		return n.scale
	case *Const:
		return n.scale
	case *Arith:
		return n.scale
	case *Case:
		return n.scale
	}
	return 0
}

// Unscale returns the float64 nearest to v/10^s where |v| ≤ 2^53: v
// converted exactly, then one correctly rounded division.
func Unscale(v int64, s uint8) float64 { return float64(v) / math.Pow10(int(s)) }

// Exact returns the literal number c as an Int64 constant at scale s — in
// the stored units of a decimal column of that scale — if it is one there: an integer times 10^s inside int64, or a float nearest to some
// n/10^s with |n| ≤ 2^53 (what decimal text such as 0.05 parses to).
func Exact(c *Const, s uint8) (*Const, bool) {
	p, m := math.Pow10(int(s)), int64(math.Pow10(int(s)))
	if c.K == vector.Int64 && c.I <= math.MaxInt64/m && c.I >= math.MinInt64/m {
		return &Const{K: vector.Int64, I: c.I * m, scale: s}, true
	}
	if n := math.Round(c.F * p); c.K == vector.Float64 && math.Abs(n) <= 1<<53 && n/p == c.F {
		return &Const{K: vector.Int64, I: int64(n), scale: s}, true
	}
	return nil, false
}

// joins returns the constant e as an Int64 constant at the scale of the
// Int64 operand x, where it is exact there: an integer always, a float only
// beside a decimal (scale > 0), so that integers and floats mix as floats.
func joins(e, x Expr) (*Const, bool) {
	c, ok := e.(*Const)
	if !ok || x.Kind() != vector.Int64 || (c.K == vector.Float64 && Scale(x) == 0) {
		return nil, false
	}
	return Exact(c, Scale(x))
}

// toF returns the number e as a Float64 operand: a constant converted once,
// an Int64 operand through toFloat.
func toF(e Expr) Expr {
	switch k, _ := e.(*Const); {
	case e.Kind() == vector.Float64:
		return e
	case k != nil:
		return Float(Unscale(k.I, k.scale))
	}
	return &toFloat{arg: e, scale: Scale(e)}
}

// unify returns the numbers l and r in one type, and that type: Int64 at
// the larger scale when both are Int64 or a constant joins the other — a
// constant scaled here, once, another operand by a multiply — else Float64.
func unify(l, r Expr) (Expr, Expr, vector.Kind, uint8) {
	if k, ok := joins(r, l); ok {
		return l, k, vector.Int64, Scale(l)
	}
	if k, ok := joins(l, r); ok {
		return k, r, vector.Int64, Scale(r)
	}
	if l.Kind() == vector.Int64 && r.Kind() == vector.Int64 && !isConst(l) && !isConst(r) {
		s := max(Scale(l), Scale(r))
		return rescale(l, s), rescale(r, s), vector.Int64, s
	}
	return toF(l), toF(r), vector.Float64, 0
}

// rescale returns the Int64 operand e at scale s ≥ its own: the product of e
// and 1 at scale s − Scale(e), checked as any decimal product.
func rescale(e Expr, s uint8) Expr {
	if d := s - Scale(e); d > 0 {
		e = &Arith{Op: Mul, L: e, R: &Const{K: vector.Int64, I: int64(math.Pow10(int(d))), scale: d}}
		e.(*Arith).prepare()
	}
	return e
}

// product returns the operands of l × r and its type: Int64 at the sum of
// the scales, at most vector.MaxScale, when both are Int64 — a float
// constant beside a decimal at the least scale it is exact at — else Float64.
func product(l, r Expr) (Expr, Expr, vector.Kind, uint8) {
	least := func(e, x Expr) Expr {
		for t := range Scale(x) + 1 {
			if c, ok := e.(*Const); ok && c.K == vector.Float64 && Scale(x) > 0 {
				if k, ok := Exact(c, t); ok {
					return k
				}
			}
		}
		return e
	}
	l, r = least(l, r), least(r, l)
	if s := Scale(l) + Scale(r); l.Kind() == vector.Int64 && r.Kind() == vector.Int64 && s <= vector.MaxScale {
		return l, r, vector.Int64, s
	}
	return toF(l), toF(r), vector.Float64, 0
}

// member returns the IN value c in the type of arg, if it has one: a string
// for a string, any number for a float, one that joins an Int64.
func member(c *Const, arg Expr) (*Const, bool) {
	if arg.Kind() == vector.Float64 && c.K != vector.String {
		return toF(c).(*Const), true
	}
	if k, ok := joins(c, arg); ok {
		return k, true
	}
	return c, c.K == vector.String && arg.Kind() == vector.String
}

// prepare derives the comparison's bound form from its bound operands: the
// numbers in one type (unify), a constant on the right (flipping the
// operator), and a vector⊕vector > or <= with its operands swapped, so the
// kernels need only <, = and, against a constant, >.
func (c *Cmp) prepare() {
	op := c.Op
	c.l, c.r = c.L, c.R
	if c.l.Kind() != vector.String {
		c.l, c.r, _, _ = unify(c.l, c.r)
	}
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

// prepare derives the arithmetic node's bound form: its type and operands
// (unify for + and −, product for ×; ÷ stays integer division only between
// two Int64 operands of scale 0 and is Float64 otherwise), the constant of +
// and × on the right, and the kernel.
func (a *Arith) prepare() {
	switch {
	case a.Op == Add || a.Op == Sub:
		a.l, a.r, a.kind, a.scale = unify(a.L, a.R)
	case a.Op == Mul:
		a.l, a.r, a.kind, a.scale = product(a.L, a.R)
	case a.L.Kind() == vector.Int64 && a.R.Kind() == vector.Int64 && Scale(a.L)+Scale(a.R) == 0:
		a.l, a.r, a.kind, a.scale = a.L, a.R, vector.Int64, 0
	default:
		a.l, a.r, a.kind, a.scale = toF(a.L), toF(a.R), vector.Float64, 0
	}
	if isConst(a.l) && !isConst(a.r) && (a.Op == Add || a.Op == Mul) {
		a.l, a.r = a.r, a.l
	}
	rc, _ := a.r.(*Const)
	lc, _ := a.l.(*Const)
	if rc != nil {
		lc = nil // constant ⊕ constant: the left one is evaluated as a vector
	}
	if a.kind == vector.Int64 && a.Op == Mul && a.scale > 0 {
		a.kern = a.checkedMul
	} else if a.kind == vector.Int64 {
		a.kern = bindArith(a.Op, i64s, constI, lc, rc)
	} else {
		a.kern = bindArith(a.Op, f64s, constF, lc, rc)
	}
}

// prepare brings a numeric CASE's branches to one type, as + does.
func (c *Case) prepare() {
	c.then, c.els, c.kind, c.scale = c.Then, c.Else, vector.String, 0
	if c.Then.Kind() != vector.String {
		c.then, c.els, c.kind, c.scale = unify(c.Then, c.Else)
	}
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
		return &Col{Name: n.Name, Index: n.Index, kind: n.kind, scale: n.scale}
	case *Const:
		return &Const{K: n.K, I: n.I, F: n.F, S: n.S, scale: n.scale}
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
		c := &Arith{Op: n.Op, L: Clone(n.L), R: Clone(n.R)}
		c.prepare()
		return c
	case *Case:
		c := &Case{When: Clone(n.When), Then: Clone(n.Then), Else: Clone(n.Else)}
		c.prepare()
		return c
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
// dimension bin ranges; the scan also uses them for MinMax pruning, so they
// are in stored units: scale gives each column's decimal scale (nil: 0 for
// every column), and a number bounds a column only where it is exact at that
// scale (12 at scale 2 is 1200). Intervals on Float64 columns are ignored by
// both consumers.
func ImpliedRanges(e Expr, scale func(col string) uint8) map[string]*ColRange {
	out := make(map[string]*ColRange)
	for _, c := range Conjuncts(e) {
		col, op, k, iv, sv, ok := analyzeCmp(c, scale)
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
// operator) over Int64 and String columns, plus single-constant IN lists; a
// number counts at the column's scale, and only where it is exact there.
func analyzeCmp(e Expr, scale func(string) uint8) (col string, op CmpOp, k vector.Kind, iv int64, sv string, ok bool) {
	var c *Col
	var v *Const
	if in, isIn := e.(*InList); isIn && !in.Negate && len(in.Values) == 1 {
		c, _ = in.Arg.(*Col)
		v, op = in.Values[0], EQ
	} else if cmp, isCmp := e.(*Cmp); isCmp {
		if c, _ = cmp.L.(*Col); c != nil {
			v, _ = cmp.R.(*Const)
			op = cmp.Op
		} else if c, _ = cmp.R.(*Col); c != nil {
			v, _ = cmp.L.(*Const)
			op = flip(cmp.Op)
		}
	}
	if c == nil || v == nil {
		return "", 0, 0, 0, "", false
	}
	if v.K == vector.String {
		return c.Name, op, v.K, 0, v.S, true
	}
	s := uint8(0)
	if scale != nil {
		s = scale(c.Name)
	}
	if x, ok := Exact(v, s); ok {
		return c.Name, op, vector.Int64, x.I, "", true
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
