// Package expr implements the scalar expression language of the engine:
// typed expression trees that evaluate vectorized, plus the static analysis
// the BDCC query rewriter relies on (conjunct splitting and extraction of
// value intervals per column, which the rewriter maps onto dimension bin
// ranges and MinMax pages).
//
// Boolean results are represented as Int64 vectors holding 0 or 1.
//
// # Evaluation
//
// Every node evaluates through one internal entry, eval(b, sel): sel lists
// the row ids of b to evaluate (nil means all of them), and the result is
// dense over sel — value i belongs to row sel[i]. A computed node writes into
// scratch it owns, grown on demand to the number of rows evaluated and reused
// from batch to batch; a column reference returns the batch's own vector, read
// through sel, so no operand is copied and no constant operand is broadcast.
// Cmp, Arith and InList dispatch once per batch to a kernel picked at Bind for
// their kind, operator and operand shape (vector⊕constant or vector⊕vector).
// Boolean nodes can also narrow a selection (filter): a comparison emits the
// surviving row ids directly and And hands conjunct k only the survivors of
// the conjuncts before it; Or, Not, Case and Like compute a 0/1 vector over
// the current selection. Select and Values are the exported forms of the two,
// and Expr.Eval is the nil-selection form that appends to a caller's vector.
//
// Because a bound node owns its scratch, a bound tree is single-goroutine
// state, and a result is valid only until the tree is evaluated again. Clone
// gives each concurrent evaluator a tree of its own.
package expr

import (
	"fmt"

	"bdcc/internal/vector"
)

// ColMeta describes one column of a row schema.
type ColMeta struct {
	Name string
	Kind vector.Kind
}

// Schema is an ordered list of columns an expression can be bound against.
type Schema []ColMeta

// IndexOf returns the position of the named column, or -1.
func (s Schema) IndexOf(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Kinds returns the kind of each column.
func (s Schema) Kinds() []vector.Kind {
	ks := make([]vector.Kind, len(s))
	for i, c := range s {
		ks[i] = c.Kind
	}
	return ks
}

// Names returns the name of each column.
func (s Schema) Names() []string {
	ns := make([]string, len(s))
	for i, c := range s {
		ns[i] = c.Name
	}
	return ns
}

// Expr is a scalar expression. Expressions are built unbound (column
// references by name), bound against a Schema with Bind, and then evaluated
// against batches conforming to that schema. The node set is closed: the
// types of this package.
type Expr interface {
	// Kind returns the result kind. Only valid after Bind.
	Kind() vector.Kind
	// Eval appends one value per row of b to out (out must have the
	// expression's kind and is not reset).
	Eval(b *vector.Batch, out *vector.Vector)
	// String renders the expression for EXPLAIN output.
	String() string

	// eval evaluates the rows of b listed in sel (all rows when sel is nil).
	// Value i of the result is v[idx[i]] when idx is non-nil and v[i]
	// otherwise, where v then holds exactly the evaluated rows. idx is non-nil
	// only for a bare column read through the selection (idx is sel and v the
	// batch's column); every other result is the node's own scratch.
	eval(b *vector.Batch, sel []int32) (v *vector.Vector, idx []int32)
	// scr returns the node's scratch.
	scr() *scratch
}

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (o CmpOp) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "?"
}

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

func (o ArithOp) String() string {
	switch o {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	}
	return "?"
}

// Col references a column by name; Bind resolves Index and Kind.
type Col struct {
	Name  string
	Index int
	kind  vector.Kind
	scratch
}

// C returns an unbound column reference.
func C(name string) *Col { return &Col{Name: name, Index: -1} }

// Kind implements Expr.
func (c *Col) Kind() vector.Kind { return c.kind }

// String implements Expr.
func (c *Col) String() string { return c.Name }

// Eval implements Expr.
func (c *Col) Eval(b *vector.Batch, out *vector.Vector) { appendValues(c, b, out) }

// Const is a literal value.
type Const struct {
	K vector.Kind
	I int64
	F float64
	S string
	scratch
}

// Int returns an int64 literal.
func Int(v int64) *Const { return &Const{K: vector.Int64, I: v} }

// Float returns a float64 literal.
func Float(v float64) *Const { return &Const{K: vector.Float64, F: v} }

// Str returns a string literal.
func Str(v string) *Const { return &Const{K: vector.String, S: v} }

// Date returns an int64 literal holding the day number of a YYYY-MM-DD date.
func Date(s string) *Const { return Int(vector.ParseDate(s)) }

// Kind implements Expr.
func (c *Const) Kind() vector.Kind { return c.K }

// String implements Expr.
func (c *Const) String() string {
	switch c.K {
	case vector.Int64:
		return fmt.Sprintf("%d", c.I)
	case vector.Float64:
		return fmt.Sprintf("%g", c.F)
	default:
		return fmt.Sprintf("%q", c.S)
	}
}

// Eval implements Expr.
func (c *Const) Eval(b *vector.Batch, out *vector.Vector) { appendValues(c, b, out) }

// Cmp is a binary comparison producing a boolean (Int64 0/1). Its semantics
// are those of vector.Vector.Compare: a three-way comparison built from <
// and >, under which a NaN operand compares equal to anything.
type Cmp struct {
	Op   CmpOp
	L, R Expr

	// Bound form (prepare): operands normalised so that a constant is on the
	// right and vector⊕vector uses only =, <>, <, <=; kern is the kernel for
	// the operand kind, the normalised operator and the operand shape.
	l, r Expr
	kern filterKernel
	scratch
}

// NewCmp returns the comparison l op r.
func NewCmp(op CmpOp, l, r Expr) *Cmp { return &Cmp{Op: op, L: l, R: r} }

// Eq is shorthand for an equality comparison.
func Eq(l, r Expr) *Cmp { return NewCmp(EQ, l, r) }

// Kind implements Expr.
func (c *Cmp) Kind() vector.Kind { return vector.Int64 }

// String implements Expr.
func (c *Cmp) String() string { return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R) }

// Eval implements Expr.
func (c *Cmp) Eval(b *vector.Batch, out *vector.Vector) { appendValues(c, b, out) }

// And is an n-ary conjunction.
type And struct {
	Args []Expr
	scratch
}

// NewAnd returns the conjunction of args (which must be boolean-valued).
func NewAnd(args ...Expr) *And { return &And{Args: args} }

// Kind implements Expr.
func (a *And) Kind() vector.Kind { return vector.Int64 }

// String implements Expr.
func (a *And) String() string { return nary("AND", a.Args) }

// Eval implements Expr.
func (a *And) Eval(b *vector.Batch, out *vector.Vector) { appendValues(a, b, out) }

// Or is an n-ary disjunction.
type Or struct {
	Args []Expr
	scratch
}

// NewOr returns the disjunction of args.
func NewOr(args ...Expr) *Or { return &Or{Args: args} }

// Kind implements Expr.
func (o *Or) Kind() vector.Kind { return vector.Int64 }

// String implements Expr.
func (o *Or) String() string { return nary("OR", o.Args) }

// Eval implements Expr.
func (o *Or) Eval(b *vector.Batch, out *vector.Vector) { appendValues(o, b, out) }

// Not negates a boolean expression.
type Not struct {
	Arg Expr
	scratch
}

// NewNot returns NOT arg.
func NewNot(arg Expr) *Not { return &Not{Arg: arg} }

// Kind implements Expr.
func (n *Not) Kind() vector.Kind { return vector.Int64 }

// String implements Expr.
func (n *Not) String() string { return fmt.Sprintf("(NOT %s)", n.Arg) }

// Eval implements Expr.
func (n *Not) Eval(b *vector.Batch, out *vector.Vector) { appendValues(n, b, out) }

// Arith is a binary arithmetic expression. Mixed int/float operands promote
// to float.
type Arith struct {
	Op   ArithOp
	L, R Expr
	kind vector.Kind

	// Bound form (prepare): operands of the result kind (an Int64 operand of
	// a Float64 node is wrapped in toFloat, a constant promoted), a constant
	// of a commutative operator moved to the right, and the kernel for the
	// kind, operator and operand shape.
	l, r Expr
	kern arithKernel
	scratch
}

// NewArith returns l op r.
func NewArith(op ArithOp, l, r Expr) *Arith { return &Arith{Op: op, L: l, R: r} }

// Kind implements Expr.
func (a *Arith) Kind() vector.Kind { return a.kind }

// String implements Expr.
func (a *Arith) String() string { return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R) }

// Eval implements Expr.
func (a *Arith) Eval(b *vector.Batch, out *vector.Vector) { appendValues(a, b, out) }

// Case is CASE WHEN cond THEN a ELSE b END. Then and Else must share a kind.
type Case struct {
	When Expr
	Then Expr
	Else Expr
	scratch
}

// NewCase returns the conditional expression.
func NewCase(when, then, els Expr) *Case { return &Case{When: when, Then: then, Else: els} }

// Kind implements Expr.
func (c *Case) Kind() vector.Kind { return c.Then.Kind() }

// String implements Expr.
func (c *Case) String() string {
	return fmt.Sprintf("CASE WHEN %s THEN %s ELSE %s END", c.When, c.Then, c.Else)
}

// Eval implements Expr.
func (c *Case) Eval(b *vector.Batch, out *vector.Vector) { appendValues(c, b, out) }

// Year extracts the calendar year from a date (Int64 day number) expression.
type Year struct {
	Arg Expr
	scratch
}

// NewYear returns EXTRACT(YEAR FROM arg).
func NewYear(arg Expr) *Year { return &Year{Arg: arg} }

// Kind implements Expr.
func (y *Year) Kind() vector.Kind { return vector.Int64 }

// String implements Expr.
func (y *Year) String() string { return fmt.Sprintf("YEAR(%s)", y.Arg) }

// Eval implements Expr.
func (y *Year) Eval(b *vector.Batch, out *vector.Vector) { appendValues(y, b, out) }

// Substr is SUBSTRING(arg FROM start FOR length) with 1-based start.
type Substr struct {
	Arg    Expr
	Start  int
	Length int
	scratch
}

// NewSubstr returns the substring expression.
func NewSubstr(arg Expr, start, length int) *Substr {
	return &Substr{Arg: arg, Start: start, Length: length}
}

// Kind implements Expr.
func (s *Substr) Kind() vector.Kind { return vector.String }

// String implements Expr.
func (s *Substr) String() string {
	return fmt.Sprintf("SUBSTRING(%s FROM %d FOR %d)", s.Arg, s.Start, s.Length)
}

// Eval implements Expr.
func (s *Substr) Eval(b *vector.Batch, out *vector.Vector) { appendValues(s, b, out) }

// InList tests membership of Arg in a set of constants of the same kind.
type InList struct {
	Arg    Expr
	Values []*Const
	Negate bool

	kern filterKernel // bound form (prepare): the membership kernel for Arg's kind
	scratch
}

// NewIn returns arg IN (values...).
func NewIn(arg Expr, values ...*Const) *InList { return &InList{Arg: arg, Values: values} }

// NewNotIn returns arg NOT IN (values...).
func NewNotIn(arg Expr, values ...*Const) *InList {
	return &InList{Arg: arg, Values: values, Negate: true}
}

// Kind implements Expr.
func (in *InList) Kind() vector.Kind { return vector.Int64 }

// String implements Expr.
func (in *InList) String() string {
	op := "IN"
	if in.Negate {
		op = "NOT IN"
	}
	return fmt.Sprintf("(%s %s %v)", in.Arg, op, in.Values)
}

// Eval implements Expr.
func (in *InList) Eval(b *vector.Batch, out *vector.Vector) { appendValues(in, b, out) }

// Between is lo <= arg AND arg <= hi, as a single analyzable node.
func Between(arg Expr, lo, hi Expr) Expr {
	return NewAnd(NewCmp(GE, arg, lo), NewCmp(LE, arg, hi))
}

// NewScratch returns an empty vector of kind k sized for one batch, for
// callers of Expr.Eval. Evaluation itself never calls it: bound nodes own
// their scratch.
func NewScratch(k vector.Kind) *vector.Vector {
	return vector.NewVector(k, vector.BatchSize)
}

func nary(op string, args []Expr) string {
	s := "("
	for i, a := range args {
		if i > 0 {
			s += " " + op + " "
		}
		s += a.String()
	}
	return s + ")"
}
