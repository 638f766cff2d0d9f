package engine

import (
	"fmt"

	"bdcc/internal/expr"
	"bdcc/internal/vector"
)

// Filter drops rows of its child stream that fail the predicate, preserving
// group tags.
type Filter struct {
	Child Operator
	Pred  expr.Expr

	out *vector.Batch
}

// Schema implements Operator.
func (f *Filter) Schema() expr.Schema { return f.Child.Schema() }

// Open implements Operator.
func (f *Filter) Open(ctx *Context) error {
	if err := f.Child.Open(ctx); err != nil {
		return err
	}
	if err := expr.Bind(f.Pred, f.Child.Schema()); err != nil {
		return errOp("filter", err)
	}
	f.out = vector.NewBatch(f.Child.Schema().Kinds())
	return nil
}

// Next implements Operator.
func (f *Filter) Next() (*vector.Batch, error) {
	for {
		b, err := f.Child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		f.out.Reset()
		filterInto(f.Pred, b, f.out)
		if f.out.Len() > 0 {
			return f.out, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error { return f.Child.Close() }

// ProjCol is one output column of a projection.
type ProjCol struct {
	Name string
	Expr expr.Expr
}

// Project computes scalar expressions over its child stream.
type Project struct {
	Child Operator
	Cols  []ProjCol

	schema expr.Schema
	out    *vector.Batch
}

// NewProject is a convenience constructor.
func NewProject(child Operator, cols ...ProjCol) *Project {
	return &Project{Child: child, Cols: cols}
}

// Schema implements Operator.
func (p *Project) Schema() expr.Schema { return p.schema }

// Open implements Operator.
func (p *Project) Open(ctx *Context) error {
	if err := p.Child.Open(ctx); err != nil {
		return err
	}
	in := p.Child.Schema()
	p.schema = nil
	for _, c := range p.Cols {
		if err := expr.Bind(c.Expr, in); err != nil {
			return errOp(fmt.Sprintf("project %s", c.Name), err)
		}
		p.schema = append(p.schema, expr.ColMeta{Name: c.Name, Kind: c.Expr.Kind()})
	}
	p.out = vector.NewBatch(p.schema.Kinds())
	return nil
}

// Next implements Operator.
func (p *Project) Next() (*vector.Batch, error) {
	b, err := p.Child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	p.out.Reset()
	for i, c := range p.Cols {
		c.Expr.Eval(b, p.out.Cols[i])
	}
	p.out.GroupID = b.GroupID
	p.out.Grouped = b.Grouped
	return p.out, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.Child.Close() }

// Limit passes through at most N rows, preserving group tags.
type Limit struct {
	Child Operator
	N     int

	seen int
	out  *vector.Batch
}

// Schema implements Operator.
func (l *Limit) Schema() expr.Schema { return l.Child.Schema() }

// Open implements Operator.
func (l *Limit) Open(ctx *Context) error {
	if err := l.Child.Open(ctx); err != nil {
		return err
	}
	l.out = vector.NewBatch(l.Child.Schema().Kinds())
	return nil
}

// Next implements Operator.
func (l *Limit) Next() (*vector.Batch, error) {
	if l.seen >= l.N {
		return nil, nil
	}
	b, err := l.Child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if l.seen+b.Len() <= l.N {
		l.seen += b.Len()
		return b, nil
	}
	l.out.Reset()
	for i := 0; l.seen < l.N; i++ {
		l.out.AppendRow(b, i)
		l.seen++
	}
	l.out.GroupID = b.GroupID
	l.out.Grouped = b.Grouped
	return l.out, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.Child.Close() }
