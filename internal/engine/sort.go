package engine

import (
	"fmt"
	"sort"

	"bdcc/internal/expr"
	"bdcc/internal/vector"
)

// SortSpec is one ordering criterion.
type SortSpec struct {
	Col  string
	Desc bool
}

// Sort fully materializes its input and emits it ordered by the specs.
type Sort struct {
	Child Operator
	By    []SortSpec

	ctx     *Context
	buf     *Buffer
	byIdx   []int
	perm    []int32
	pos     int
	out     *vector.Batch
	charged int64
	sorted  bool
}

// Schema implements Operator.
func (s *Sort) Schema() expr.Schema { return s.Child.Schema() }

// Open implements Operator.
func (s *Sort) Open(ctx *Context) error {
	s.ctx = ctx
	if err := s.Child.Open(ctx); err != nil {
		return err
	}
	cs := s.Child.Schema()
	for _, b := range s.By {
		i := cs.IndexOf(b.Col)
		if i < 0 {
			return fmt.Errorf("engine: sort column %q not found", b.Col)
		}
		s.byIdx = append(s.byIdx, i)
	}
	s.buf = NewBuffer(cs)
	s.out = vector.NewBatch(cs.Kinds())
	return nil
}

// materialize drains the child and sorts.
func (s *Sort) materialize() error {
	for {
		b, err := s.Child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		s.buf.AppendBatch(b)
	}
	s.charged = s.buf.Bytes()
	s.ctx.Mem.Grow(s.charged)
	s.perm = make([]int32, s.buf.Len())
	for i := range s.perm {
		s.perm[i] = int32(i)
	}
	sort.SliceStable(s.perm, func(a, b int) bool {
		return s.less(s.perm[a], s.perm[b])
	})
	s.sorted = true
	return nil
}

func (s *Sort) less(a, b int32) bool {
	for k, ci := range s.byIdx {
		c := s.buf.Col(ci)
		cmp := c.Compare(int(a), c, int(b))
		if cmp == 0 {
			continue
		}
		if s.By[k].Desc {
			return cmp > 0
		}
		return cmp < 0
	}
	return false
}

// Next implements Operator.
func (s *Sort) Next() (*vector.Batch, error) {
	if !s.sorted {
		if err := s.materialize(); err != nil {
			return nil, err
		}
	}
	if s.pos >= len(s.perm) {
		return nil, nil
	}
	s.out.Reset()
	hi := min(s.pos+vector.BatchSize, len(s.perm))
	for c, col := range s.out.Cols {
		col.AppendSelected(s.buf.Col(c), s.perm[s.pos:hi])
	}
	s.pos = hi
	return s.out, nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.ctx.Mem.Shrink(s.charged)
	s.charged = 0
	return s.Child.Close()
}

// TopN emits the first N rows of the sorted order. It is Sort followed by
// Limit: the whole input is materialized, sorted and charged to the memory
// tracker like any sort buffer, and only the emission stops at N — there is
// no bounded reservoir, so N bounds neither the memory held nor the peak
// charged.
type TopN struct {
	Child Operator
	By    []SortSpec
	N     int

	sorter *Sort
	inner  Operator
}

// Schema implements Operator.
func (t *TopN) Schema() expr.Schema { return t.Child.Schema() }

// Open implements Operator.
func (t *TopN) Open(ctx *Context) error {
	// A bounded reservoir would complicate the code for no observable
	// effect at reproduction scale: TPC-H LIMIT queries sort aggregate
	// results that are already small.
	t.sorter = &Sort{Child: t.Child, By: t.By}
	t.inner = &Limit{Child: t.sorter, N: t.N}
	return t.inner.Open(ctx)
}

// Next implements Operator.
func (t *TopN) Next() (*vector.Batch, error) { return t.inner.Next() }

// Close implements Operator.
func (t *TopN) Close() error { return t.inner.Close() }
