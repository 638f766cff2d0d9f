package engine

import (
	"fmt"

	"bdcc/internal/expr"
	"bdcc/internal/vector"
)

// MergeJoin is an inner join of two streams sorted ascending on a single
// int64 key — the join the paper's primary-key baseline gets for
// LINEITEM⋈ORDERS and PARTSUPP⋈PART ("both tables share the major primary
// index key"). Only the current run of duplicate right keys is buffered, so
// its memory footprint is negligible next to a hash join's build side.
type MergeJoin struct {
	Left, Right       Operator
	LeftKey, RightKey string

	schema   expr.Schema
	ctx      *Context
	leftIdx  int
	rightIdx int

	lb   *vector.Batch
	lpos int

	rb   *vector.Batch
	rpos int

	run      *Buffer
	runKey   int64
	runValid bool
	runPos   int     // next run row to cross with the current left row
	charged  int64   // run bytes currently charged to the memory tracker
	sel      []int32 // the run rows crossed with the left row, per output batch

	out *vector.Batch
}

// Schema implements Operator.
func (m *MergeJoin) Schema() expr.Schema { return m.schema }

// Open implements Operator.
func (m *MergeJoin) Open(ctx *Context) error {
	m.ctx = ctx
	if err := m.Left.Open(ctx); err != nil {
		return err
	}
	if err := m.Right.Open(ctx); err != nil {
		return err
	}
	ls, rs := m.Left.Schema(), m.Right.Schema()
	m.schema = append(append(expr.Schema{}, ls...), rs...)
	m.leftIdx = ls.IndexOf(m.LeftKey)
	m.rightIdx = rs.IndexOf(m.RightKey)
	if m.leftIdx < 0 || m.rightIdx < 0 {
		return fmt.Errorf("engine: merge join keys %q/%q not found", m.LeftKey, m.RightKey)
	}
	if ls[m.leftIdx].Kind != vector.Int64 || rs[m.rightIdx].Kind != vector.Int64 {
		return fmt.Errorf("engine: merge join requires int64 keys")
	}
	m.run = NewBuffer(rs)
	m.out = vector.NewBatch(m.schema.Kinds())
	return nil
}

// fetchLeft ensures a current left row; returns false at end of stream.
func (m *MergeJoin) fetchLeft() (bool, error) {
	for m.lb == nil || m.lpos >= m.lb.Len() {
		b, err := m.Left.Next()
		if err != nil {
			return false, err
		}
		if b == nil {
			return false, nil
		}
		m.lb, m.lpos = b, 0
	}
	return true, nil
}

// fetchRight ensures a current right row; returns false at end of stream.
func (m *MergeJoin) fetchRight() (bool, error) {
	for m.rb == nil || m.rpos >= m.rb.Len() {
		b, err := m.Right.Next()
		if err != nil {
			return false, err
		}
		if b == nil {
			return false, nil
		}
		m.rb, m.rpos = b, 0
	}
	return true, nil
}

// loadRun positions the right cursor at key ≥ k and buffers the run of
// right rows with key exactly k (possibly empty).
func (m *MergeJoin) loadRun(k int64) error {
	m.ctx.Mem.Shrink(m.charged)
	m.charged = 0
	m.run.Reset()
	m.runKey, m.runValid = k, true
	defer func() {
		m.charged = m.run.Bytes()
		m.ctx.Mem.Grow(m.charged)
	}()
	for {
		ok, err := m.fetchRight()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		rk := m.rb.Cols[m.rightIdx].I64[m.rpos]
		if rk < k {
			m.rpos++
			continue
		}
		if rk > k {
			return nil
		}
		m.run.appendRows(m.rb.Cols, nil, m.rpos, m.rpos+1)
		m.rpos++
	}
}

// Next implements Operator.
func (m *MergeJoin) Next() (*vector.Batch, error) {
	m.out.Reset()
	for {
		ok, err := m.fetchLeft()
		if err != nil {
			return nil, err
		}
		if !ok {
			if m.out.Len() > 0 {
				return m.out, nil
			}
			return nil, nil
		}
		k := m.lb.Cols[m.leftIdx].I64[m.lpos]
		if !m.runValid || m.runKey != k {
			if m.runValid && k < m.runKey {
				return nil, fmt.Errorf("engine: merge join: left input not sorted (%d after %d)", k, m.runKey)
			}
			if err := m.loadRun(k); err != nil {
				return nil, err
			}
			m.runPos = 0
		}
		nl := len(m.lb.Cols)
		m.sel = m.sel[:0]
		for ; m.runPos < m.run.Len() && m.out.Len() < vector.BatchSize; m.runPos++ {
			for c := 0; c < nl; c++ {
				m.out.Cols[c].AppendFrom(m.lb.Cols[c], m.lpos)
			}
			m.sel = append(m.sel, int32(m.runPos))
		}
		m.run.Gather(m.out.Cols[nl:], m.sel)
		if m.runPos < m.run.Len() {
			return m.out, nil // full: the next call resumes inside this run
		}
		m.lpos++
		m.runPos = 0
		if m.out.Len() >= vector.BatchSize {
			return m.out, nil
		}
	}
}

// Close implements Operator.
func (m *MergeJoin) Close() error {
	m.ctx.Mem.Shrink(m.charged)
	m.charged = 0
	err1 := m.Left.Close()
	err2 := m.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
