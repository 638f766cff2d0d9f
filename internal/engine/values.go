package engine

import (
	"bdcc/internal/expr"
	"bdcc/internal/vector"
)

// Values replays a materialized result as an operator. The BDCC planner
// pre-executes small dimension-side subtrees to turn their selections into
// bin restrictions (the paper's query-rewriter step that detects e.g. a
// consecutive D_NATION bin range from a region selection); the materialized
// rows are then fed back into the plan through this operator so the subtree
// never runs twice.
type Values struct {
	Rows *Result

	pos int
	out *vector.Batch
}

// Schema implements Operator.
func (v *Values) Schema() expr.Schema { return v.Rows.Schema }

// Open implements Operator.
func (v *Values) Open(ctx *Context) error {
	v.out = vector.NewBatch(v.Rows.Schema.Kinds())
	return nil
}

// Next implements Operator.
func (v *Values) Next() (*vector.Batch, error) {
	n := v.Rows.Rows()
	if v.pos >= n {
		return nil, nil
	}
	hi := v.pos + vector.BatchSize
	hi = min(hi, n)
	v.out.Reset()
	for c, col := range v.Rows.Cols {
		dst := v.out.Cols[c]
		switch col.Kind {
		case vector.Int64:
			dst.I64 = append(dst.I64, col.I64[v.pos:hi]...)
		case vector.Float64:
			dst.F64 = append(dst.F64, col.F64[v.pos:hi]...)
		case vector.String:
			dst.Str = append(dst.Str, col.Str[v.pos:hi]...)
		}
	}
	v.pos = hi
	return v.out, nil
}

// Close implements Operator.
func (v *Values) Close() error { return nil }
