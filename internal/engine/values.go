package engine

import (
	"bdcc/internal/expr"
	"bdcc/internal/vector"
)

// Values replays a materialized result as an operator, in batches of at most
// BatchSize rows that keep to its group runs, tagged with their groups. The
// BDCC planner feeds a pre-executed build subtree's rows back to its join
// through it (the paper's query-rewriter step learns a selection's key set
// from those rows), so the subtree runs once. Rest, when set, is an open
// operator whose batches follow the rows; Close closes it.
type Values struct {
	Rows *Result
	Rest Operator

	pos, run int
	out      *vector.Batch
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
		if v.Rest != nil {
			return v.Rest.Next()
		}
		return nil, nil
	}
	hi := min(v.pos+vector.BatchSize, n)
	v.out.Reset()
	if v.run < len(v.Rows.Runs) {
		r := v.Rows.Runs[v.run]
		hi = min(hi, r.End)
		v.out.Grouped, v.out.GroupID = true, r.GID
		if hi == r.End {
			v.run++
		}
	}
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
func (v *Values) Close() error {
	if v.Rest != nil {
		return v.Rest.Close()
	}
	return nil
}
