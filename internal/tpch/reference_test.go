package tpch

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"bdcc/internal/engine"
	"bdcc/internal/expr"
	"bdcc/internal/plan"
	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// This file is an independent reference for the 22 logical plans: a naive
// row-at-a-time interpreter over the raw generated tables. A value is a Go
// int64, float64 or string; a relation is named columns over a slice of
// rows; joins and groupings key Go maps by a printed key. It calls nothing of
// engine's operators, expr's evaluation, the vector kernels, core or the
// storage encodings: it reads the values of the uncompressed generated tables'
// raw chunks (arrays as generated) and the logical plan's exported fields,
// and nothing else.

// refRel is a relation: column names and rows of values.
type refRel struct {
	names []string
	rows  [][]any
}

func (r *refRel) col(name string) int {
	i := slices.Index(r.names, name)
	if i < 0 {
		panic(fmt.Sprintf("reference: no column %q in %v", name, r.names))
	}
	return i
}

// refDB is the reference's database: every table's rows, base then appends.
type refDB map[string]*refRel

// refTables reads the uncompressed generated tables, with each appended
// batch's rows after them.
func refTables(d *Dataset, batches []*DeltaBatch) refDB {
	out := refDB{}
	for name, t := range d.Tables {
		r := &refRel{}
		for _, c := range t.Cols {
			r.names = append(r.names, c.Name)
		}
		more := []*storage.Table{t}
		for _, b := range batches {
			switch name {
			case "orders":
				more = append(more, b.Orders)
			case "lineitem":
				more = append(more, b.Lineitem)
			}
		}
		for _, m := range more {
			first := len(r.rows)
			for range m.Rows() {
				r.rows = append(r.rows, make([]any, len(m.Cols)))
			}
			for j, c := range m.Cols {
				for _, ch := range c.Enc.Chunks { // uncompressed: raw chunks, values as generated
					if ch.Enc != storage.EncRaw {
						panic(fmt.Sprintf("reference: table %s column %s is compressed", name, c.Name))
					}
					for i := range ch.Rows {
						row := r.rows[first+ch.Start+i]
						switch c.Kind {
						case vector.Int64:
							row[j] = ch.ValI[i]
						case vector.Float64:
							row[j] = ch.ValF[i]
						case vector.String:
							row[j] = ch.ValS.At(i)
						}
					}
				}
			}
		}
		out[name] = r
	}
	return out
}

// Scalar, Materialize and Rows make refDB the environment of a query build:
// the reference answers the subqueries itself.
func (db refDB) Scalar(n plan.Node) (float64, error) {
	r := db.eval(n)
	if len(r.rows) != 1 {
		return 0, fmt.Errorf("reference: scalar subquery returned %d rows", len(r.rows))
	}
	switch v := r.rows[0][0].(type) {
	case int64:
		return float64(v), nil
	default:
		return v.(float64), nil
	}
}

func (db refDB) Materialize(n plan.Node) (*plan.Materialized, *engine.Result, error) {
	r := db.eval(n)
	res := &engine.Result{}
	for j, name := range r.names {
		k := vector.Int64
		if len(r.rows) > 0 {
			switch r.rows[0][j].(type) {
			case float64:
				k = vector.Float64
			case string:
				k = vector.String
			}
		}
		v := &vector.Vector{Kind: k}
		for _, row := range r.rows {
			switch k {
			case vector.Int64:
				v.I64 = append(v.I64, row[j].(int64))
			case vector.Float64:
				v.F64 = append(v.F64, row[j].(float64))
			case vector.String:
				v.Str = append(v.Str, row[j].(string))
			}
		}
		res.Schema = append(res.Schema, expr.ColMeta{Name: name, Kind: k})
		res.Cols = append(res.Cols, v)
	}
	return &plan.Materialized{Res: res}, res, nil
}

func (db refDB) Rows(table string) int { return len(db[table].rows) }

// eval evaluates a logical plan node.
func (db refDB) eval(n plan.Node) *refRel {
	switch n := n.(type) {
	case *plan.Scan:
		src := db[n.Table]
		out := &refRel{}
		for _, c := range n.Cols {
			if n.Alias != "" {
				c = n.Alias + "_" + c
			}
			out.names = append(out.names, c)
		}
		idx := make([]int, len(n.Cols))
		for i, c := range n.Cols {
			idx[i] = src.col(c)
		}
		for _, row := range src.rows {
			if n.Filter != nil && !refTrue(refEval(n.Filter, src.names, row)) {
				continue
			}
			o := make([]any, len(idx))
			for i, j := range idx {
				o[i] = row[j]
			}
			out.rows = append(out.rows, o)
		}
		return out
	case *plan.Materialized:
		out := &refRel{names: n.Res.Schema.Names()}
		for i := range n.Res.Rows() {
			row := make([]any, len(n.Res.Cols))
			for j, v := range n.Res.Cols {
				switch v.Kind {
				case vector.Int64:
					row[j] = v.I64[i]
				case vector.Float64:
					row[j] = v.F64[i]
				case vector.String:
					row[j] = v.Str[i]
				}
			}
			out.rows = append(out.rows, row)
		}
		return out
	case *plan.FilterNode:
		in := db.eval(n.Child)
		out := &refRel{names: in.names}
		for _, row := range in.rows {
			if refTrue(refEval(n.Pred, in.names, row)) {
				out.rows = append(out.rows, row)
			}
		}
		return out
	case *plan.Project:
		in := db.eval(n.Child)
		out := &refRel{}
		for _, c := range n.Cols {
			out.names = append(out.names, c.Name)
		}
		for _, row := range in.rows {
			o := make([]any, len(n.Cols))
			for i, c := range n.Cols {
				o[i] = refEval(c.Expr, in.names, row)
			}
			out.rows = append(out.rows, o)
		}
		return out
	case *plan.Join:
		return db.join(n)
	case *plan.Agg:
		return refAgg(db.eval(n.Child), n)
	case *plan.OrderBy:
		in := db.eval(n.Child)
		refSort(in, n.By)
		return in
	case *plan.TopNNode:
		in := db.eval(n.Child)
		refSort(in, n.By)
		in.rows = in.rows[:min(n.N, len(in.rows))]
		return in
	case *plan.LimitNode:
		in := db.eval(n.Child)
		in.rows = in.rows[:min(n.N, len(in.rows))]
		return in
	}
	panic(fmt.Sprintf("reference: plan node %T", n))
}

// refKey prints the values at the given positions as one map key.
func refKey(row []any, at []int) string {
	var b strings.Builder
	for _, j := range at {
		fmt.Fprintf(&b, "%#v|", row[j])
	}
	return b.String()
}

// join is a hash join: the build side's rows by key, then every probe row
// against its key's list, the residual over the combined row.
func (db refDB) join(n *plan.Join) *refRel {
	l, r := db.eval(n.Left), db.eval(n.Right)
	lk, rk := make([]int, len(n.LeftKeys)), make([]int, len(n.RightKeys))
	for i := range lk {
		lk[i], rk[i] = l.col(n.LeftKeys[i]), r.col(n.RightKeys[i])
	}
	build := map[string][][]any{}
	for _, row := range r.rows {
		k := refKey(row, rk)
		build[k] = append(build[k], row)
	}
	both := append(slices.Clone(l.names), r.names...)
	out := &refRel{names: l.names}
	switch n.Type {
	case engine.InnerJoin:
		out.names = both
	case engine.LeftOuterJoin:
		out.names = append(both, engine.MatchedColName)
	}
	for _, lrow := range l.rows {
		matched := false
		for _, rrow := range build[refKey(lrow, lk)] {
			row := append(slices.Clone(lrow), rrow...)
			if n.Residual != nil && !refTrue(refEval(n.Residual, both, row)) {
				continue
			}
			matched = true
			if n.Type == engine.InnerJoin {
				out.rows = append(out.rows, row)
			}
			if n.Type == engine.LeftOuterJoin {
				out.rows = append(out.rows, append(row, int64(1)))
			}
		}
		switch {
		case n.Type == engine.SemiJoin && matched, n.Type == engine.AntiJoin && !matched:
			out.rows = append(out.rows, lrow)
		case n.Type == engine.LeftOuterJoin && !matched:
			row := slices.Clone(lrow)
			for _, v := range r.rows[0] { // zero values of the right columns
				row = append(row, refZero(v))
			}
			out.rows = append(out.rows, append(row, int64(0)))
		}
	}
	return out
}

func refZero(v any) any {
	switch v.(type) {
	case int64:
		return int64(0)
	case float64:
		return 0.0
	}
	return ""
}

// refAgg groups rows by the group-by columns in first-seen order; a float
// sum adds its summands in sorted order, so it does not depend on row order.
func refAgg(in *refRel, n *plan.Agg) *refRel {
	gb := make([]int, len(n.GroupBy))
	for i, g := range n.GroupBy {
		gb[i] = in.col(g)
	}
	groups := map[string]int{}
	var keys [][]any
	var members [][][]any
	for _, row := range in.rows {
		k := refKey(row, gb)
		g, ok := groups[k]
		if !ok {
			g = len(keys)
			groups[k] = g
			key := make([]any, len(gb))
			for i, j := range gb {
				key[i] = row[j]
			}
			keys, members = append(keys, key), append(members, nil)
		}
		members[g] = append(members[g], row)
	}
	if len(gb) == 0 && len(keys) == 0 {
		keys, members = [][]any{{}}, [][][]any{nil}
	}
	out := &refRel{names: slices.Clone(n.GroupBy)}
	for _, a := range n.Aggs {
		out.names = append(out.names, a.Name)
	}
	for g, key := range keys {
		row := key
		for _, a := range n.Aggs {
			var args []any
			for _, m := range members[g] {
				if a.Arg != nil {
					args = append(args, refEval(a.Arg, in.names, m))
				}
			}
			row = append(row, refFold(a.Func, args, len(members[g])))
		}
		out.rows = append(out.rows, row)
	}
	return out
}

func refFold(f engine.AggFunc, args []any, n int) any {
	switch f {
	case engine.AggCount:
		return int64(n)
	case engine.AggCountDistinct:
		seen := map[any]bool{}
		for _, v := range args {
			seen[v] = true
		}
		return int64(len(seen))
	case engine.AggMin, engine.AggMax:
		if len(args) == 0 {
			return int64(0)
		}
		best := args[0]
		for _, v := range args[1:] {
			if c := refCmp(v, best); (f == engine.AggMin && c < 0) || (f == engine.AggMax && c > 0) {
				best = v
			}
		}
		return best
	}
	var fs []float64
	var isum int64
	isInt := len(args) > 0
	for _, v := range args {
		switch v := v.(type) {
		case int64:
			isum += v
			fs = append(fs, float64(v))
		case float64:
			isInt = false
			fs = append(fs, v)
		}
	}
	slices.Sort(fs)
	var sum float64
	for _, v := range fs {
		sum += v
	}
	if f == engine.AggAvg {
		return sum / float64(n)
	}
	if isInt {
		return isum
	}
	return sum
}

// refSort orders rows by the sort specs, stably.
func refSort(r *refRel, by []engine.SortSpec) {
	sort.SliceStable(r.rows, func(a, b int) bool {
		for _, s := range by {
			j := r.col(s.Col)
			if c := refCmp(r.rows[a][j], r.rows[b][j]); c != 0 {
				return (c < 0) != s.Desc
			}
		}
		return false
	})
}

func refCmp(a, b any) int {
	switch a := a.(type) {
	case string:
		return strings.Compare(a, b.(string))
	}
	x, y := refFloat(a), refFloat(b)
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

func refFloat(v any) float64 {
	if i, ok := v.(int64); ok {
		return float64(i)
	}
	return v.(float64)
}

func refTrue(v any) bool { return v.(int64) != 0 }

func refBool(b bool) any {
	if b {
		return int64(1)
	}
	return int64(0)
}

// refEval evaluates an expression over one row.
func refEval(e expr.Expr, names []string, row []any) any {
	switch e := e.(type) {
	case *expr.Col:
		return row[slices.Index(names, e.Name)]
	case *expr.Const:
		switch e.K {
		case vector.Int64:
			return e.I
		case vector.Float64:
			return e.F
		}
		return e.S
	case *expr.Cmp:
		c := refCmp(refEval(e.L, names, row), refEval(e.R, names, row))
		return refBool([...]bool{expr.EQ: c == 0, expr.NE: c != 0, expr.LT: c < 0,
			expr.LE: c <= 0, expr.GT: c > 0, expr.GE: c >= 0}[e.Op])
	case *expr.And:
		for _, a := range e.Args {
			if !refTrue(refEval(a, names, row)) {
				return int64(0)
			}
		}
		return int64(1)
	case *expr.Or:
		for _, a := range e.Args {
			if refTrue(refEval(a, names, row)) {
				return int64(1)
			}
		}
		return int64(0)
	case *expr.Not:
		return refBool(!refTrue(refEval(e.Arg, names, row)))
	case *expr.Arith:
		l, r := refEval(e.L, names, row), refEval(e.R, names, row)
		li, lok := l.(int64)
		ri, rok := r.(int64)
		if lok && rok {
			return [...]int64{expr.Add: li + ri, expr.Sub: li - ri, expr.Mul: li * ri, expr.Div: refDiv(li, ri)}[e.Op]
		}
		x, y := refFloat(l), refFloat(r)
		return [...]float64{expr.Add: x + y, expr.Sub: x - y, expr.Mul: x * y, expr.Div: x / y}[e.Op]
	case *expr.Case:
		if refTrue(refEval(e.When, names, row)) {
			return refEval(e.Then, names, row)
		}
		return refEval(e.Else, names, row)
	case *expr.Year:
		d := refEval(e.Arg, names, row).(int64)
		return int64(time.Unix(d*86400, 0).UTC().Year())
	case *expr.Substr:
		s := refEval(e.Arg, names, row).(string)
		lo := min(max(e.Start-1, 0), len(s))
		return s[lo:min(lo+e.Length, len(s))]
	case *expr.InList:
		v := refEval(e.Arg, names, row)
		in := slices.ContainsFunc(e.Values, func(c *expr.Const) bool { return refCmp(v, refEval(c, names, row)) == 0 })
		return refBool(in != e.Negate)
	case *expr.Like:
		return refBool(refLike(e.Pattern).MatchString(refEval(e.Arg, names, row).(string)) != e.Negate)
	}
	panic(fmt.Sprintf("reference: expression %T", e))
}

func refDiv(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var refLikes sync.Map // pattern → *regexp.Regexp

// refLike compiles a LIKE pattern: % any run, _ one character.
func refLike(p string) *regexp.Regexp {
	if re, ok := refLikes.Load(p); ok {
		return re.(*regexp.Regexp)
	}
	var b strings.Builder
	b.WriteString(`(?s)^`)
	for _, r := range p {
		switch r {
		case '%':
			b.WriteString(".*")
		case '_':
			b.WriteString(".")
		default:
			b.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	re := regexp.MustCompile(b.String() + "$")
	refLikes.Store(p, re)
	return re
}

// refRows returns the result's rows as values, in result order.
func resultValues(res *engine.Result) [][]any {
	out := make([][]any, res.Rows())
	for i := range out {
		for _, v := range res.Cols {
			switch v.Kind {
			case vector.Int64:
				out[i] = append(out[i], v.I64[i])
			case vector.Float64:
				out[i] = append(out[i], v.F64[i])
			case vector.String:
				out[i] = append(out[i], v.Str[i])
			}
		}
	}
	return out
}

// sameMultiset reports how got and want differ as multisets of rows ("" when
// they agree): rows are sorted by their printed values, floats at 6
// significant digits, and paired up; a float may differ by 1e-9 relative,
// the room the engine's summation order leaves.
func sameMultiset(got, want [][]any) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	key := func(row []any) string {
		var b strings.Builder
		for _, v := range row {
			if f, ok := v.(float64); ok {
				fmt.Fprintf(&b, "%.6g|", f)
			} else {
				fmt.Fprintf(&b, "%v|", v)
			}
		}
		return b.String()
	}
	sorted := func(rows [][]any) [][]any {
		rows = slices.Clone(rows)
		slices.SortStableFunc(rows, func(a, b []any) int { return strings.Compare(key(a), key(b)) })
		return rows
	}
	g, w := sorted(got), sorted(want)
	for i := range g {
		for j := range w[i] {
			x, y := g[i][j], w[i][j]
			if xf, ok := x.(float64); ok {
				yf, ok := y.(float64)
				if !ok || math.Abs(xf-yf) > 1e-9*max(math.Abs(xf), math.Abs(yf), 1) {
					return fmt.Sprintf("row %v, want %v", g[i], w[i])
				}
			} else if x != y {
				return fmt.Sprintf("row %v, want %v", g[i], w[i])
			}
		}
	}
	return ""
}

// declinedEnv builds and plans a query, sub-plans included, with canPrune
// declining pre-execution at every site (the AuditCanPrune test hook).
type declinedEnv struct{ *Env }

func decline(why string) string {
	if why == "" {
		why = "declined by the test"
	}
	return why
}

func (e declinedEnv) run(n plan.Node) (*engine.Result, error) {
	p := plan.NewPlanner(e.DB, e.Ctx)
	p.AuditCanPrune(decline, nil)
	return p.Run(n)
}

func (e declinedEnv) Scalar(n plan.Node) (float64, error) {
	res, err := e.run(n)
	if err != nil || res.Rows() != 1 {
		return 0, fmt.Errorf("declined scalar: %d rows, %v", res.Rows(), err)
	}
	return refFloat(resultValues(res)[0][0]), nil
}

func (e declinedEnv) Materialize(n plan.Node) (*plan.Materialized, *engine.Result, error) {
	res, err := e.run(n)
	return &plan.Materialized{Res: res}, res, err
}

// TestEngineMatchesReference holds the engine to the reference interpreter
// on all 22 queries at SF 0.01, as multisets of rows, under every scheme and
// knob: uncompressed; compressed with 1 and 2 workers; partitioned over two
// simulated workers; with pre-execution declined everywhere; after three
// appends not yet merged, and after the merge. Plain and PK of one benchmark
// share the tables PK's sort moves no row of (orders and lineitem among
// them), so a last row gives each its own arrival stream: a row of one
// scheme's batches showing up in the other's answers is a leak between them.
func TestEngineMatchesReference(t *testing.T) {
	raw, err := NewBenchmarkCompressed(0.01, false)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := NewBenchmarkCompressed(0.01, true)
	if err != nil {
		t.Fatal(err)
	}
	answers := func(db refDB) []*refRel {
		out := make([]*refRel, len(Queries))
		for i, q := range Queries {
			node, err := q.Build(db)
			if err != nil {
				t.Fatalf("reference %s build: %v", q.Name, err)
			}
			out[i] = db.eval(node)
		}
		return out
	}
	compare := func(label string, q QueryDef, res *engine.Result, want *refRel) {
		t.Helper()
		if names := res.Schema.Names(); !slices.Equal(names, want.names) {
			t.Errorf("%s %s: columns %v, reference %v", label, q.Name, names, want.names)
		} else if diff := sameMultiset(resultValues(res), want.rows); diff != "" {
			t.Errorf("%s %s: %s", label, q.Name, diff)
		}
	}
	check := func(label string, db *plan.DB, opt RunOptions, want []*refRel) {
		t.Helper()
		for i, q := range Queries {
			res, _, _, err := RunQueryOpts(db, q, opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			compare(label, q, res, want[i])
		}
	}
	want := answers(refTables(raw.Data, nil))
	schemes := []plan.Scheme{plan.Plain, plan.PK, plan.BDCC}
	for _, s := range schemes {
		check(fmt.Sprintf("%s raw", s), raw.DBs[s], RunOptions{}, want)
		check(fmt.Sprintf("%s compressed", s), comp.DBs[s], RunOptions{}, want)
		check(fmt.Sprintf("%s compressed, 2 workers", s), comp.DBs[s], RunOptions{Workers: 2}, want)
		check(fmt.Sprintf("%s partitioned", s), comp.DBs[s], RunOptions{Workers: 2, Shards: 2, Partition: true}, want)
	}
	for i, q := range Queries {
		env := declinedEnv{NewEnvOpts(comp.DBs[plan.BDCC], RunOptions{})}
		node, err := q.Build(env)
		if err != nil {
			t.Fatal(err)
		}
		res, err := env.run(node)
		if err != nil {
			t.Fatal(err)
		}
		compare("BDCC pre-execution declined", q, res, want[i])
	}

	if err := comp.EnableIngest(0, 0); err != nil {
		t.Fatal(err)
	}
	g := NewDeltaGen(comp.Data, 7)
	var batches []*DeltaBatch
	for range 3 {
		batches = append(batches, g.Next(40))
		if err := comp.AppendBatch(batches[len(batches)-1]); err != nil {
			t.Fatal(err)
		}
	}
	want = answers(refTables(raw.Data, batches))
	for _, s := range schemes {
		check(fmt.Sprintf("%s after 3 appends", s), comp.DBs[s], RunOptions{}, want)
	}
	if err := comp.MergeAll(); err != nil {
		t.Fatal(err)
	}
	for _, s := range schemes {
		check(fmt.Sprintf("%s after the merge", s), comp.DBs[s], RunOptions{Workers: 2}, want)
	}

	shared, err := NewBenchmarkCompressed(0.01, true, plan.Plain, plan.PK)
	if err != nil {
		t.Fatal(err)
	}
	if err := shared.EnableIngest(0, 0); err != nil {
		t.Fatal(err)
	}
	// Plain takes the stream above once more (its answers are want), PK a
	// stream of its own.
	g = NewDeltaGen(shared.Data, 8)
	var pkBatches []*DeltaBatch
	for _, b := range batches {
		pkBatches = append(pkBatches, g.Next(40))
		if err := appendTo(shared.DBs[plan.Plain], b); err != nil {
			t.Fatal(err)
		}
		if err := appendTo(shared.DBs[plan.PK], pkBatches[len(pkBatches)-1]); err != nil {
			t.Fatal(err)
		}
	}
	wants := map[plan.Scheme][]*refRel{plan.Plain: want, plan.PK: answers(refTables(raw.Data, pkBatches))}
	for s, w := range wants {
		check(fmt.Sprintf("%s on its own stream after 3 appends", s), shared.DBs[s], RunOptions{}, w)
	}
	if err := shared.MergeAll(); err != nil {
		t.Fatal(err)
	}
	for s, w := range wants {
		check(fmt.Sprintf("%s on its own stream after the merge", s), shared.DBs[s], RunOptions{}, w)
	}
}
