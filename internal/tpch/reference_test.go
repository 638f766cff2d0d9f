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
	"bdcc/internal/serve"
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
						switch {
						case c.Scale > 0: // a decimal, read as the reference's float64
							row[j] = float64(ch.ValI[i]) / math.Pow10(int(c.Scale))
						case c.Kind == vector.Int64:
							row[j] = ch.ValI[i]
						case c.Kind == vector.Float64:
							row[j] = ch.ValF[i]
						default:
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

// resultValues returns the result's rows as values, in result order.
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

// identical reports how got differs from its baseline ("" when it does not):
// the same columns, the same rows in the same order, floats bit for bit.
func identical(got, want *engine.Result) string {
	if g, w := got.Schema.Names(), want.Schema.Names(); !slices.Equal(g, w) {
		return fmt.Sprintf("columns %v, baseline %v", g, w)
	}
	g, w := resultValues(got), resultValues(want)
	if len(g) != len(w) {
		return fmt.Sprintf("%d rows, baseline %d", len(g), len(w))
	}
	for i := range w {
		for j, y := range w[i] {
			same := g[i][j] == y
			if x, ok := g[i][j].(float64); ok {
				yf, isFloat := y.(float64)
				same = isFloat && math.Float64bits(x) == math.Float64bits(yf)
			}
			if !same {
				return fmt.Sprintf("row %d = %v, baseline %v", i, g[i], w[i])
			}
		}
	}
	return ""
}

// refAnswers evaluates the 22 queries on the reference.
func refAnswers(t testing.TB, db refDB) []*refRel {
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

// serialCells runs the 22 queries serially under every scheme: the
// baselines of the oracle's rows.
func serialCells(t testing.TB, dbs map[plan.Scheme]*plan.DB) map[plan.Scheme][]*engine.Result {
	out := map[plan.Scheme][]*engine.Result{}
	for s, db := range dbs {
		for _, q := range Queries {
			res, _, _, err := RunQuery(db, q)
			if err != nil {
				t.Fatalf("%s %s: %v", s, q.Name, err)
			}
			out[s] = append(out[s], res)
		}
	}
	return out
}

// checkCell holds one cell to the reference's answer as a multiset of rows
// and to its baseline byte for byte.
func checkCell(t *testing.T, s plan.Scheme, q QueryDef, res, base *engine.Result, want *refRel) {
	t.Helper()
	if names := res.Schema.Names(); !slices.Equal(names, want.names) {
		t.Errorf("%s %s: columns %v, reference %v", s, q.Name, names, want.names)
	} else if diff := sameMultiset(resultValues(res), want.rows); diff != "" {
		t.Errorf("%s %s: %s", s, q.Name, diff)
	} else if diff := identical(res, base); diff != "" {
		t.Errorf("%s %s: %s", s, q.Name, diff)
	}
}

// cellStats checks what one cell's run did beside its answer.
type cellStats func(t *testing.T, s plan.Scheme, q QueryDef, st *Stats)

// runCells runs the 22 queries on db with opt and checks every cell.
func runCells(t *testing.T, s plan.Scheme, db *plan.DB, opt RunOptions, base []*engine.Result, want []*refRel, extra cellStats) {
	t.Helper()
	for i, q := range Queries {
		res, st, _, err := RunQueryOpts(db, q, opt)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		checkCell(t, s, q, res, base[i], want[i])
		if extra != nil {
			extra(t, s, q, st)
		}
	}
}

var oracleSchemes = []plan.Scheme{plan.Plain, plan.PK, plan.BDCC}

// oracle is the read-only fixture of the oracle's knob rows: the raw and
// the compressed benchmark at SF 0.01, the reference's answers over them,
// and each scheme's serial cells on the compressed benchmark, the baseline
// of every row.
type oracle struct {
	raw, comp *Benchmark
	want      []*refRel
	base      map[plan.Scheme][]*engine.Result
}

var (
	oracleOnce sync.Once
	oracleFix  *oracle
)

func oracleFixture(t *testing.T) *oracle {
	t.Helper()
	oracleOnce.Do(func() {
		raw, comp := referenceBenchmarks(t)
		oracleFix = &oracle{raw, comp, refAnswers(t, refTables(raw.Data, nil)), serialCells(t, comp.DBs)}
	})
	if oracleFix == nil {
		t.Fatal("the oracle's fixture did not load")
	}
	return oracleFix
}

// referenceBenchmarks loads the oracle's raw and compressed benchmarks.
func referenceBenchmarks(t testing.TB) (raw, comp *Benchmark) {
	b := make([]*Benchmark, 2)
	for i := range b {
		var err error
		if b[i], err = NewBenchmarkCompressed(0.01, i == 1); err != nil {
			t.Fatal(err)
		}
	}
	return b[0], b[1]
}

// serialRow is a serial row of the oracle on one benchmark, one subtest per
// query: each scheme's cell against the reference and the baseline.
func serialRow(t *testing.T, b *Benchmark) {
	o := oracleFixture(t)
	for i, q := range Queries {
		t.Run(q.Name, func(t *testing.T) {
			for _, s := range oracleSchemes {
				res, _, _, err := RunQuery(b.DBs[s], q)
				if err != nil {
					t.Fatalf("%s: %v", s, err)
				}
				checkCell(t, s, q, res, o.base[s][i], o.want[i])
			}
		})
	}
}

// TestCrossSchemeEquivalence is the oracle's baseline row: Plain, PK and
// BDCC each answer the 22 queries as the reference does on the compressed
// benchmark, and a second serial run repeats the baseline byte for byte.
func TestCrossSchemeEquivalence(t *testing.T) { serialRow(t, oracleFixture(t).comp) }

// TestCompressionEquivalence is the oracle's raw row: on the uncompressed
// benchmark every scheme's serial answers are byte-identical to the
// compressed baseline.
func TestCompressionEquivalence(t *testing.T) { serialRow(t, oracleFixture(t).raw) }

// TestEngineMatchesReference is the query oracle: the 22 queries at SF 0.01
// under Plain, PK and BDCC, one subtest per knob. Each cell must equal the
// reference interpreter's answer as a multiset of rows, and its baseline byte
// for byte — the same rows in the same order, floats bit for bit. The
// baseline is the scheme's serial run on the compressed benchmark, whose
// serial rows are TestCrossSchemeEquivalence (compressed) and
// TestCompressionEquivalence (raw), one subtest per query; for the ingest
// rows, which append one arrival stream to a raw and a compressed benchmark
// of their own, it is the serial run of a from-scratch rebuild with the
// frozen design (referenceDBs). Beside a row sit the checks of the mechanism
// it exercises: only BDCC ships groups, a partitioned scan reads on the
// workers (over the un-merged views too, whose partitions are extracted
// from views), a merge re-compresses and reproduces the rebuild's count
// tables.
// Plain and PK of one benchmark share the tables PK's sort moves no row of
// (orders and lineitem among them), so a last row gives each its own arrival
// stream: a row of one scheme's batches showing up in the other's answers is
// a leak between them.
func TestEngineMatchesReference(t *testing.T) {
	o := oracleFixture(t)
	comp, want, base, schemes := o.comp, o.want, o.base, oracleSchemes
	srvs, addrs := startWorkers(t, 2, 2)
	units := func() (n int64) {
		for _, s := range srvs {
			n += s.UnitsDone()
		}
		return n
	}
	// Plain and PK have no group streams to ship; a BDCC run that shipped
	// groups loaded every backend.
	ships := func(backends int) cellStats {
		return func(t *testing.T, s plan.Scheme, q QueryDef, st *Stats) {
			if s != plan.BDCC && st.Net.Runs != 0 {
				t.Errorf("%s %s has no group streams but shipped %+v", s, q.Name, st.Net)
			}
			if s == plan.BDCC && st.Net.Runs > 0 && len(st.Shard) != backends {
				t.Errorf("%s: %d backend loads for %d backends", q.Name, len(st.Shard), backends)
			}
		}
	}
	// Only BDCC has scatter scans to partition; Q03, Q09 and Q19 read them on
	// both workers.
	readsOnWorkers := func(t *testing.T, s plan.Scheme, q QueryDef, st *Stats) {
		if s != plan.BDCC && st.WorkerIO != nil {
			t.Errorf("%s %s reports worker scan IO without a partitionable scan", s, q.Name)
		}
		if s == plan.BDCC && slices.Contains([]int{3, 9, 19}, q.Num) &&
			(len(st.WorkerIO) != 2 || st.WorkerIO[0].Bytes == 0 || st.WorkerIO[1].Bytes == 0) {
			t.Errorf("%s: partitioned scans read %+v on the workers", q.Name, st.WorkerIO)
		}
	}
	rows := []struct {
		name  string
		b     *Benchmark
		opt   RunOptions
		extra cellStats
	}{
		{"workers=2", comp, RunOptions{Workers: 2}, nil},
		{"workers=4", comp, RunOptions{Workers: 4}, nil},
		{"workers=1 shards=2", comp, RunOptions{Workers: 1, Shards: 2}, ships(2)},
		{"workers=4 shards=2", comp, RunOptions{Workers: 4, Shards: 2}, ships(2)},
		{"workers=1 shards=4", comp, RunOptions{Workers: 1, Shards: 4}, ships(4)},
		{"workers=4 shards=4", comp, RunOptions{Workers: 4, Shards: 4}, ships(4)},
		{"partitioned", comp, RunOptions{Workers: 2, Shards: 2, Partition: true}, readsOnWorkers},
		{"TCP", comp, RunOptions{Workers: 2, Remotes: addrs}, ships(2)},
		{"TCP partitioned", comp, RunOptions{Workers: 2, Remotes: addrs, Partition: true}, readsOnWorkers},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			before := units()
			for _, s := range schemes {
				runCells(t, s, r.b.DBs[s], r.opt, base[s], want, r.extra)
			}
			if r.opt.Remotes != nil && units() == before {
				t.Error("no unit reached a TCP worker")
			}
		})
	}
	t.Run("pre-execution declined", func(t *testing.T) {
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
			checkCell(t, plan.BDCC, q, res, base[plan.BDCC][i], want[i])
		}
	})
	// Four sessions through one bdccd: admission, pool reuse and the plan
	// cache, whose replayed plans every session after the first runs.
	t.Run("daemon", func(t *testing.T) {
		_, addr, svc := startDaemon(t, comp, serve.Config{Pools: 2, Workers: 2, QueueCap: 64, QueueWait: time.Minute})
		const clients = 4
		var wg sync.WaitGroup
		for range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := serve.Dial(addr, "")
				if err != nil {
					t.Error(err)
					return
				}
				defer c.Close()
				for _, s := range schemes {
					for i, q := range Queries {
						res, err := c.Query(s.String(), q.Name)
						if err != nil {
							t.Errorf("%s %s through the daemon: %v", s, q.Name, err)
							return
						}
						checkCell(t, s, q, res, base[s][i], want[i])
					}
				}
			}()
		}
		wg.Wait()
		hits, misses := svc.CacheStats()
		if n := int64(len(schemes) * len(Queries)); misses != n || hits != (clients-1)*n {
			t.Errorf("plan cache: %d hits, %d misses; want %d, one miss per scheme and query (%d)", hits, misses, (clients-1)*n, n)
		}
	})

	// The ingest rows append to a raw and a compressed benchmark of their
	// own: the fixture above stays read-only.
	raw, comp := referenceBenchmarks(t)
	benches := []*Benchmark{raw, comp}
	g := NewDeltaGen(raw.Data, 7)
	var batches []*DeltaBatch
	var deltaRows int64
	for range 3 {
		batches = append(batches, g.Next(40))
		deltaRows += int64(batches[len(batches)-1].Orders.Rows() + batches[len(batches)-1].Lineitem.Rows())
	}
	for _, b := range benches {
		if err := b.EnableIngest(0, 0); err != nil {
			t.Fatal(err)
		}
		for _, batch := range batches {
			if err := b.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	want = refAnswers(t, refTables(raw.Data, batches))
	rebuild := referenceDBs(t, raw, combinedWith(t, raw.Data, batches))
	base = serialCells(t, rebuild)
	// The partitioned row ships BDCC's partitions extracted from the
	// un-merged views, then from the merged tables.
	ingestRows := func(phase string) {
		for _, b := range benches {
			for _, opt := range []RunOptions{{Workers: 1}, {Workers: 4}, {Workers: 2, Shards: 2}, {Workers: 2, Shards: 2, Partition: true}} {
				name := fmt.Sprintf("%s %s workers=%d shards=%d", phase, map[bool]string{false: "raw", true: "compressed"}[b.Compressed],
					opt.Workers, max(opt.Shards, 1))
				extra := cellStats(nil)
				if opt.Partition {
					name, extra = name+" partitioned", readsOnWorkers
				}
				t.Run(name, func(t *testing.T) {
					for _, s := range schemes {
						runCells(t, s, b.DBs[s], opt, base[s], want, extra)
					}
				})
			}
		}
	}
	// lineitem returns whether the compressed benchmark's lineitem view is
	// compressed under each scheme, and the bytes BDCC reads on Q01 and Q06.
	lineitem := func(compressed bool) (read [2]int64) {
		for s, db := range comp.DBs {
			li, err := db.Snapshot().StoredTable("lineitem")
			if err != nil {
				t.Fatal(err)
			}
			if li.Compressed() != compressed {
				t.Fatalf("%s lineitem view: compressed=%v, want %v", s, li.Compressed(), compressed)
			}
		}
		for i, n := range []int{1, 6} {
			_, st, _, err := RunQuery(comp.DBs[plan.BDCC], Query(n))
			if err != nil {
				t.Fatal(err)
			}
			read[i] = st.IO.Bytes
		}
		return read
	}
	for _, b := range benches {
		for s, db := range b.DBs {
			if db.PendingDeltaRows() != deltaRows || db.Epoch() == 0 {
				t.Fatalf("%s: %d pending delta rows at epoch %d after appending %d", s, db.PendingDeltaRows(), db.Epoch(), deltaRows)
			}
		}
	}
	// Over a compressed base the views scan uncompressed; the merge
	// re-compresses, and BDCC reads fewer bytes after it.
	unmerged := lineitem(false)
	ingestRows("un-merged")
	for _, b := range benches {
		epoch := b.DBs[plan.BDCC].Epoch()
		if err := b.MergeAll(); err != nil {
			t.Fatal(err)
		}
		for s, db := range b.DBs {
			if st := db.Ingest().Stats(); st.Merges != 1 || st.MergedRows != deltaRows || st.DeltaRows != 0 || db.PendingDeltaRows() != 0 {
				t.Fatalf("%s merge counters: %+v, want 1 merge of %d rows and an empty delta", s, st, deltaRows)
			}
			if b.Compressed && db.Snapshot().CompressionStats().EncodedBytes == 0 {
				t.Fatalf("%s reports no encoded bytes after the merge", s)
			}
		}
		if b.DBs[plan.BDCC].Epoch() <= epoch {
			t.Fatalf("the merge did not advance the epoch past %d", epoch)
		}
		// The splice reproduces the rebuild's clustering: the same count
		// table and stored rows per fact table.
		for _, name := range []string{"orders", "lineitem"} {
			got, want := b.DBs[plan.BDCC].Snapshot().BDCCTable(name), rebuild[plan.BDCC].BDCCTable(name)
			if got.Data.Rows() != want.Data.Rows() || !slices.Equal(got.Count, want.Count) {
				t.Fatalf("merged %s: %d rows and %d count entries, rebuild %d and %d (or the entries differ)",
					name, got.Data.Rows(), len(got.Count), want.Data.Rows(), len(want.Count))
			}
		}
	}
	if merged := lineitem(true); merged[0] >= unmerged[0] || merged[1] >= unmerged[1] {
		t.Errorf("BDCC reads %v bytes on Q01 and Q06 after the merge, not below the %v before it", merged, unmerged)
	}
	ingestRows("merged")

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
	wants := map[plan.Scheme][]*refRel{plan.Plain: want, plan.PK: refAnswers(t, refTables(raw.Data, pkBatches))}
	bases := map[plan.Scheme][]*engine.Result{plan.Plain: base[plan.Plain],
		plan.PK: serialCells(t, referenceDBs(t, shared, combinedWith(t, shared.Data, pkBatches)))[plan.PK]}
	ownStreams := func(t *testing.T) {
		for s, db := range shared.DBs {
			runCells(t, s, db, RunOptions{}, bases[s], wants[s], nil)
		}
	}
	t.Run("un-merged on own streams", ownStreams)
	if err := shared.MergeAll(); err != nil {
		t.Fatal(err)
	}
	t.Run("merged on own streams", ownStreams)
}
