package plan

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"bdcc/internal/engine"
	"bdcc/internal/expr"
	"bdcc/internal/vector"
)

// distinctRows counts the distinct values of column v per group of the
// columns groupBy over res, row by row with maps, and renders one row per
// group in first-seen order: the order the serial engine emits. -0.0 and
// +0.0 are one value, as they are one grouping key.
func distinctRows(res *engine.Result, groupBy []string, v string) []string {
	col := res.Cols[res.Schema.IndexOf(v)]
	type pair struct {
		g string
		v any
	}
	var order []string
	firsts := map[string][]string{}
	counts := map[string]int64{}
	seen := map[pair]bool{}
	for r := 0; r < res.Rows(); r++ {
		var g []string
		for _, c := range groupBy {
			g = append(g, res.Cols[res.Schema.IndexOf(c)].GetString(r))
		}
		key := fmt.Sprintf("%q", g)
		if _, ok := firsts[key]; !ok {
			order = append(order, key)
			firsts[key] = g
		}
		var val any
		switch col.Kind {
		case vector.Int64:
			val = col.I64[r]
		case vector.Float64:
			val = col.F64[r] + 0 // -0.0 + 0 is +0.0
		case vector.String:
			val = col.Str[r]
		}
		if !seen[pair{key, val}] {
			seen[pair{key, val}] = true
			counts[key]++
		}
	}
	out := make([]string, len(order))
	for i, key := range order {
		out[i] = fmt.Sprint(append(firsts[key], fmt.Sprint(counts[key])))
	}
	return out
}

// resultRows renders every row of res in order.
func resultRows(res *engine.Result) []string {
	rows := make([]string, res.Rows())
	for i := range rows {
		rows[i] = fmt.Sprint(res.Row(i))
	}
	return rows
}

// countDistinct is COUNT(DISTINCT v) named d, grouped by groupBy over n.
func countDistinct(n Node, groupBy []string, v string) *Agg {
	return &Agg{Child: n, GroupBy: groupBy,
		Aggs: []engine.AggSpec{{Name: "d", Func: engine.AggCountDistinct, Arg: expr.C(v)}}}
}

// TestCountDistinctLowering checks COUNT(DISTINCT) as the planner lowers it,
// a COUNT(*) grouping over a grouping by the keys and the argument, against
// counts taken with maps: -0.0 and +0.0 are one value, "" and "\x00" two;
// 1 000 distinct Int64 values among 5 000 rows; 3 000 distinct strings in one
// group, so the inner grouping's key Buffer spans three segments; enough
// groups that at 2, 4 and 5 workers every stripe folds more than a segment
// of them, each in the serial first-seen order; the argument among the
// grouping keys; and no grouping keys at all. Under BDCC both groupings
// sandwich on the fact's store groups. COUNT(DISTINCT) beside another
// aggregate, or over an expression, is refused with the aggregates' names.
func TestCountDistinctLowering(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewSource(5))
	negZero := math.Copysign(0, -1)
	seq := func(n int, at func(i int) int64) *vector.Vector {
		v := vector.NewVector(vector.Int64, n)
		for i := range n {
			v.AppendInt64(at(i))
		}
		return v
	}
	strs := func(xs ...string) *vector.Vector {
		v := vector.NewVector(vector.String, len(xs))
		for _, x := range xs {
			v.AppendString(x)
		}
		return v
	}
	floats := func(xs ...float64) *vector.Vector {
		v := vector.NewVector(vector.Float64, len(xs))
		for _, x := range xs {
			v.AppendFloat64(x)
		}
		return v
	}
	result := func(names []string, cols ...*vector.Vector) *engine.Result {
		res := &engine.Result{Cols: cols}
		for i, c := range cols {
			res.Schema = append(res.Schema, expr.ColMeta{Name: names[i], Kind: c.Kind})
		}
		return res
	}
	manyStrs := make([]string, 6000)
	for i := range manyStrs {
		manyStrs[i] = fmt.Sprint("v", (i*7)%3000)
	}
	const stripeRows = 20_000
	cases := []struct {
		name    string
		data    *engine.Result
		groupBy []string
		v       string
		want    string // the counts, where the case pins them
	}{
		{"zeros", result([]string{"g", "f"}, seq(7, func(i int) int64 { return int64(1 + i/3) }),
			floats(negZero, 1, 0, 2, 0, negZero, 3)), []string{"g"}, "f", "[[1 2] [2 2] [3 1]]"},
		{"strings", result([]string{"g", "s"}, seq(6, func(i int) int64 { return int64(1 + i/4) }),
			strs("", "\x00", "", "a", "\x00", "\x00")), []string{"g"}, "s", "[[1 3] [2 1]]"},
		{"ints global", result([]string{"i"}, seq(5000, func(i int) int64 { return int64(i*7) % 1000 })),
			nil, "i", "[[1000]]"},
		{"strings one group", result([]string{"g", "s"}, seq(6000, func(int) int64 { return 7 }), strs(manyStrs...)),
			[]string{"g"}, "s", "[[7 3000]]"},
		{"stripes", result([]string{"g", "v"}, seq(stripeRows, func(int) int64 { return rng.Int63n(3000) }),
			seq(stripeRows, func(int) int64 { return rng.Int63n(8) })), []string{"g"}, "v", ""},
		{"argument in keys", result([]string{"g", "v"}, seq(500, func(i int) int64 { return int64(i % 7) }),
			seq(500, func(i int) int64 { return int64(i % 5) })), []string{"v", "g"}, "v", ""},
	}
	db := f.dbs[Plain]
	for _, c := range cases {
		want := distinctRows(c.data, c.groupBy, c.v)
		if c.want != "" && fmt.Sprint(want) != c.want {
			t.Fatalf("%s: the map count is %v, want %s", c.name, want, c.want)
		}
		var serial []string
		for _, workers := range []int{1, 2, 4, 5} {
			ctx := engine.Options{Workers: workers}.NewContext(db.Device)
			p := NewPlanner(db, ctx)
			res, err := p.Run(countDistinct(&Materialized{Res: c.data}, c.groupBy, c.v))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			got := resultRows(res)
			if workers == 1 {
				serial = got
			}
			if !slices.Equal(got, want) || !slices.Equal(got, serial) {
				t.Fatalf("%s workers=%d: %d rows, want %d in first-seen order\n got %.200v\nwant %.200v",
					c.name, workers, len(got), len(want), got, want)
			}
			if cur := ctx.Mem.Current(); cur != 0 {
				t.Fatalf("%s workers=%d: %d bytes still accounted after the query", c.name, workers, cur)
			}
		}
	}

	// Every stripe of the "stripes" case's inner grouping holds more than a
	// segment of (g, v) groups.
	pairs := cases[4].data
	keys := vector.HashKeys(&vector.Batch{Cols: pairs.Cols}, []int{0, 1}, nil)
	for _, workers := range []int{2, 4, 5} {
		groups := make([]map[uint64]bool, workers)
		for i := range groups {
			groups[i] = map[uint64]bool{}
		}
		for _, h := range keys {
			groups[(h>>32)%uint64(workers)][h] = true
		}
		for w, g := range groups {
			if len(g) <= vector.BatchSize {
				t.Fatalf("workers=%d: stripe %d folds %d groups, want more than %d", workers, w, len(g), vector.BatchSize)
			}
		}
	}

	// Under BDCC the fact⋈store stream is grouped on the store dimension,
	// which f_store determines: both groupings sandwich.
	fact := f.tables["fact"]
	var factCols []*vector.Vector
	for _, c := range []string{"f_store", "f_item"} {
		v, err := fact.ColumnValues(c, 0, fact.Rows())
		if err != nil {
			t.Fatal(err)
		}
		factCols = append(factCols, v)
	}
	want := distinctRows(result([]string{"f_store", "f_item"}, factCols...), []string{"f_store"}, "f_item")
	slices.Sort(want)
	build := func() Node {
		return countDistinct(&Join{
			Left:     &Scan{Table: "fact", Cols: []string{"f_store", "f_item"}},
			Right:    &Scan{Table: "store", Cols: []string{"st_id", "st_name"}},
			LeftKeys: []string{"f_store"}, RightKeys: []string{"st_id"}, Type: engine.InnerJoin,
		}, []string{"f_store"}, "f_item")
	}
	for _, s := range []Scheme{Plain, PK, BDCC} {
		got, p := runRows(t, f.dbs[s], build())
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %v, want %v", s, got, want)
		}
		if s != BDCC {
			continue
		}
		log := strings.Join(p.Log, "\n")
		for _, line := range []string{"sandwich aggregation on [f_store f_item]", "sandwich aggregation on [f_store]"} {
			if !strings.Contains(log, line) {
				t.Errorf("no %q under BDCC; log:\n%s", line, log)
			}
		}
	}

	// The refusals name the aggregation's aggregates.
	for _, aggs := range [][]engine.AggSpec{
		{{Name: "items", Func: engine.AggCountDistinct, Arg: expr.C("f_item")}, {Name: "facts", Func: engine.AggCount}},
		{{Name: "items", Func: engine.AggCountDistinct, Arg: expr.NewArith(expr.Add, expr.C("f_item"), expr.Int(1))}},
	} {
		n := &Agg{Child: &Scan{Table: "fact", Cols: []string{"f_store", "f_item"}}, GroupBy: []string{"f_store"}, Aggs: aggs}
		_, err := NewPlanner(db, engine.NewContext(db.Device)).Plan(n)
		if err == nil || !strings.Contains(err.Error(), "COUNT(DISTINCT)") {
			t.Fatalf("%d aggregates: Plan = %v, want a COUNT(DISTINCT) refusal", len(aggs), err)
		}
		for _, a := range aggs {
			if !strings.Contains(err.Error(), a.Name) {
				t.Errorf("refusal %q does not name aggregate %s", err, a.Name)
			}
		}
	}
}
