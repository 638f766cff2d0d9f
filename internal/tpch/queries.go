package tpch

import (
	"bdcc/internal/engine"
	"bdcc/internal/expr"
	"bdcc/internal/plan"
)

// Plan-building shorthand. Every query constructs fresh expression trees per
// execution (expressions bind in place), so builders are plain functions.

func sc(table string, filter expr.Expr, cols ...string) *plan.Scan {
	return &plan.Scan{Table: table, Cols: cols, Filter: filter}
}

func scAs(table, alias string, filter expr.Expr, cols ...string) *plan.Scan {
	return &plan.Scan{Table: table, Alias: alias, Cols: cols, Filter: filter}
}

func jn(l, r plan.Node, lk, rk string) *plan.Join {
	return &plan.Join{Left: l, Right: r, LeftKeys: []string{lk}, RightKeys: []string{rk}, Type: engine.InnerJoin}
}

func semi(l, r plan.Node, lk, rk string, residual expr.Expr) *plan.Join {
	return &plan.Join{Left: l, Right: r, LeftKeys: []string{lk}, RightKeys: []string{rk},
		Type: engine.SemiJoin, Residual: residual}
}

func anti(l, r plan.Node, lk, rk string, residual expr.Expr) *plan.Join {
	return &plan.Join{Left: l, Right: r, LeftKeys: []string{lk}, RightKeys: []string{rk},
		Type: engine.AntiJoin, Residual: residual}
}

func agg(child plan.Node, by []string, aggs ...engine.AggSpec) *plan.Agg {
	return &plan.Agg{Child: child, GroupBy: by, Aggs: aggs}
}

func sum(name string, e expr.Expr) engine.AggSpec {
	return engine.AggSpec{Name: name, Func: engine.AggSum, Arg: e}
}
func avg(name string, e expr.Expr) engine.AggSpec {
	return engine.AggSpec{Name: name, Func: engine.AggAvg, Arg: e}
}
func cnt(name string) engine.AggSpec { return engine.AggSpec{Name: name, Func: engine.AggCount} }
func mn(name string, e expr.Expr) engine.AggSpec {
	return engine.AggSpec{Name: name, Func: engine.AggMin, Arg: e}
}

func proj(child plan.Node, cols ...engine.ProjCol) *plan.Project {
	return &plan.Project{Child: child, Cols: cols}
}

func pc(name string, e expr.Expr) engine.ProjCol { return engine.ProjCol{Name: name, Expr: e} }

func keep(names ...string) []engine.ProjCol {
	out := make([]engine.ProjCol, len(names))
	for i, n := range names {
		out[i] = engine.ProjCol{Name: n, Expr: expr.C(n)}
	}
	return out
}

func orderBy(child plan.Node, by ...engine.SortSpec) *plan.OrderBy {
	return &plan.OrderBy{Child: child, By: by}
}

func topN(child plan.Node, n int, by ...engine.SortSpec) *plan.TopNNode {
	return &plan.TopNNode{Child: child, By: by, N: n}
}

func asc(col string) engine.SortSpec  { return engine.SortSpec{Col: col} }
func desc(col string) engine.SortSpec { return engine.SortSpec{Col: col, Desc: true} }

// revenue is l_extendedprice * (1 - l_discount).
func revenue() expr.Expr {
	return expr.NewArith(expr.Mul, expr.C("l_extendedprice"),
		expr.NewArith(expr.Sub, expr.Float(1), expr.C("l_discount")))
}

func and(es ...expr.Expr) expr.Expr { return expr.NewAnd(es...) }

func between(c string, lo, hi expr.Expr) expr.Expr { return expr.Between(expr.C(c), lo, hi) }

func strs(vals ...string) []*expr.Const {
	out := make([]*expr.Const, len(vals))
	for i, v := range vals {
		out[i] = expr.Str(v)
	}
	return out
}

// Queries lists all 22 TPC-H queries with the specification's validation
// parameters.
var Queries = []QueryDef{
	{1, "Q01", q01}, {2, "Q02", q02}, {3, "Q03", q03}, {4, "Q04", q04},
	{5, "Q05", q05}, {6, "Q06", q06}, {7, "Q07", q07}, {8, "Q08", q08},
	{9, "Q09", q09}, {10, "Q10", q10}, {11, "Q11", q11}, {12, "Q12", q12},
	{13, "Q13", q13}, {14, "Q14", q14}, {15, "Q15", q15}, {16, "Q16", q16},
	{17, "Q17", q17}, {18, "Q18", q18}, {19, "Q19", q19}, {20, "Q20", q20},
	{21, "Q21", q21}, {22, "Q22", q22},
}

// Query returns the named query definition.
func Query(num int) QueryDef { return Queries[num-1] }

// q01: pricing summary report — a ~97% scan with heavy aggregation; the
// paper notes no indexing scheme can accelerate it.
func q01(e Subqueries) (plan.Node, error) {
	li := sc("lineitem",
		expr.NewCmp(expr.LE, expr.C("l_shipdate"), expr.Date("1998-09-02")),
		"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_shipdate")
	discPrice := expr.NewArith(expr.Mul, expr.C("l_extendedprice"),
		expr.NewArith(expr.Sub, expr.Float(1), expr.C("l_discount")))
	charge := expr.NewArith(expr.Mul,
		expr.NewArith(expr.Mul, expr.C("l_extendedprice"),
			expr.NewArith(expr.Sub, expr.Float(1), expr.C("l_discount"))),
		expr.NewArith(expr.Add, expr.Float(1), expr.C("l_tax")))
	a := agg(li, []string{"l_returnflag", "l_linestatus"},
		sum("sum_qty", expr.C("l_quantity")),
		sum("sum_base_price", expr.C("l_extendedprice")),
		sum("sum_disc_price", discPrice),
		sum("sum_charge", charge),
		avg("avg_qty", expr.C("l_quantity")),
		avg("avg_price", expr.C("l_extendedprice")),
		avg("avg_disc", expr.C("l_discount")),
		cnt("count_order"))
	return orderBy(a, asc("l_returnflag"), asc("l_linestatus")), nil
}

// q02: minimum cost supplier in EUROPE for size-15 %BRASS parts.
func q02(e Subqueries) (plan.Node, error) {
	europeSupPS := func() plan.Node {
		nat := jn(
			sc("nation", nil, "n_nationkey", "n_name", "n_regionkey"),
			sc("region", expr.Eq(expr.C("r_name"), expr.Str("EUROPE")), "r_regionkey", "r_name"),
			"n_regionkey", "r_regionkey")
		sup := jn(
			sc("supplier", nil, "s_suppkey", "s_name", "s_address", "s_nationkey", "s_phone", "s_acctbal", "s_comment"),
			nat, "s_nationkey", "n_nationkey")
		return jn(
			sc("partsupp", nil, "ps_partkey", "ps_suppkey", "ps_supplycost"),
			sup, "ps_suppkey", "s_suppkey")
	}
	minCost := proj(
		agg(europeSupPS(), []string{"ps_partkey"}, mn("min_cost", expr.C("ps_supplycost"))),
		pc("mc_partkey", expr.C("ps_partkey")), pc("mc_cost", expr.C("min_cost")))
	part := sc("part", and(
		expr.Eq(expr.C("p_size"), expr.Int(15)),
		expr.NewLike(expr.C("p_type"), "%BRASS")),
		"p_partkey", "p_mfgr", "p_size", "p_type")
	j := jn(europeSupPS(), part, "ps_partkey", "p_partkey")
	j2 := &plan.Join{Left: j, Right: minCost,
		LeftKeys:  []string{"ps_partkey", "ps_supplycost"},
		RightKeys: []string{"mc_partkey", "mc_cost"},
		Type:      engine.InnerJoin}
	p := proj(j2, keep("s_acctbal", "s_name", "n_name", "p_partkey", "p_mfgr", "s_address", "s_phone", "s_comment")...)
	return topN(p, 100, desc("s_acctbal"), asc("n_name"), asc("s_name"), asc("p_partkey")), nil
}

// q03: shipping priority — the paper's canonical pushdown+sandwich query.
func q03(e Subqueries) (plan.Node, error) {
	cust := sc("customer", expr.Eq(expr.C("c_mktsegment"), expr.Str("BUILDING")), "c_custkey", "c_mktsegment")
	ord := sc("orders", expr.NewCmp(expr.LT, expr.C("o_orderdate"), expr.Date("1995-03-15")),
		"o_orderkey", "o_custkey", "o_orderdate", "o_shippriority")
	li := sc("lineitem", expr.NewCmp(expr.GT, expr.C("l_shipdate"), expr.Date("1995-03-15")),
		"l_orderkey", "l_extendedprice", "l_discount", "l_shipdate")
	j := jn(jn(li, ord, "l_orderkey", "o_orderkey"), cust, "o_custkey", "c_custkey")
	a := agg(j, []string{"l_orderkey", "o_orderdate", "o_shippriority"}, sum("revenue", revenue()))
	return topN(a, 10, desc("revenue"), asc("o_orderdate")), nil
}

// q04: order priority checking — semi join against late lineitems.
func q04(e Subqueries) (plan.Node, error) {
	ord := sc("orders", between("o_orderdate", expr.Date("1993-07-01"), expr.Date("1993-09-30")),
		"o_orderkey", "o_orderdate", "o_orderpriority")
	li := sc("lineitem", expr.NewCmp(expr.LT, expr.C("l_commitdate"), expr.C("l_receiptdate")),
		"l_orderkey", "l_commitdate", "l_receiptdate")
	s := semi(ord, li, "o_orderkey", "l_orderkey", nil)
	a := agg(s, []string{"o_orderpriority"}, cnt("order_count"))
	return orderBy(a, asc("o_orderpriority")), nil
}

// q05: local supplier volume — region selection propagated to every fact
// scan through D_NATION.
func q05(e Subqueries) (plan.Node, error) {
	nat := jn(
		sc("nation", nil, "n_nationkey", "n_name", "n_regionkey"),
		sc("region", expr.Eq(expr.C("r_name"), expr.Str("ASIA")), "r_regionkey", "r_name"),
		"n_regionkey", "r_regionkey")
	ord := sc("orders", between("o_orderdate", expr.Date("1994-01-01"), expr.Date("1994-12-31")),
		"o_orderkey", "o_custkey", "o_orderdate")
	li := sc("lineitem", nil, "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount")
	j := jn(li, ord, "l_orderkey", "o_orderkey")
	j = jn(j, sc("customer", nil, "c_custkey", "c_nationkey"), "o_custkey", "c_custkey")
	j = jn(j, sc("supplier", nil, "s_suppkey", "s_nationkey"), "l_suppkey", "s_suppkey")
	f := &plan.FilterNode{Child: j, Pred: expr.Eq(expr.C("c_nationkey"), expr.C("s_nationkey"))}
	j2 := jn(f, nat, "s_nationkey", "n_nationkey")
	a := agg(j2, []string{"n_name"}, sum("revenue", revenue()))
	return orderBy(a, desc("revenue")), nil
}

// q06: forecasting revenue change — pure selection; BDCC wins through the
// o_orderdate/l_shipdate correlation and MinMax indexes.
func q06(e Subqueries) (plan.Node, error) {
	li := sc("lineitem", and(
		between("l_shipdate", expr.Date("1994-01-01"), expr.Date("1994-12-31")),
		between("l_discount", expr.Float(0.05), expr.Float(0.07)),
		expr.NewCmp(expr.LT, expr.C("l_quantity"), expr.Float(24))),
		"l_shipdate", "l_discount", "l_quantity", "l_extendedprice")
	return agg(li, nil, sum("revenue",
		expr.NewArith(expr.Mul, expr.C("l_extendedprice"), expr.C("l_discount")))), nil
}

// q07: volume shipping between FRANCE and GERMANY.
func q07(e Subqueries) (plan.Node, error) {
	natFilter := func() expr.Expr { return expr.NewIn(expr.C("n_name"), strs("FRANCE", "GERMANY")...) }
	li := sc("lineitem", between("l_shipdate", expr.Date("1995-01-01"), expr.Date("1996-12-31")),
		"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate")
	j := jn(li, sc("supplier", nil, "s_suppkey", "s_nationkey"), "l_suppkey", "s_suppkey")
	j = jn(j, scAs("nation", "n1", natFilter(), "n_nationkey", "n_name"), "s_nationkey", "n1_n_nationkey")
	j = jn(j, sc("orders", nil, "o_orderkey", "o_custkey"), "l_orderkey", "o_orderkey")
	j = jn(j, sc("customer", nil, "c_custkey", "c_nationkey"), "o_custkey", "c_custkey")
	j = jn(j, scAs("nation", "n2", natFilter(), "n_nationkey", "n_name"), "c_nationkey", "n2_n_nationkey")
	f := &plan.FilterNode{Child: j, Pred: expr.NewOr(
		and(expr.Eq(expr.C("n1_n_name"), expr.Str("FRANCE")), expr.Eq(expr.C("n2_n_name"), expr.Str("GERMANY"))),
		and(expr.Eq(expr.C("n1_n_name"), expr.Str("GERMANY")), expr.Eq(expr.C("n2_n_name"), expr.Str("FRANCE"))))}
	p := proj(f,
		pc("supp_nation", expr.C("n1_n_name")),
		pc("cust_nation", expr.C("n2_n_name")),
		pc("l_year", expr.NewYear(expr.C("l_shipdate"))),
		pc("volume", revenue()))
	a := agg(p, []string{"supp_nation", "cust_nation", "l_year"}, sum("revenue", expr.C("volume")))
	return orderBy(a, asc("supp_nation"), asc("cust_nation"), asc("l_year")), nil
}

// q08: national market share of BRAZIL in AMERICA for a part type.
func q08(e Subqueries) (plan.Node, error) {
	li := sc("lineitem", nil, "l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount")
	part := sc("part", expr.Eq(expr.C("p_type"), expr.Str("ECONOMY ANODIZED STEEL")), "p_partkey", "p_type")
	j := jn(li, part, "l_partkey", "p_partkey")
	j = jn(j, sc("orders", between("o_orderdate", expr.Date("1995-01-01"), expr.Date("1996-12-31")),
		"o_orderkey", "o_custkey", "o_orderdate"), "l_orderkey", "o_orderkey")
	j = jn(j, sc("customer", nil, "c_custkey", "c_nationkey"), "o_custkey", "c_custkey")
	// Customer nation must be in AMERICA.
	amNat := jn(
		scAs("nation", "cn", nil, "n_nationkey", "n_regionkey"),
		sc("region", expr.Eq(expr.C("r_name"), expr.Str("AMERICA")), "r_regionkey", "r_name"),
		"cn_n_regionkey", "r_regionkey")
	j = jn(j, amNat, "c_nationkey", "cn_n_nationkey")
	j = jn(j, sc("supplier", nil, "s_suppkey", "s_nationkey"), "l_suppkey", "s_suppkey")
	j = jn(j, scAs("nation", "sn", nil, "n_nationkey", "n_name"), "s_nationkey", "sn_n_nationkey")
	p := proj(j,
		pc("o_year", expr.NewYear(expr.C("o_orderdate"))),
		pc("volume", revenue()),
		pc("brazil_volume", expr.NewCase(
			expr.Eq(expr.C("sn_n_name"), expr.Str("BRAZIL")), revenue(), expr.Float(0))))
	a := agg(p, []string{"o_year"},
		sum("sum_brazil", expr.C("brazil_volume")),
		sum("sum_volume", expr.C("volume")))
	share := proj(a,
		pc("o_year", expr.C("o_year")),
		pc("mkt_share", expr.NewArith(expr.Div, expr.C("sum_brazil"), expr.C("sum_volume"))))
	return orderBy(share, asc("o_year")), nil
}

// q09: product type profit measure — the paper's sandwich-only query.
func q09(e Subqueries) (plan.Node, error) {
	li := sc("lineitem", nil,
		"l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice", "l_discount")
	part := sc("part", expr.NewLike(expr.C("p_name"), "%green%"), "p_partkey", "p_name")
	j := jn(li, part, "l_partkey", "p_partkey")
	j = &plan.Join{Left: j,
		Right:     sc("partsupp", nil, "ps_partkey", "ps_suppkey", "ps_supplycost"),
		LeftKeys:  []string{"l_partkey", "l_suppkey"},
		RightKeys: []string{"ps_partkey", "ps_suppkey"},
		Type:      engine.InnerJoin}
	j = jn(j, sc("supplier", nil, "s_suppkey", "s_nationkey"), "l_suppkey", "s_suppkey")
	j = jn(j, sc("orders", nil, "o_orderkey", "o_orderdate"), "l_orderkey", "o_orderkey")
	j = jn(j, sc("nation", nil, "n_nationkey", "n_name"), "s_nationkey", "n_nationkey")
	amount := expr.NewArith(expr.Sub, revenue(),
		expr.NewArith(expr.Mul, expr.C("ps_supplycost"), expr.C("l_quantity")))
	p := proj(j,
		pc("nation", expr.C("n_name")),
		pc("o_year", expr.NewYear(expr.C("o_orderdate"))),
		pc("amount", amount))
	a := agg(p, []string{"nation", "o_year"}, sum("sum_profit", expr.C("amount")))
	return orderBy(a, asc("nation"), desc("o_year")), nil
}

// q10: returned item reporting.
func q10(e Subqueries) (plan.Node, error) {
	li := sc("lineitem", expr.Eq(expr.C("l_returnflag"), expr.Str("R")),
		"l_orderkey", "l_extendedprice", "l_discount", "l_returnflag")
	ord := sc("orders", between("o_orderdate", expr.Date("1993-10-01"), expr.Date("1993-12-31")),
		"o_orderkey", "o_custkey", "o_orderdate")
	j := jn(li, ord, "l_orderkey", "o_orderkey")
	j = jn(j, sc("customer", nil,
		"c_custkey", "c_name", "c_acctbal", "c_nationkey", "c_address", "c_phone", "c_comment"),
		"o_custkey", "c_custkey")
	j = jn(j, sc("nation", nil, "n_nationkey", "n_name"), "c_nationkey", "n_nationkey")
	a := agg(j, []string{"c_custkey", "c_name", "c_acctbal", "c_phone", "n_name", "c_address", "c_comment"},
		sum("revenue", revenue()))
	return topN(a, 20, desc("revenue")), nil
}

// q11: important stock identification in GERMANY, with the scalar threshold
// subquery evaluated first.
func q11(e Subqueries) (plan.Node, error) {
	german := func() plan.Node {
		j := jn(
			sc("partsupp", nil, "ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"),
			sc("supplier", nil, "s_suppkey", "s_nationkey"), "ps_suppkey", "s_suppkey")
		return jn(j, sc("nation", expr.Eq(expr.C("n_name"), expr.Str("GERMANY")), "n_nationkey", "n_name"),
			"s_nationkey", "n_nationkey")
	}
	value := expr.NewArith(expr.Mul, expr.C("ps_supplycost"), expr.C("ps_availqty"))
	total, err := e.Scalar(agg(german(), nil, sum("total", value)))
	if err != nil {
		return nil, err
	}
	// The spec scales the threshold fraction with 1/SF; derive SF from the
	// ORDERS cardinality.
	sf := float64(e.Rows("orders")) / 1_500_000
	fraction := 0.0001 / sf
	a := agg(german(), []string{"ps_partkey"}, sum("value", value))
	f := &plan.FilterNode{Child: a,
		Pred: expr.NewCmp(expr.GT, expr.C("value"), expr.Float(total*fraction))}
	return orderBy(f, desc("value")), nil
}

// q12: shipping modes and order priority.
func q12(e Subqueries) (plan.Node, error) {
	li := sc("lineitem", and(
		expr.NewIn(expr.C("l_shipmode"), strs("MAIL", "SHIP")...),
		expr.NewCmp(expr.LT, expr.C("l_commitdate"), expr.C("l_receiptdate")),
		expr.NewCmp(expr.LT, expr.C("l_shipdate"), expr.C("l_commitdate")),
		between("l_receiptdate", expr.Date("1994-01-01"), expr.Date("1994-12-31"))),
		"l_orderkey", "l_shipmode", "l_shipdate", "l_commitdate", "l_receiptdate")
	j := jn(li, sc("orders", nil, "o_orderkey", "o_orderpriority"), "l_orderkey", "o_orderkey")
	high := expr.NewCase(
		expr.NewIn(expr.C("o_orderpriority"), strs("1-URGENT", "2-HIGH")...),
		expr.Int(1), expr.Int(0))
	low := expr.NewCase(
		expr.NewIn(expr.C("o_orderpriority"), strs("1-URGENT", "2-HIGH")...),
		expr.Int(0), expr.Int(1))
	a := agg(j, []string{"l_shipmode"}, sum("high_line_count", high), sum("low_line_count", low))
	return orderBy(a, asc("l_shipmode")), nil
}

// q13: customer distribution — the paper's example of sandwiching a join on
// a dimension (customer nation) that the query itself never mentions.
func q13(e Subqueries) (plan.Node, error) {
	ordAgg := agg(
		sc("orders", expr.NewNotLike(expr.C("o_comment"), "%special%requests%"),
			"o_orderkey", "o_custkey", "o_comment"),
		[]string{"o_custkey"}, cnt("order_cnt"))
	loj := &plan.Join{
		Left:      sc("customer", nil, "c_custkey"),
		Right:     ordAgg,
		LeftKeys:  []string{"c_custkey"},
		RightKeys: []string{"o_custkey"},
		Type:      engine.LeftOuterJoin,
	}
	counts := proj(loj, pc("c_count", expr.NewCase(
		expr.Eq(expr.C(engine.MatchedColName), expr.Int(1)),
		expr.C("order_cnt"), expr.Int(0))))
	a := agg(counts, []string{"c_count"}, cnt("custdist"))
	return orderBy(a, desc("custdist"), desc("c_count")), nil
}

// q14: promotion effect.
func q14(e Subqueries) (plan.Node, error) {
	li := sc("lineitem", between("l_shipdate", expr.Date("1995-09-01"), expr.Date("1995-09-30")),
		"l_partkey", "l_extendedprice", "l_discount", "l_shipdate")
	j := jn(li, sc("part", nil, "p_partkey", "p_type"), "l_partkey", "p_partkey")
	promo := expr.NewCase(expr.NewLike(expr.C("p_type"), "PROMO%"), revenue(), expr.Float(0))
	a := agg(j, nil, sum("promo_rev", promo), sum("total_rev", revenue()))
	return proj(a, pc("promo_revenue",
		expr.NewArith(expr.Div,
			expr.NewArith(expr.Mul, expr.Float(100), expr.C("promo_rev")),
			expr.C("total_rev")))), nil
}

// q15: top supplier by quarterly revenue (view evaluated once, max taken in
// a second pass over the materialized view).
func q15(e Subqueries) (plan.Node, error) {
	view := agg(
		sc("lineitem", between("l_shipdate", expr.Date("1996-01-01"), expr.Date("1996-03-31")),
			"l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"),
		[]string{"l_suppkey"}, sum("total_revenue", revenue()))
	mat, res, err := e.Materialize(view)
	if err != nil {
		return nil, err
	}
	maxRev := 0.0
	ci := res.Schema.IndexOf("total_revenue")
	for _, v := range res.Cols[ci].F64 {
		maxRev = max(maxRev, v)
	}
	top := &plan.FilterNode{Child: mat, Pred: expr.Eq(expr.C("total_revenue"), expr.Float(maxRev))}
	j := jn(sc("supplier", nil, "s_suppkey", "s_name", "s_address", "s_phone"), top,
		"s_suppkey", "l_suppkey")
	p := proj(j, keep("s_suppkey", "s_name", "s_address", "s_phone", "total_revenue")...)
	return orderBy(p, asc("s_suppkey")), nil
}

// q16: parts/supplier relationship, excluding complaint suppliers. The
// planner lowers its COUNT(DISTINCT) into two hash aggregations, one grouping
// by the part attributes and ps_suppkey and one counting those groups.
func q16(e Subqueries) (plan.Node, error) {
	part := sc("part", and(
		expr.NewCmp(expr.NE, expr.C("p_brand"), expr.Str("Brand#45")),
		expr.NewNotLike(expr.C("p_type"), "MEDIUM POLISHED%"),
		expr.NewIn(expr.C("p_size"),
			expr.Int(49), expr.Int(14), expr.Int(23), expr.Int(45),
			expr.Int(19), expr.Int(3), expr.Int(36), expr.Int(9))),
		"p_partkey", "p_brand", "p_type", "p_size")
	j := jn(sc("partsupp", nil, "ps_partkey", "ps_suppkey"), part, "ps_partkey", "p_partkey")
	complainers := sc("supplier", expr.NewLike(expr.C("s_comment"), "%Customer%Complaints%"),
		"s_suppkey", "s_comment")
	a := anti(j, complainers, "ps_suppkey", "s_suppkey", nil)
	g := agg(a, []string{"p_brand", "p_type", "p_size"},
		engine.AggSpec{Name: "supplier_cnt", Func: engine.AggCountDistinct, Arg: expr.C("ps_suppkey")})
	return orderBy(g, desc("supplier_cnt"), asc("p_brand"), asc("p_type"), asc("p_size")), nil
}

// q17: small-quantity-order revenue with the decorrelated per-part average.
func q17(e Subqueries) (plan.Node, error) {
	avgQty := proj(
		agg(sc("lineitem", nil, "l_partkey", "l_quantity"),
			[]string{"l_partkey"}, avg("aq", expr.C("l_quantity"))),
		pc("l_partkey", expr.C("l_partkey")),
		pc("qty_limit", expr.NewArith(expr.Mul, expr.Float(0.2), expr.C("aq"))))
	li := sc("lineitem", nil, "l_partkey", "l_quantity", "l_extendedprice")
	part := sc("part", and(
		expr.Eq(expr.C("p_brand"), expr.Str("Brand#23")),
		expr.Eq(expr.C("p_container"), expr.Str("MED BOX"))),
		"p_partkey", "p_brand", "p_container")
	j := jn(li, part, "l_partkey", "p_partkey")
	j = jn(j, avgQty, "l_partkey", "l_partkey")
	f := &plan.FilterNode{Child: j, Pred: expr.NewCmp(expr.LT, expr.C("l_quantity"), expr.C("qty_limit"))}
	a := agg(f, nil, sum("sum_price", expr.C("l_extendedprice")))
	return proj(a, pc("avg_yearly", expr.NewArith(expr.Div, expr.C("sum_price"), expr.Float(7)))), nil
}

// q18: large volume customers — the PK scheme's streaming aggregate win.
func q18(e Subqueries) (plan.Node, error) {
	liAgg := agg(sc("lineitem", nil, "l_orderkey", "l_quantity"),
		[]string{"l_orderkey"}, sum("sum_qty", expr.C("l_quantity")))
	big := &plan.FilterNode{Child: liAgg,
		Pred: expr.NewCmp(expr.GT, expr.C("sum_qty"), expr.Float(300))}
	j := jn(sc("orders", nil, "o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"), big,
		"o_orderkey", "l_orderkey")
	j = jn(j, sc("customer", nil, "c_custkey", "c_name"), "o_custkey", "c_custkey")
	p := proj(j, keep("c_name", "c_custkey", "o_orderkey", "o_orderdate", "o_totalprice", "sum_qty")...)
	return topN(p, 100, desc("o_totalprice"), asc("o_orderdate")), nil
}

// q19: discounted revenue (three OR-branches of brand/container/quantity).
func q19(e Subqueries) (plan.Node, error) {
	li := sc("lineitem", and(
		expr.NewIn(expr.C("l_shipmode"), strs("AIR", "REG AIR")...),
		expr.Eq(expr.C("l_shipinstruct"), expr.Str("DELIVER IN PERSON"))),
		"l_partkey", "l_quantity", "l_extendedprice", "l_discount", "l_shipmode", "l_shipinstruct")
	j := jn(li, sc("part", nil, "p_partkey", "p_brand", "p_container", "p_size"),
		"l_partkey", "p_partkey")
	branch := func(brand string, containers []string, qlo, qhi float64, smax int64) expr.Expr {
		return and(
			expr.Eq(expr.C("p_brand"), expr.Str(brand)),
			expr.NewIn(expr.C("p_container"), strs(containers...)...),
			between("l_quantity", expr.Float(qlo), expr.Float(qhi)),
			between("p_size", expr.Int(1), expr.Int(smax)))
	}
	f := &plan.FilterNode{Child: j, Pred: expr.NewOr(
		branch("Brand#12", []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG"}, 1, 11, 5),
		branch("Brand#23", []string{"MED BAG", "MED BOX", "MED PKG", "MED PACK"}, 10, 20, 10),
		branch("Brand#34", []string{"LG CASE", "LG BOX", "LG PACK", "LG PKG"}, 20, 30, 15))}
	return agg(f, nil, sum("revenue", revenue())), nil
}

// q20: potential part promotion (nested semi joins).
func q20(e Subqueries) (plan.Node, error) {
	shipped := agg(
		sc("lineitem", between("l_shipdate", expr.Date("1994-01-01"), expr.Date("1994-12-31")),
			"l_partkey", "l_suppkey", "l_quantity", "l_shipdate"),
		[]string{"l_partkey", "l_suppkey"}, sum("sum_qty", expr.C("l_quantity")))
	ps := &plan.Join{
		Left:      sc("partsupp", nil, "ps_partkey", "ps_suppkey", "ps_availqty"),
		Right:     shipped,
		LeftKeys:  []string{"ps_partkey", "ps_suppkey"},
		RightKeys: []string{"l_partkey", "l_suppkey"},
		Type:      engine.InnerJoin,
	}
	enough := &plan.FilterNode{Child: ps, Pred: expr.NewCmp(expr.GT,
		expr.NewArith(expr.Mul, expr.C("ps_availqty"), expr.Float(1)),
		expr.NewArith(expr.Mul, expr.Float(0.5), expr.C("sum_qty")))}
	forest := semi(enough, sc("part", expr.NewLike(expr.C("p_name"), "forest%"), "p_partkey", "p_name"),
		"ps_partkey", "p_partkey", nil)
	sup := jn(
		sc("supplier", nil, "s_suppkey", "s_name", "s_address", "s_nationkey"),
		sc("nation", expr.Eq(expr.C("n_name"), expr.Str("CANADA")), "n_nationkey", "n_name"),
		"s_nationkey", "n_nationkey")
	s := semi(sup, forest, "s_suppkey", "ps_suppkey", nil)
	return orderBy(proj(s, keep("s_name", "s_address")...), asc("s_name")), nil
}

// q21: suppliers who kept orders waiting (semi and anti self-joins with
// residual inequalities).
func q21(e Subqueries) (plan.Node, error) {
	l1 := sc("lineitem", expr.NewCmp(expr.GT, expr.C("l_receiptdate"), expr.C("l_commitdate")),
		"l_orderkey", "l_suppkey", "l_receiptdate", "l_commitdate")
	j := jn(l1, sc("supplier", nil, "s_suppkey", "s_name", "s_nationkey"), "l_suppkey", "s_suppkey")
	j = jn(j, sc("nation", expr.Eq(expr.C("n_name"), expr.Str("SAUDI ARABIA")), "n_nationkey", "n_name"),
		"s_nationkey", "n_nationkey")
	j = jn(j, sc("orders", expr.Eq(expr.C("o_orderstatus"), expr.Str("F")), "o_orderkey", "o_orderstatus"),
		"l_orderkey", "o_orderkey")
	l2 := scAs("lineitem", "l2", nil, "l_orderkey", "l_suppkey")
	s := semi(j, l2, "l_orderkey", "l2_l_orderkey",
		expr.NewCmp(expr.NE, expr.C("l2_l_suppkey"), expr.C("l_suppkey")))
	l3 := scAs("lineitem", "l3",
		expr.NewCmp(expr.GT, expr.C("l_receiptdate"), expr.C("l_commitdate")),
		"l_orderkey", "l_suppkey", "l_receiptdate", "l_commitdate")
	a := anti(s, l3, "l_orderkey", "l3_l_orderkey",
		expr.NewCmp(expr.NE, expr.C("l3_l_suppkey"), expr.C("l_suppkey")))
	g := agg(a, []string{"s_name"}, cnt("numwait"))
	return topN(g, 100, desc("numwait"), asc("s_name")), nil
}

// q22: global sales opportunity.
func q22(e Subqueries) (plan.Node, error) {
	codes := strs("13", "31", "23", "29", "30", "18", "17")
	code := func() expr.Expr { return expr.NewSubstr(expr.C("c_phone"), 1, 2) }
	avgBal, err := e.Scalar(agg(
		sc("customer", and(
			expr.NewCmp(expr.GT, expr.C("c_acctbal"), expr.Float(0)),
			expr.NewIn(code(), codes...)),
			"c_acctbal", "c_phone"),
		nil, avg("a", expr.C("c_acctbal"))))
	if err != nil {
		return nil, err
	}
	cust := sc("customer", and(
		expr.NewIn(code(), codes...),
		expr.NewCmp(expr.GT, expr.C("c_acctbal"), expr.Float(avgBal))),
		"c_custkey", "c_acctbal", "c_phone")
	a := anti(cust, sc("orders", nil, "o_custkey"), "c_custkey", "o_custkey", nil)
	p := proj(a, pc("cntrycode", code()), pc("c_acctbal", expr.C("c_acctbal")))
	g := agg(p, []string{"cntrycode"}, cnt("numcust"), sum("totacctbal", expr.C("c_acctbal")))
	return orderBy(g, asc("cntrycode")), nil
}
