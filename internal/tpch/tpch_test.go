package tpch

import (
	"fmt"
	"sync"
	"testing"

	"bdcc/internal/plan"
	"bdcc/internal/vector"
)

// testBenchmark is built once per test binary (generation plus three scheme
// materializations dominate test time otherwise).
var (
	tbOnce sync.Once
	tb     *Benchmark
	tbErr  error
)

func benchmarkFixture(t *testing.T) *Benchmark {
	t.Helper()
	tbOnce.Do(func() {
		tb, tbErr = NewBenchmarkCompressed(0.05, false)
	})
	if tbErr != nil {
		t.Fatalf("NewBenchmark: %v", tbErr)
	}
	return tb
}

// TestQueriesNonTrivial guards against vacuous equivalence: the generator
// must produce data that actually exercises each query's predicates.
func TestQueriesNonTrivial(t *testing.T) {
	b := benchmarkFixture(t)
	for _, q := range Queries {
		res, _, _, err := RunQuery(b.DBs[plan.Plain], q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if res.Rows() == 0 {
			t.Errorf("%s returns no rows at SF %g — predicates select nothing", q.Name, b.SF)
		}
	}
}

// TestPaperDimensionTable reproduces the paper's Section IV dimension table
// against the generated data: D_NATION with 5 bits over (n_regionkey,
// n_nationkey), D_PART and D_DATE capped at 13 bits (D_DATE lands at 12 by
// the NDV rule — see DESIGN.md).
func TestPaperDimensionTable(t *testing.T) {
	b := benchmarkFixture(t)
	db := b.DBs[plan.BDCC].Clustered
	nation := db.Dimensions["d_nation"]
	if nation == nil {
		t.Fatal("d_nation missing")
	}
	if nation.Bits() != 5 || nation.Table != "nation" {
		t.Errorf("d_nation: %d bits over %s, want 5 bits over nation", nation.Bits(), nation.Table)
	}
	if fmt.Sprint(nation.Key) != "[n_regionkey n_nationkey]" {
		t.Errorf("d_nation key = %v", nation.Key)
	}
	date := db.Dimensions["d_date"]
	if date == nil {
		t.Fatal("d_date missing")
	}
	if date.Table != "orders" || fmt.Sprint(date.Key) != "[o_orderdate]" {
		t.Errorf("d_date over %s.%v", date.Table, date.Key)
	}
	if date.Bits() != 12 {
		t.Errorf("d_date bits = %d, want 12 (2406 distinct order dates)", date.Bits())
	}
	part := db.Dimensions["d_part"]
	if part == nil {
		t.Fatal("d_part missing")
	}
	if part.Table != "part" || fmt.Sprint(part.Key) != "[p_partkey]" {
		t.Errorf("d_part over %s.%v", part.Table, part.Key)
	}
	// At SF100 p_partkey NDV is 20M and the 13-bit cap binds; at small SF
	// the NDV rule gives ⌈log₂(200000·SF)⌉.
	if got, want := part.Bits(), wantBits(b.Data.Tables["part"].Rows(), 13); got != want {
		t.Errorf("d_part bits = %d, want %d", got, want)
	}
}

func wantBits(ndv, cap int) int {
	b := 0
	for (1 << b) < ndv {
		b++
	}
	if b > cap {
		return cap
	}
	return b
}

// TestPaperUseTable reproduces the paper's per-table dimension-use table:
// which dimensions each TPC-H table is clustered on and over which paths.
func TestPaperUseTable(t *testing.T) {
	b := benchmarkFixture(t)
	db := b.DBs[plan.BDCC].Clustered
	want := map[string][]string{
		"nation":   {"d_nation|-"},
		"supplier": {"d_nation|fk_s_n"},
		"customer": {"d_nation|fk_c_n"},
		"part":     {"d_part|-"},
		"partsupp": {"d_part|fk_ps_p", "d_nation|fk_ps_s.fk_s_n"},
		"orders":   {"d_date|-", "d_nation|fk_o_c.fk_c_n"},
		"lineitem": {
			"d_date|fk_l_o",
			"d_nation|fk_l_o.fk_o_c.fk_c_n",
			"d_nation|fk_l_s.fk_s_n",
			"d_part|fk_l_p",
		},
	}
	for table, uses := range want {
		bt := db.Tables[table]
		if bt == nil {
			t.Errorf("table %s not clustered", table)
			continue
		}
		var got []string
		for _, u := range bt.Uses {
			got = append(got, u.Dim.Name+"|"+u.PathString())
		}
		if fmt.Sprint(got) != fmt.Sprint(uses) {
			t.Errorf("%s uses = %v, want %v", table, got, uses)
		}
	}
	if db.Tables["region"] != nil {
		t.Error("region should not be BDCC-clustered (no hints), as in the paper")
	}
}

// TestShipdateCorrelation checks the generator preserves the
// orderdate/shipdate correlation the paper's Q6/Q12/Q20 analysis relies on.
func TestShipdateCorrelation(t *testing.T) {
	b := benchmarkFixture(t)
	li := b.Data.Tables["lineitem"]
	ord := b.Data.Tables["orders"]
	odate := ord.MustColumn("o_orderdate").Values().I64
	okey := ord.MustColumn("o_orderkey").Values().I64
	byKey := make(map[int64]int64, len(okey))
	for i, k := range okey {
		byKey[k] = odate[i]
	}
	ship := li.MustColumn("l_shipdate").Values().I64
	lok := li.MustColumn("l_orderkey").Values().I64
	for i := range ship {
		delta := ship[i] - byKey[lok[i]]
		if delta < 1 || delta > 121 {
			t.Fatalf("lineitem %d: shipdate %d days from orderdate, want [1,121]", i, delta)
		}
	}
}

// TestCustomerOrderGap checks a third of customers have no orders (Q22's
// population).
func TestCustomerOrderGap(t *testing.T) {
	b := benchmarkFixture(t)
	ord := b.Data.Tables["orders"]
	for _, ck := range ord.MustColumn("o_custkey").Values().I64 {
		if ck%3 == 0 {
			t.Fatalf("customer %d (key %% 3 == 0) has orders", ck)
		}
	}
}

// TestGeneratedCardinalities pins the scaled table sizes.
func TestGeneratedCardinalities(t *testing.T) {
	b := benchmarkFixture(t)
	cases := map[string]int{
		"region":   5,
		"nation":   25,
		"supplier": 500,
		"part":     10000,
		"partsupp": 40000,
		"customer": 7500,
		"orders":   75000,
	}
	for table, want := range cases {
		if got := b.Data.Tables[table].Rows(); got != want {
			t.Errorf("%s rows = %d, want %d", table, got, want)
		}
	}
	li := b.Data.Tables["lineitem"].Rows()
	if li < 75000 || li > 75000*7 {
		t.Errorf("lineitem rows = %d, outside [1,7] per order", li)
	}
	date := vector.ParseDate("1998-08-02")
	for _, d := range b.Data.Tables["orders"].MustColumn("o_orderdate").Values().I64 {
		if d < vector.ParseDate("1992-01-01") || d > date {
			t.Fatalf("o_orderdate %s out of spec range", vector.FormatDate(d))
		}
	}
}
