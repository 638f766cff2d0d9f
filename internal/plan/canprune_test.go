package plan

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"bdcc/internal/catalog"
	"bdcc/internal/core"
	"bdcc/internal/engine"
	"bdcc/internal/expr"
	"bdcc/internal/iosim"
)

// TestCanPruneVerdicts walks the rule over the build-subtree shapes it names:
// what holds every key a probe column can carry is declined with the reason
// the log prints, anything that can drop a row still runs.
func TestCanPruneVerdicts(t *testing.T) {
	f := newFixture(t)
	db := f.dbs[BDCC]
	stores := func(filter expr.Expr) *Scan {
		return &Scan{Table: "store", Cols: []string{"st_id", "st_region"}, Filter: filter}
	}
	perStore := func() *Agg {
		return &Agg{Child: &Scan{Table: "fact", Cols: []string{"f_store", "f_amount"}}, GroupBy: []string{"f_store"},
			Aggs: []engine.AggSpec{{Name: "total", Func: engine.AggSum, Arg: expr.C("f_amount")}}}
	}
	keep := func(name, from string) []engine.ProjCol {
		return []engine.ProjCol{{Name: name, Expr: expr.C(from)}}
	}
	const complete = "unfiltered key set cannot restrict fact"
	for _, tc := range []struct {
		name          string
		build         Node
		probeKey, key string
		want          string
	}{
		{"referenced table", stores(nil), "f_store", "st_id", complete},
		{"filtered", stores(expr.Eq(expr.C("st_region"), expr.Int(3))), "f_store", "st_id", ""},
		{"projected and sorted", &OrderBy{Child: &Project{Child: stores(nil), Cols: keep("st_id", "st_id")},
			By: []engine.SortSpec{{Col: "st_id"}}}, "f_store", "st_id", complete},
		{"renamed by the projection", &Project{Child: stores(nil), Cols: keep("k", "st_id")}, "f_store", "k", ""},
		{"aliased", &Scan{Table: "store", Alias: "s2", Cols: []string{"st_id"}}, "f_store", "s2_st_id", complete},
		{"keyed by another column", stores(nil), "f_store", "st_region", ""},
		{"limited", &LimitNode{Child: stores(nil), N: 5}, "f_store", "st_id", ""},
		{"joined", &Join{Left: stores(nil), Right: &Scan{Table: "region", Cols: []string{"rg_id"}},
			LeftKeys: []string{"st_region"}, RightKeys: []string{"rg_id"}, Type: engine.InnerJoin}, "f_store", "st_id", ""},
		{"own table grouped by the key", perStore(), "f_store", "f_store", complete},
		{"own table grouped by the key, HAVING", &FilterNode{Child: perStore(),
			Pred: expr.NewCmp(expr.GT, expr.C("total"), expr.Float(10))}, "f_store", "f_store", ""},
		{"own table grouped by something else", &Agg{Child: &Scan{Table: "fact", Cols: []string{"f_store", "f_item"}},
			GroupBy: []string{"f_item"}, Aggs: []engine.AggSpec{{Name: "f_store", Func: engine.AggMin, Arg: expr.C("f_store")}}},
			"f_store", "f_store", ""},
		{"no use maps the key", stores(nil), "f_id", "st_id", "no dimension use of fact maps f_id"},
	} {
		j := &Join{Left: &Scan{Table: "fact", Cols: []string{"f_id", "f_store", "f_item"}}, Right: tc.build,
			LeftKeys: []string{tc.probeKey}, RightKeys: []string{tc.key}, Type: engine.SemiJoin}
		uses, why := NewPlanner(db, engine.NewContext(db.Device)).canPrune(j, db.BDCCTable("fact"))
		if why != tc.want {
			t.Errorf("%s: canPrune says %q, want %q", tc.name, why, tc.want)
		}
		if mapped := tc.probeKey == "f_store"; mapped != (len(uses) > 0) {
			t.Errorf("%s: %d uses of fact returned for %s", tc.name, len(uses), tc.probeKey)
		}
	}
}

// TestDeclinedSitesKeepResults runs a build declined for its complete key
// set and one declined for its unmapped key under all schemes: declining
// moves no result, and each site says why in the log.
func TestDeclinedSitesKeepResults(t *testing.T) {
	f := newFixture(t)
	for name, tc := range map[string]struct {
		build func() Node
		logs  string
	}{
		"complete key set": {func() Node {
			return &Join{Left: &Scan{Table: "fact", Cols: []string{"f_id", "f_store"}},
				Right:    &Scan{Table: "store", Cols: []string{"st_id", "st_name"}},
				LeftKeys: []string{"f_store"}, RightKeys: []string{"st_id"}, Type: engine.InnerJoin}
		}, "(unfiltered key set cannot restrict fact)"},
		"unmapped key": {func() Node {
			return &Join{Left: &Scan{Table: "fact", Cols: []string{"f_id", "f_store"}},
				Right:    &Scan{Table: "item", Cols: []string{"it_id"}, Filter: expr.NewCmp(expr.LT, expr.C("it_id"), expr.Int(100))},
				LeftKeys: []string{"f_id"}, RightKeys: []string{"it_id"}, Type: engine.SemiJoin}
		}, "(no dimension use of fact maps f_id)"},
	} {
		assertEquivalent(t, f, tc.build)
		_, p := runRows(t, f.dbs[BDCC], tc.build())
		if log := strings.Join(p.Log, "\n"); !strings.Contains(log, tc.logs) {
			t.Errorf("%s: the log does not say %q:\n%s", name, tc.logs, log)
		}
	}
}

// TestPreExecutionStopsAtRowCap: a sandwich-side build over the row cap is
// not pulled to its end at plan time (the scratch run stops one row past the
// cap), says so, and the join returns what Plain returns.
func TestPreExecutionStopsAtRowCap(t *testing.T) {
	schema := catalog.MustParseDDL(starDDL)
	tables := starData(preExecRowCap + 5000)
	dev := iosim.PaperSSD()
	bd, err := NewBDCCDB(schema, tables, dev, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	build := func() Node {
		j := &Join{Left: &Scan{Table: "fact", Cols: []string{"f_id", "f_store"}},
			Right: &Scan{Table: "fact", Alias: "f2", Cols: []string{"f_store", "f_amount"},
				Filter: expr.NewCmp(expr.GE, expr.C("f_amount"), expr.Float(0))},
			LeftKeys: []string{"f_store"}, RightKeys: []string{"f2_f_store"}, Type: engine.SemiJoin}
		return &Agg{Child: j, Aggs: []engine.AggSpec{{Name: "c", Func: engine.AggCount}}}
	}
	want, _ := runRows(t, NewPlainDB(schema, tables, dev), build())
	got, p := runRows(t, bd, build())
	if !slices.Equal(got, want) {
		t.Errorf("BDCC returns %v, Plain %v", got, want)
	}
	log := strings.Join(p.Log, "\n")
	for _, line := range []string{"sandwich hash join", "build on fact not pre-executed (stopped at 65536 rows)"} {
		if !strings.Contains(log, line) {
			t.Errorf("the log does not say %q:\n%s", line, log)
		}
	}
}

// TestBoundedBinningMatchesFullBinning holds binKeys — which stops binning a
// use once it can learn nothing more, and drops whole-domain sets — to the
// unbounded pass it replaced: merged into the same transferred restrictions,
// both must leave the same bin sets behind.
func TestBoundedBinningMatchesFullBinning(t *testing.T) {
	f := newFixture(t)
	db := f.dbs[BDCC]
	bt := db.BDCCTable("fact")
	p := NewPlanner(db, engine.NewContext(db.Device))
	uses := append(p.keyUses(bt, "f_store", &Scan{Table: "fact"}), p.keyUses(bt, "f_item", &Scan{Table: "fact"})...)
	if len(uses) != 2 {
		t.Fatalf("f_store and f_item map %d uses of fact, want the region and the item path", len(uses))
	}
	full := func(ku keyUse, keys []int64) core.BinSet {
		set := core.NewBinSet(ku.u.Dim.NumBins())
		ku.addBins(set, distinctInt64(keys))
		return set
	}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 200; round++ {
		// A superset of the keys stands for the build's own restriction.
		var keys, super []int64
		for k := int64(0); k < 256; k++ {
			switch rng.Intn(1 + round%8) {
			case 0:
				keys = append(keys, k, k)
				fallthrough
			case 1:
				super = append(super, k)
			}
		}
		if round%10 == 0 {
			keys, super = super, nil // nothing transferred: only the domain bounds the pass
		}
		// Keys no index holds spread the ones it does over several chunks,
		// ahead of them or behind.
		sign := int64(round%2)*2 - 1
		for k, end := int64(300), 300+rng.Int63n(3*binChunk); k < end; k++ {
			keys = append(keys, sign*k)
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		want, got := restrictions{}, restrictions{}
		for _, ku := range uses {
			if super != nil {
				want[useKey(ku.u)] = full(ku, super)
				got[useKey(ku.u)] = full(ku, super)
			}
			want.and(useKey(ku.u), full(ku, keys))
		}
		raw := p.binKeys(uses, keys, bt, got)
		for _, ku := range uses {
			k := useKey(ku.u)
			w, g := want[k], got[k]
			if g == nil { // dropped: must have been the whole domain
				g = core.NewBinSet(ku.u.Dim.NumBins())
				g.AddRange(0, uint64(ku.u.Dim.NumBins()-1))
				if raw[k] != nil {
					t.Fatalf("round %d: %s recorded for the memo but not transferred", round, k)
				}
			}
			if !slices.Equal(w, g) {
				t.Fatalf("round %d: %s bounded binning leaves %d bins, the full pass %d", round, k, g.Count(), w.Count())
			}
		}
	}
}

func TestDistinctInt64(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cases := [][]int64{
		nil,
		{7},
		{3, 3, 3},
		{math.MinInt64, math.MaxInt64, 0, math.MaxInt64},
		{-5, -70, -5, 64, 63, 0, 128},
	}
	for _, span := range []int64{10, 1000, 1 << 40} {
		vals := make([]int64, 500)
		for i := range vals {
			vals[i] = rng.Int63n(span) - span/2
		}
		cases = append(cases, vals)
	}
	for _, vals := range cases {
		want := slices.Clone(vals)
		slices.Sort(want)
		want = slices.Compact(want)
		if got := distinctInt64(vals); !slices.Equal(got, want) {
			t.Errorf("distinctInt64 of %d values (span %v..%v): %d distinct, want %d", len(vals),
				slices.Min(append(vals, 0)), slices.Max(append(vals, 0)), len(got), len(want))
		}
	}
}
