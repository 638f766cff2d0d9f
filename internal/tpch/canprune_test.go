package tpch

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"bdcc/internal/core"
	"bdcc/internal/engine"
	"bdcc/internal/plan"
)

// The planner pre-executes a build subtree only where its canPrune rule says
// the key set can restrict the probe table. These tests hold the rule to
// ground truth instead of trusting it: what a declined site would have
// yielded had it run, and what the queries return and read with no
// pre-execution at all.

// smallFixture is the SF 0.01 BDCC database of the canPrune tests, built once
// per test binary like benchmarkFixture.
var (
	sbOnce sync.Once
	sb     *Benchmark
	sbErr  error
)

func smallFixture(t *testing.T) *Benchmark {
	t.Helper()
	sbOnce.Do(func() {
		sb, sbErr = NewBenchmark(0.01, plan.BDCC)
	})
	if sbErr != nil {
		t.Fatalf("NewBenchmark: %v", sbErr)
	}
	return sb
}

// runAudited builds, plans and runs a query serially with the canPrune audit
// installed on the main plan's planner (the builds' scalar subqueries plan
// normally: the only one with join sites, Q11's, repeats the main plan's),
// and returns the result, the bytes read and the planner's log.
func runAudited(t *testing.T, db *plan.DB, q QueryDef, audit func(why string) string,
	yields func(*core.BDCCTable, *core.DimensionUse, core.BinSet)) (*engine.Result, int64, []string) {
	t.Helper()
	env := NewEnvOpts(db, RunOptions{})
	defer env.Close()
	node, err := q.Build(env)
	if err != nil {
		t.Fatalf("%s build: %v", q.Name, err)
	}
	p := plan.NewPlanner(env.DB, env.Ctx)
	if audit != nil {
		p.AuditCanPrune(audit, yields)
	}
	res, err := p.Run(node)
	if err != nil {
		t.Fatalf("%s: %v", q.Name, err)
	}
	return res, env.Ctx.Acct.Stats().Bytes, p.Log
}

// TestCanPruneIsSound runs every pre-execution canPrune declines all the same
// and looks at the restriction it arrives at: it must be the whole bin domain
// of its use — the identity under intersection, so skipping the run lost
// nothing. (A site declined because no use maps its key has no use to bin
// for; it is counted, and must stay silent.)
func TestCanPruneIsSound(t *testing.T) {
	for _, b := range []*Benchmark{smallFixture(t), benchmarkFixture(t)} {
		declinedSites, checked := 0, 0
		for _, q := range Queries {
			declined := false
			runAudited(t, b.DBs[plan.BDCC], q,
				func(why string) string {
					declined = why != ""
					if declined {
						declinedSites++
					}
					return "" // pre-execute and bin whatever canPrune said
				},
				func(bt *core.BDCCTable, u *core.DimensionUse, bins core.BinSet) {
					if !declined {
						return
					}
					checked++
					if bins.Count() != u.Dim.NumBins() {
						t.Errorf("SF %g %s: a declined pre-execution restricts %s via %s|%s to %d of %d bins (keeping %d of %d count entries)",
							b.SF, q.Name, bt.Name, u.Dim.Name, u.PathString(), bins.Count(), u.Dim.NumBins(),
							len(bt.SelectBinSet(u, bins)), len(bt.Count))
					}
				})
		}
		t.Logf("SF %g: canPrune declined %d sites, %d restrictions of theirs checked", b.SF, declinedSites, checked)
		if declinedSites < 20 || checked < 15 {
			t.Errorf("SF %g: canPrune declined %d sites and %d restrictions were checked; the 22 queries have more", b.SF, declinedSites, checked)
		}
	}
}

// TestPreExecutionOnlyPrunes plans every query with canPrune declining at
// every site: the result must be byte-identical to the normal plan's, and the
// plan must read at least as much — pre-execution buys pruning, nothing else.
func TestPreExecutionOnlyPrunes(t *testing.T) {
	for _, b := range []*Benchmark{smallFixture(t), benchmarkFixture(t)} {
		var sumWith, sumWithout int64
		for _, q := range Queries {
			want, read, _ := runAudited(t, b.DBs[plan.BDCC], q, nil, nil)
			got, readWithout, log := runAudited(t, b.DBs[plan.BDCC], q, func(why string) string {
				if why == "" {
					why = "declined by the test"
				}
				return why
			}, nil)
			if i := slices.IndexFunc(log, func(l string) bool { return strings.Contains(l, "pre-executed build (") }); i >= 0 {
				t.Errorf("SF %g %s: a key set was binned with pre-execution declined: %s", b.SF, q.Name, log[i])
			}
			if got.Rows() != want.Rows() {
				t.Fatalf("SF %g %s: %d rows without pre-execution, %d with", b.SF, q.Name, got.Rows(), want.Rows())
			}
			for i := 0; i < want.Rows(); i++ {
				if g, w := fmt.Sprint(got.Row(i)), fmt.Sprint(want.Row(i)); g != w {
					t.Fatalf("SF %g %s: row %d = %s without pre-execution, %s with", b.SF, q.Name, i, g, w)
				}
			}
			for c := range want.Cols {
				if !slices.Equal(got.Cols[c].F64, want.Cols[c].F64) {
					t.Fatalf("SF %g %s: column %d differs in its float bits without pre-execution", b.SF, q.Name, c)
				}
			}
			if readWithout < read {
				t.Errorf("SF %g %s: reads %d bytes without pre-execution, %d with — a restriction made a plan read more", b.SF, q.Name, readWithout, read)
			}
			sumWith += read
			sumWithout += readWithout
		}
		if sumWithout <= sumWith {
			t.Errorf("SF %g: the 22 queries read %d bytes without pre-execution and %d with: it prunes nothing", b.SF, sumWithout, sumWith)
		}
	}
}

// TestPreExecutionExplainCounts pins, per query at SF 0.05, how many key sets
// the planner binned into a restriction ("pre-executed build"), how many
// sandwich-side builds it did not run and how many plain builds it
// materialized without binning — each with its reason in the log. A planner
// change that moves a site shows up here as a reviewed diff.
func TestPreExecutionExplainCounts(t *testing.T) {
	want := map[string][3]int{ // binned, not pre-executed, keys not binned
		"Q02": {7, 0, 0}, "Q03": {1, 0, 0}, "Q04": {0, 1, 0}, "Q05": {3, 1, 1},
		"Q07": {2, 2, 1}, "Q08": {3, 1, 2}, "Q09": {1, 2, 1}, "Q10": {1, 2, 0},
		"Q11": {2, 2, 0}, "Q12": {0, 1, 0}, "Q14": {0, 1, 0}, "Q15": {0, 0, 1},
		"Q16": {1, 0, 0}, "Q17": {1, 1, 0}, "Q18": {0, 2, 0}, "Q19": {0, 1, 0},
		"Q20": {2, 1, 0}, "Q21": {2, 1, 1},
	}
	b := benchmarkFixture(t)
	for _, q := range Queries {
		_, _, explain, err := RunQuery(b.DBs[plan.BDCC], q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		var got [3]int
		for _, line := range explain {
			for i, mark := range []string{"pre-executed build (", " not pre-executed (", " keys not binned ("} {
				if strings.Contains(line, mark) {
					got[i]++
				}
			}
		}
		if got != want[q.Name] {
			t.Errorf("%s: %v key sets binned / builds not pre-executed / builds not binned, want %v\n%s",
				q.Name, got, want[q.Name], strings.Join(explain, "\n"))
		}
	}
}

// TestAliasedScanExcludesRelocationArea: an aliased scan of a BDCC table that
// no sandwich chain aligns reads the table through its count entries like
// any other scan — not the stored rows end to end, which would return the
// relocated small groups twice (once where they were, once as copies).
func TestAliasedScanExcludesRelocationArea(t *testing.T) {
	db := benchmarkFixture(t).DBs[plan.BDCC]
	if bt := db.BDCCTable("lineitem"); bt == nil || bt.RelocatedRows == 0 {
		t.Fatal("lineitem has no relocation area at this scale: the test checks nothing")
	}
	keys := func(alias string) []int64 {
		ctx := RunOptions{}.NewContext(db.Device)
		res, err := plan.NewPlanner(db, ctx).Run(&plan.Scan{Table: "lineitem", Alias: alias, Cols: []string{"l_orderkey"}})
		if err != nil {
			t.Fatal(err)
		}
		out := slices.Clone(res.Cols[0].I64)
		slices.Sort(out)
		return out
	}
	plain, aliased := keys(""), keys("l2")
	if len(aliased) != len(plain) {
		t.Fatalf("aliased scan returns %d rows, the un-aliased scan %d", len(aliased), len(plain))
	}
	if !slices.Equal(aliased, plain) {
		t.Fatal("aliased and un-aliased scans return different multisets of l_orderkey")
	}
}
