package plan

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"bdcc/internal/engine"
	"bdcc/internal/expr"
)

// twoHopBuild is the propagation-heavy shape of TestPlannerTwoHopPropagation:
// a region-filtered dimension chain whose pre-executed build restricts the
// fact scan, plus a sandwich-aligned join — every decision a memo records.
func twoHopBuild() Node {
	stores := &Join{
		Left:     &Scan{Table: "store", Cols: []string{"st_id", "st_region"}},
		Right:    &Scan{Table: "region", Cols: []string{"rg_id", "rg_name"}, Filter: expr.Eq(expr.C("rg_name"), expr.Str("SOUTH"))},
		LeftKeys: []string{"st_region"}, RightKeys: []string{"rg_id"}, Type: engine.InnerJoin,
	}
	j := &Join{Left: &Scan{Table: "fact", Cols: []string{"f_store", "f_amount"}}, Right: stores,
		LeftKeys: []string{"f_store"}, RightKeys: []string{"st_id"}, Type: engine.InnerJoin}
	return &Agg{Child: j, GroupBy: []string{"rg_name"},
		Aggs: []engine.AggSpec{{Name: "total", Func: engine.AggSum, Arg: expr.C("f_amount")}}}
}

func logLine(log []string, substr string) string {
	for _, l := range log {
		if strings.Contains(l, substr) {
			return l
		}
	}
	return ""
}

// TestMemoReplayIdentical records one BDCC planning run and replays it onto
// a freshly built tree: the replay must skip re-running the pre-execution
// subquery yet land the identical scan restriction and produce identical
// rows.
func TestMemoReplayIdentical(t *testing.T) {
	f := newFixture(t)
	db := f.dbs[BDCC]

	memo := NewMemo()
	p1 := NewPlanner(db, engine.NewContext(db.Device))
	p1.UseMemo(memo)
	res1, err := p1.Run(twoHopBuild())
	if err != nil {
		t.Fatal(err)
	}
	if logLine(p1.Log, "pre-executed build (") == "" {
		t.Fatalf("recording run did not pre-execute the build side; log:\n%s", strings.Join(p1.Log, "\n"))
	}
	memo.Complete()

	p2 := NewPlanner(db, engine.NewContext(db.Device))
	p2.UseMemo(memo)
	res2, err := p2.Run(twoHopBuild())
	if err != nil {
		t.Fatal(err)
	}
	if logLine(p2.Log, "pre-executed build (") != "" {
		t.Errorf("replay re-ran the pre-execution subquery; log:\n%s", strings.Join(p2.Log, "\n"))
	}
	if logLine(p2.Log, "replayed pre-executed build restriction") == "" {
		t.Errorf("replay did not apply the recorded restriction; log:\n%s", strings.Join(p2.Log, "\n"))
	}
	// Identical planning decisions: the fact scan prunes to the same groups,
	// and the sandwich join lands the same way.
	for _, marker := range []string{"scan fact: bdcc pushdown", "sandwich hash join"} {
		rec, rep := logLine(p1.Log, marker), logLine(p2.Log, marker)
		if rec == "" || rec != rep {
			t.Errorf("decision %q differs:\n record %q\n replay %q", marker, rec, rep)
		}
	}
	if res1.Rows() != res2.Rows() {
		t.Fatalf("replayed result differs: %d rows vs %d rows", res2.Rows(), res1.Rows())
	}
	for i := 0; i < res1.Rows(); i++ {
		if fmt.Sprint(res1.Row(i)) != fmt.Sprint(res2.Row(i)) {
			t.Errorf("row %d differs: record %v, replay %v", i, res1.Row(i), res2.Row(i))
		}
	}
}

// TestMemoReplayEquivalentAcrossJoinTypes replays every join type the
// planner caches decisions for and cross-checks rows against the Plain
// scheme, so a replayed plan stays semantically equivalent — not just
// self-consistent.
func TestMemoReplayEquivalentAcrossJoinTypes(t *testing.T) {
	f := newFixture(t)
	db := f.dbs[BDCC]
	for name, typ := range map[string]engine.JoinType{
		"inner": engine.InnerJoin, "semi": engine.SemiJoin, "anti": engine.AntiJoin,
	} {
		typ := typ
		t.Run(name, func(t *testing.T) {
			build := func() Node {
				j := &Join{
					Left:     &Scan{Table: "fact", Cols: []string{"f_id", "f_store", "f_amount"}},
					Right:    &Scan{Table: "store", Cols: []string{"st_id", "st_region"}, Filter: expr.Eq(expr.C("st_region"), expr.Int(3))},
					LeftKeys: []string{"f_store"}, RightKeys: []string{"st_id"}, Type: typ}
				return &Agg{Child: j, GroupBy: []string{"f_store"},
					Aggs: []engine.AggSpec{{Name: "c", Func: engine.AggCount}}}
			}
			ref, _ := runRows(t, f.dbs[Plain], build())

			memo := NewMemo()
			p1 := NewPlanner(db, engine.NewContext(db.Device))
			p1.UseMemo(memo)
			if _, err := p1.Run(build()); err != nil {
				t.Fatal(err)
			}
			memo.Complete()
			p2 := NewPlanner(db, engine.NewContext(db.Device))
			p2.UseMemo(memo)
			res, err := p2.Run(build())
			if err != nil {
				t.Fatal(err)
			}
			rows := make([]string, res.Rows())
			for i := range rows {
				rows[i] = fmt.Sprint(res.Row(i))
			}
			if got := fmt.Sprint(sortedStrings(rows)); got != fmt.Sprint(ref) {
				t.Errorf("replayed %s join disagrees with plain", name)
			}
		})
	}
}

func sortedStrings(s []string) []string {
	out := append([]string(nil), s...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestCacheAcquireSerializesRecording pins the cache contract: concurrent
// first arrivals of one key produce exactly one recording miss — everyone
// else blocks in Acquire and then replays the published memo.
func TestCacheAcquireSerializesRecording(t *testing.T) {
	c := NewCache()
	key := CacheKey{Query: "Q", Schema: "BDCC/x", Knobs: "w4"}

	lease := c.Acquire(key)
	if lease.Hit() {
		t.Fatal("first acquire must miss")
	}

	const n = 8
	var wg sync.WaitGroup
	hits := make(chan *Lease, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hits <- c.Acquire(key)
		}()
	}
	memo := NewMemo()
	lease.Complete(memo, "sub-state")
	wg.Wait()
	close(hits)
	for l := range hits {
		if !l.Hit() {
			t.Fatal("post-publish acquire must hit")
		}
		if l.Memo != memo || l.Sub != "sub-state" {
			t.Fatal("hit returned a different memo or attachment")
		}
	}
	if h, m := c.Stats(); h != n || m != 1 {
		t.Errorf("stats = %d hits / %d misses, want %d / 1", h, m, n)
	}

	// Distinct keys miss independently.
	other := c.Acquire(CacheKey{Query: "Q", Schema: "BDCC/x", Knobs: "w8"})
	if other.Hit() {
		t.Error("different knobs must not hit")
	}
	other.Abandon()

	// An abandoned recording leaves the next arrival to record afresh.
	again := c.Acquire(CacheKey{Query: "Q", Schema: "BDCC/x", Knobs: "w8"})
	if again.Hit() {
		t.Error("abandoned entry must miss again")
	}
	again.Abandon()
}

// TestCacheKeepsNewestEpoch: a newer epoch of a key replaces the entry, and
// an arrival at an older one records nothing and leaves the newest in place.
func TestCacheKeepsNewestEpoch(t *testing.T) {
	c := NewCache()
	key := CacheKey{Query: "Q", Schema: "BDCC/x", Epoch: 1, Knobs: "w4"}
	c.Acquire(key).Complete(NewMemo(), nil)
	key.Epoch = 2
	newest := NewMemo()
	if l := c.Acquire(key); l.Hit() {
		t.Fatal("a newer epoch must miss")
	} else {
		l.Complete(newest, nil)
	}
	key.Epoch = 1
	stale := c.Acquire(key)
	if stale.Hit() {
		t.Fatal("a superseded epoch must not replay")
	}
	stale.Complete(NewMemo(), nil) // records nothing
	key.Epoch = 2
	if l := c.Acquire(key); !l.Hit() || l.Memo != newest {
		t.Fatal("the newest epoch's memo must stay cached")
	}
	if n := c.Len(); n != 1 {
		t.Errorf("%d entries, want 1", n)
	}
}
