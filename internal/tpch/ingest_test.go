package tpch

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bdcc/internal/core"
	"bdcc/internal/plan"
	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// The ingest rows of TestEngineMatchesReference hold a database that grew
// by appends to one rebuilt from scratch over the same rows (referenceDBs):
// the rebuild keeps the frozen design but re-sorts and re-aggregates from
// zero, a different code path from the splice-and-sum merge.

// combinedWith concatenates the arrival batches onto the base tables in
// insertion order — the ground truth every scheme's ingest path must serve.
func combinedWith(t testing.TB, data *Dataset, batches []*DeltaBatch) map[string]*storage.Table {
	t.Helper()
	out := make(map[string]*storage.Table, len(data.Tables))
	for n, tab := range data.Tables {
		out[n] = tab
	}
	for _, b := range batches {
		for _, d := range []*storage.Table{b.Orders, b.Lineitem} {
			c, err := storage.Concat(out[d.Name], out[d.Name].Rows(), d)
			if err != nil {
				t.Fatalf("concat %s: %v", d.Name, err)
			}
			out[d.Name] = c
		}
	}
	return out
}

// referenceDBs builds each scheme from scratch over the combined tables,
// reusing the base benchmark's frozen BDCC design.
func referenceDBs(t testing.TB, b *Benchmark, combined map[string]*storage.Table) map[plan.Scheme]*plan.DB {
	t.Helper()
	refs := make(map[plan.Scheme]*plan.DB, len(b.DBs))
	for scheme, db := range b.DBs {
		switch scheme {
		case plan.Plain:
			refs[scheme] = plan.NewPlainDB(b.Schema, combined, db.Device)
		case plan.PK:
			ref, err := plan.NewPKDB(b.Schema, combined, db.Device)
			if err != nil {
				t.Fatalf("pk rebuild: %v", err)
			}
			refs[scheme] = ref
		case plan.BDCC:
			reb, err := (&core.Builder{Schema: b.Schema, Tables: combined, Options: core.BuildOptions{Device: db.Device}, Frozen: db.Snapshot().Clustered}).Build(db.Snapshot().Clustered.Design)
			if err != nil {
				t.Fatalf("bdcc rebuild: %v", err)
			}
			refs[scheme] = &plan.DB{Scheme: plan.BDCC, Schema: b.Schema, Tables: combined, Clustered: reb, Device: db.Device}
		}
	}
	return refs
}

// TestIngestFreshDesignAgrees cross-checks the merged database against a
// completely fresh advisor+builder run over the combined tables — its own
// design and bins, not the frozen ones — with the tolerant comparison
// (summation order differs across clusterings). It also guards the decision
// to have no drift trigger (docs/INGEST.md, "No drift trigger"): the bins are
// cut once, at load, and a merge re-bins nothing, so fresh bins are the only
// remedy a trigger could call. After a post-window stream adds 20 % of the
// orders, the fresh design may read no less than 95 % of the frozen
// design's bytes on any of the 22 queries (it read at least as much on every
// query over four seeds). If a change makes fresh bins pay, this fails and
// the question reopens.
func TestIngestFreshDesignAgrees(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	b, err := NewBenchmarkCompressed(0.02, false, plan.BDCC)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.EnableIngest(0, 0); err != nil {
		t.Fatal(err)
	}
	gen := NewDeltaGen(b.Data, 4242)
	gen.Backfill = 0
	var batches []*DeltaBatch
	for left := b.Data.Tables["orders"].Rows() / 5; left > 0; left -= 250 {
		batch := gen.Next(min(250, left))
		batches = append(batches, batch)
		if err := b.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.MergeAll(); err != nil {
		t.Fatal(err)
	}
	combined := combinedWith(t, b.Data, batches)
	db := b.DBs[plan.BDCC]
	fresh, err := plan.NewBDCCDB(b.Schema, combined, db.Device, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range Queries {
		got, frozenSt, _, err := RunQuery(db.Snapshot(), q)
		if err != nil {
			t.Fatal(err)
		}
		want, freshSt, _, err := RunQuery(fresh, q)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameMultiset(resultValues(got), resultValues(want)); diff != "" {
			t.Fatalf("%s: %s under a fresh design", q.Name, diff)
		}
		if float64(freshSt.IO.Bytes) < 0.95*float64(frozenSt.IO.Bytes) {
			t.Errorf("%s reads %d bytes under a fresh design, %d under the frozen one: fresh bins pay",
				q.Name, freshSt.IO.Bytes, frozenSt.IO.Bytes)
		}
	}
}

// q6Revenue recomputes Q06 over a snapshot's logical lineitem rows — the
// first DB.Rows of its stored form, which a clustering's relocated
// duplicates follow — in any row order, so it is layout-independent and
// compares with a relative tolerance.
func q6Revenue(sdb *plan.DB) (float64, error) {
	li, err := sdb.StoredTable("lineitem")
	if err != nil {
		return 0, err
	}
	col := func(name string) *vector.Vector {
		v, _ := li.ColumnValues(name, 0, li.Rows())
		return v
	}
	lo, hi := vector.ParseDate("1994-01-01"), vector.ParseDate("1994-12-31")
	// Money, quantity and discount are decimals of scale 2: cents.
	sd, disc, qty, ext := col("l_shipdate").I64, col("l_discount").I64, col("l_quantity").I64, col("l_extendedprice").I64
	var sum int64
	for i := range sdb.Rows("lineitem") {
		if sd[i] >= lo && sd[i] <= hi && disc[i] >= 5 && disc[i] <= 7 && qty[i] < 2400 {
			sum += ext[i] * disc[i]
		}
	}
	return float64(sum) / 1e4, nil
}

// TestIngestSoak hammers the snapshot machinery under -race: one writer
// appending arrival batches into all three schemes while readers pin
// snapshots and verify each query result against an independent recomputation
// over the very snapshot it ran on — a torn view (partial merge, half-visible
// batch) shows up as a gross revenue mismatch. Merges run inside the appends
// that trigger them while the readers run: the delta limit fires four times
// under every scheme, since each counts a table's logical rows. The seeded
// stream fixes the count, the final MergeAll included. The run must leak
// neither goroutines nor tracker bytes.
func TestIngestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("ingest soak skipped in -short")
	}
	baseGoroutines := runtime.NumGoroutine()
	b, err := NewBenchmarkCompressed(0.01, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.EnableIngest(1500, 0); err != nil {
		t.Fatal(err)
	}
	gen := NewDeltaGen(b.Data, 99)

	const rounds = 18
	stop := make(chan struct{})
	errc := make(chan error, 16)
	fail := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < rounds; i++ {
			if err := b.AppendBatch(gen.Next(100)); err != nil {
				fail(err)
				return
			}
		}
	}()
	for scheme, db := range b.DBs {
		scheme, db := scheme, db
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch int64
			reads := 0
			for {
				select {
				case <-stop:
					if reads == 0 {
						fail(fmt.Errorf("%s reader never ran", scheme))
					}
					return
				default:
				}
				sdb := db.Snapshot()
				if e := sdb.Epoch(); e < lastEpoch {
					fail(fmt.Errorf("%s epoch went backwards: %d after %d", scheme, e, lastEpoch))
					return
				} else {
					lastEpoch = e
				}
				// Parents-first visibility: a lineitem row may never be
				// visible before the order it references.
				maxKey := func(table, col string) int64 {
					st, _ := sdb.StoredTable(table)
					v, _ := st.ColumnValues(col, 0, st.Rows())
					return slices.Max(v.I64)
				}
				if lk, ok := maxKey("lineitem", "l_orderkey"), maxKey("orders", "o_orderkey"); lk > ok {
					fail(fmt.Errorf("%s snapshot shows lineitem for order %d beyond max order %d", scheme, lk, ok))
					return
				}
				res, _, _, err := RunQuery(sdb, Query(6))
				if err != nil {
					fail(fmt.Errorf("%s Q06: %w", scheme, err))
					return
				}
				if res.Rows() != 1 {
					fail(fmt.Errorf("%s Q06 returned %d rows", scheme, res.Rows()))
					return
				}
				got, err := strconv.ParseFloat(res.Row(0)[0], 64)
				if err != nil {
					fail(fmt.Errorf("%s Q06 revenue %q: %w", scheme, res.Row(0)[0], err))
					return
				}
				want, err := q6Revenue(sdb)
				if err != nil {
					fail(fmt.Errorf("%s: %w", scheme, err))
					return
				}
				// The rendered result rounds to cents; any torn view is off by at
				// least one qualifying row's ext*disc (tens of currency units).
				if diff := got - want; diff < -0.5 || diff > 0.5 {
					fail(fmt.Errorf("%s Q06 over its own snapshot (epoch %d): query says %.6f, recomputation says %.6f — torn view", scheme, sdb.Epoch(), got, want))
					return
				}
				reads++
			}
		}()
	}
	wg.Wait()
	if err := b.MergeAll(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	const soakMerges = 5
	var final [][][]any
	for scheme, db := range b.DBs {
		st := db.Ingest().Stats()
		if st.Merges != soakMerges {
			t.Fatalf("%s committed %d merges over the soak, want %d", scheme, st.Merges, soakMerges)
		}
		if st.DeltaRows != 0 || db.PendingDeltaRows() != 0 {
			t.Fatalf("%s still holds delta rows after the final merge: %+v", scheme, st)
		}
		// One metered run per scheme to prove the tracker drains to zero.
		env := NewEnvOpts(db.Snapshot(), RunOptions{})
		node, err := Query(6).Build(env)
		if err != nil {
			t.Fatal(err)
		}
		res, err := env.run(node)
		if err != nil {
			t.Fatalf("%s post-soak Q06: %v", scheme, err)
		}
		final = append(final, resultValues(res))
		if err := env.Close(); err != nil {
			t.Fatal(err)
		}
		if cur := env.Ctx.Mem.Current(); cur != 0 {
			t.Fatalf("%s leaks %d bytes on the query tracker after the soak", scheme, cur)
		}
	}
	for i := 1; i < len(final); i++ {
		if diff := sameMultiset(final[i], final[0]); diff != "" {
			t.Fatalf("schemes disagree on Q06 after the soak: %s", diff)
		}
	}

	// Every reader goroutine must have joined.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if runtime.NumGoroutine() <= baseGoroutines {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("%d goroutines alive after the soak, want ≤ %d\n%s", runtime.NumGoroutine(), baseGoroutines, buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}

// tailRows copies rows [from, n) of a stored table into a table of its own.
func tailRows(tab *storage.Table, from int) *storage.Table {
	cols := make([]*storage.Column, len(tab.Cols))
	for i, c := range tab.Cols {
		switch v := c.Values(); c.Kind {
		case vector.Int64:
			cols[i] = storage.NewInt64Column(c.Name, v.I64[from:])
		case vector.Float64:
			cols[i] = storage.NewFloat64Column(c.Name, v.F64[from:])
		case vector.String:
			cols[i] = storage.NewStringColumn(c.Name, v.Str[from:])
		}
	}
	return storage.MustNewTable(tab.Name, tab.PageSize, cols...)
}

func sameBindings(t *testing.T, label string, got, want []core.UseBinding) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d bindings, the resolver gives %d", label, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Dim != w.Dim || !slices.Equal(g.Path, w.Path) {
			t.Fatalf("%s: binding %d is %s over %v, the resolver's is %s over %v", label, i, g.Dim.Name, g.Path, w.Dim.Name, w.Path)
		}
		if !slices.Equal(g.BinNos, w.BinNos) {
			t.Fatalf("%s: use %d (%s over %v): bins from the indexes differ from the resolver's", label, i, w.Dim.Name, w.Path)
		}
	}
}

// TestIndexBinningMatchesResolver holds the append path's binding — the
// batch's own key columns and the key→bin indexes (core.BindBatch) — to the
// reference that walks the stored tables (core.BindUses over the combined
// tables): for every designed table and use with its trailing rows taken as
// a batch, and for orders and lineitem over three real arrival batches that
// mix backfilled and post-window dates and whose lineitems reference orders
// of the same batch. A child bound before its parents arrived is the
// dangling reference, reported as the resolver reports it.
func TestIndexBinningMatchesResolver(t *testing.T) {
	b, err := NewBenchmarkCompressed(0.01, false, plan.BDCC)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.EnableIngest(0, 0); err != nil {
		t.Fatal(err)
	}
	db := b.DBs[plan.BDCC]
	loaded := db.Snapshot().Clustered
	uses := 0
	for _, td := range loaded.Design.Tables {
		tab := b.Data.Tables[td.Table]
		from := tab.Rows() - min(64, tab.Rows())
		got, err := core.BindBatch(loaded, b.Schema, b.Data.Tables, td.Table, tailRows(tab, from))
		if err != nil {
			t.Fatalf("%s: %v", td.Table, err)
		}
		want, err := core.BindUses(loaded, b.Schema, b.Data.Tables, td.Table, from)
		if err != nil {
			t.Fatal(err)
		}
		sameBindings(t, "trailing rows of "+td.Table, got, want)
		uses += len(want)
	}
	if uses != 12 {
		t.Errorf("bound %d uses of the TPC-H design, want 12", uses)
	}

	gen := NewDeltaGen(b.Data, 5)
	var batches []*DeltaBatch
	fresh, backfilled := 0, 0
	for i := 0; i < 3; i++ {
		batch := gen.Next(60)
		for _, d := range batch.Orders.MustColumn("o_orderdate").Values().I64 {
			if d > vector.ParseDate("1998-08-02") {
				fresh++
			} else {
				backfilled++
			}
		}
		before := combinedWith(t, b.Data, batches)
		batches = append(batches, batch)
		after := combinedWith(t, b.Data, batches)
		ordFrom, liFrom := before["orders"].Rows(), before["lineitem"].Rows()

		// The batch's orders have not arrived: its lineitems dangle.
		_, err := core.BindBatch(db.Snapshot().Clustered, b.Schema, after, "lineitem", batch.Lineitem)
		if err == nil || !strings.Contains(err.Error(), "foreign key fk_l_o: value") || !strings.Contains(err.Error(), "has no match in orders.o_orderkey") {
			t.Fatalf("batch %d: lineitems bound before their orders: %v", i, err)
		}
		got, err := core.BindBatch(db.Snapshot().Clustered, b.Schema, after, "orders", batch.Orders)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.BindUses(loaded, b.Schema, after, "orders", ordFrom)
		if err != nil {
			t.Fatal(err)
		}
		sameBindings(t, fmt.Sprintf("orders of batch %d", i), got, want)
		if err := db.Ingest().Append("orders", batch.Orders); err != nil {
			t.Fatal(err)
		}
		got, err = core.BindBatch(db.Snapshot().Clustered, b.Schema, after, "lineitem", batch.Lineitem)
		if err != nil {
			t.Fatal(err)
		}
		want, err = core.BindUses(loaded, b.Schema, after, "lineitem", liFrom)
		if err != nil {
			t.Fatal(err)
		}
		sameBindings(t, fmt.Sprintf("lineitems of batch %d", i), got, want)
		if err := db.Ingest().Append("lineitem", batch.Lineitem); err != nil {
			t.Fatal(err)
		}
	}
	if fresh == 0 || backfilled == 0 {
		t.Fatalf("arrivals must mix post-window (%d) and backfilled (%d) order dates", fresh, backfilled)
	}
}

// TestIngestTriggersRepeat: merges run inside the appends that trigger
// them, so one arrival stream fed twice with a delta limit set merges at the
// same appends — exactly those that bring a table's un-merged rows to the
// limit — and after every append both runs agree on the epoch, the merge
// counters and the un-merged rows.
func TestIngestTriggersRepeat(t *testing.T) {
	const limit = 500
	feed := func() []plan.IngestStats {
		b, err := NewBenchmarkCompressed(0.01, false, plan.BDCC)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.EnableIngest(limit, 0); err != nil {
			t.Fatal(err)
		}
		ing := b.DBs[plan.BDCC].Ingest()
		gen := NewDeltaGen(b.Data, 31)
		var out []plan.IngestStats
		pending := map[string]int{}
		for range 12 {
			batch := gen.Next(40)
			for _, rows := range []*storage.Table{batch.Orders, batch.Lineitem} {
				before := ing.Stats().Merges
				if err := ing.Append(rows.Name, rows); err != nil {
					t.Fatal(err)
				}
				st := ing.Stats()
				pending[rows.Name] += rows.Rows()
				if want := pending[rows.Name] >= limit; (st.Merges > before) != want {
					t.Fatalf("append %d of %s with %d un-merged rows: merged %v, want %v", len(out), rows.Name, pending[rows.Name], st.Merges > before, want)
				}
				if st.Merges > before {
					clear(pending)
				}
				out = append(out, st)
			}
		}
		if out[len(out)-1].Merges < 2 {
			t.Fatalf("the stream merged %d times, want at least 2", out[len(out)-1].Merges)
		}
		return out
	}
	first, second := feed(), feed()
	for i, got := range second {
		if got != first[i] {
			t.Fatalf("append %d: the second run reads %+v, the first %+v", i, got, first[i])
		}
	}
}

// TestIngestRejectedAppendLeavesNoTrace is the regression test for the
// wedge: a lineitem batch whose orders never arrived is rejected with the
// dangling foreign key, and used to stay in the delta store — every later
// lineitem append then failed ("clustered lineitem holds … rows, append
// starts at row …") and the store's row count disagreed with the published
// version's. A rejected append must leave the counters and the published
// version exactly as it found them, on an empty delta, on top of earlier
// batches and on a merged base, and the stream must go on: the following
// valid batches succeed, and views and merged base equal the from-scratch
// rebuild. An empty or a compressed batch is rejected by every scheme before
// anything is built from it: the append after it copies no more than an
// accepted one — Plain's view still reads the previous version's root and,
// under BDCC, the key→bin index lineitems are binned through grows in place
// — and Plain's view holds exactly the accepted rows.
func TestIngestRejectedAppendLeavesNoTrace(t *testing.T) {
	b, err := NewBenchmarkCompressed(0.01, false, plan.Plain, plan.BDCC)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.EnableIngest(0, 0); err != nil {
		t.Fatal(err)
	}
	db, plain := b.DBs[plan.BDCC], b.DBs[plan.Plain]
	ing := db.Ingest()
	gen := NewDeltaGen(b.Data, 8)
	lost, first, second, third, fourth, fifth := gen.Next(5), gen.Next(30), gen.Next(30), gen.Next(30), gen.Next(30), gen.Next(30)
	empty, packed := gen.Next(0).Lineitem, gen.Next(5).Lineitem
	packed.Compress()

	reject := func(label string, db *plan.DB, batch *storage.Table, want ...string) {
		t.Helper()
		ing := db.Ingest()
		before, pending, view := ing.Stats(), db.PendingDeltaRows(), db.Snapshot()
		err := ing.Append("lineitem", batch)
		for _, w := range want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Fatalf("%s: the batch was not rejected with %q: %v", label, w, err)
			}
		}
		after, now := ing.Stats(), db.Snapshot()
		if after.DeltaRows != before.DeltaRows || after.Merges != before.Merges || after.Epoch != before.Epoch {
			t.Fatalf("%s: the rejected append moved the counters: %+v -> %+v", label, before, after)
		}
		if db.Epoch() != before.Epoch || db.PendingDeltaRows() != pending || now.Clustered != view.Clustered || now.Tables["lineitem"] != view.Tables["lineitem"] {
			t.Fatalf("%s: the rejected append published a version", label)
		}
	}
	dangling := func(label string) { reject(label, db, lost.Lineitem, "foreign key fk_l_o", "has no match") }
	rejectEverywhere := func(label string, batch *storage.Table, want string) {
		t.Helper()
		reject(label+" (bdcc)", db, batch, want)
		reject(label+" (plain)", plain, batch, want)
	}
	ordersIndex := func() *core.KeyBins { return db.Snapshot().Clustered.KeyBins("d_date", []string{"fk_l_o"}) }
	// comment returns where row 0 of a Plain lineitem version's l_comment
	// starts: in the heap of the root its runs read, for a scan hands out
	// views of a raw column's heap.
	comment := func(view *storage.Table) uintptr {
		v, err := view.ColumnValues("l_comment", 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return reflect.ValueOf(v.Str[0]).Pointer()
	}
	// extendsWithoutCopy appends batch and checks that Plain's lineitem view
	// still reads the previous version's root and BDCC's orders index grew
	// into its own arrays, as an append after an accepted one does.
	extendsWithoutCopy := func(label string, batch *DeltaBatch) {
		t.Helper()
		prevView, prevIndex := plain.Snapshot().Tables["lineitem"], ordersIndex()
		if err := b.AppendBatch(batch); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if comment(plain.Snapshot().Tables["lineitem"]) != comment(prevView) {
			t.Fatalf("%s: the append copied Plain's lineitem rows instead of splicing them", label)
		}
		if &ordersIndex().Keys[0] != &prevIndex.Keys[0] {
			t.Fatalf("%s: the append copied the orders key→bin index instead of extending it", label)
		}
	}
	sameClustering := func(label string, batches []*DeltaBatch) {
		t.Helper()
		combined := combinedWith(t, b.Data, batches)
		snap := db.Snapshot()
		reb, err := (&core.Builder{Schema: b.Schema, Tables: combined, Options: core.BuildOptions{Device: db.Device}, Frozen: snap.Clustered}).Build(snap.Clustered.Design)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"orders", "lineitem"} {
			got, want := snap.BDCCTable(name), reb.Tables[name]
			if !slices.Equal(got.Count, want.Count) || !slices.Equal(got.Keys(), want.Keys()) || got.Data.Rows() != want.Data.Rows() {
				t.Fatalf("%s: clustered %s differs from the from-scratch rebuild", label, name)
			}
			view, rows := plain.Snapshot().Tables[name].Materialized(), combined[name]
			for i, c := range rows.Cols {
				v, w := view.Cols[i].Values(), c.Values()
				if view.Rows() != rows.Rows() || !slices.Equal(v.I64, w.I64) || !slices.Equal(v.F64, w.F64) || !slices.Equal(v.Str, w.Str) {
					t.Fatalf("%s: Plain's insertion-order view of %s differs from the accepted rows in column %s", label, name, c.Name)
				}
			}
		}
		ref := &plan.DB{Scheme: plan.BDCC, Schema: b.Schema, Tables: combined, Clustered: reb, Device: db.Device}
		for _, num := range []int{3, 10, 18} {
			got, _, _, err := RunQuery(snap, Query(num))
			if err != nil {
				t.Fatal(err)
			}
			want, _, _, err := RunQuery(ref, Query(num))
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("%s, %s vs from-scratch rebuild", label, Query(num).Name), got, want)
		}
	}

	dangling("on an empty delta")
	if err := b.AppendBatch(first); err != nil {
		t.Fatalf("the batch after a rejected one: %v", err)
	}
	dangling("on top of one batch")
	if err := b.AppendBatch(second); err != nil {
		t.Fatalf("the batch after a second rejected one: %v", err)
	}
	rejectEverywhere("an empty batch", empty, "empty append")
	extendsWithoutCopy("the batch after an empty one", third)
	rejectEverywhere("a compressed batch", packed, "compressed append")
	extendsWithoutCopy("the batch after a compressed one", fourth)
	accepted := []*DeltaBatch{first, second, third, fourth}
	var want int64
	for _, a := range accepted {
		want += int64(a.Orders.Rows() + a.Lineitem.Rows())
	}
	if st := ing.Stats(); st.DeltaRows != want || db.PendingDeltaRows() != want {
		t.Fatalf("after four valid batches: stats %d rows, version %d; want %d", st.DeltaRows, db.PendingDeltaRows(), want)
	}
	sameClustering("un-merged views", accepted)
	if err := b.MergeAll(); err != nil {
		t.Fatal(err)
	}
	sameClustering("after the merge", accepted)
	dangling("on the merged base")
	if err := b.AppendBatch(fifth); err != nil {
		t.Fatalf("the batch after a rejection on the merged base: %v", err)
	}
	sameClustering("appended after a rejection on the merged base", append(accepted, fifth))
}

// TestSharedTablesUnderConcurrentSchemes: Plain and PK of one benchmark share
// the tables PK's sort moves no row of, so what reads memoise on a stored
// table — Derived (a compressed root's string offsets, which a merge reads)
// and the zones derived on first use — is reached from both schemes at once.
// A goroutine per scheme appends its own arrival stream three times and
// merges, running Q01, Q03 and Q06 on a pinned snapshot after each append
// and after the merge, all concurrently; under -race that is the check, and
// every answer must equal a serial rerun on the same snapshot afterwards.
func TestSharedTablesUnderConcurrentSchemes(t *testing.T) {
	b, err := NewBenchmarkCompressed(0.01, true, plan.Plain, plan.PK)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.EnableIngest(0, 0); err != nil {
		t.Fatal(err)
	}
	type run struct {
		snap *plan.DB
		q    QueryDef
		rows [][]any
	}
	schemes := []plan.Scheme{plan.Plain, plan.PK}
	runs := make([][]run, len(schemes))
	errs := make([]error, len(schemes))
	var wg sync.WaitGroup
	for i, s := range schemes {
		db, g := b.DBs[s], NewDeltaGen(b.Data, int64(7+i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			read := func() error {
				snap := db.Snapshot()
				for _, q := range []QueryDef{Queries[0], Queries[2], Queries[5]} {
					res, _, _, err := RunQueryOpts(snap, q, RunOptions{Workers: 2})
					if err != nil {
						return fmt.Errorf("%s %s: %w", s, q.Name, err)
					}
					runs[i] = append(runs[i], run{snap, q, resultValues(res)})
				}
				return nil
			}
			for range 3 {
				if errs[i] = appendTo(db, g.Next(40)); errs[i] != nil {
					return
				}
				if errs[i] = read(); errs[i] != nil {
					return
				}
			}
			if errs[i] = db.Ingest().Merge(); errs[i] == nil {
				errs[i] = read()
			}
		}()
	}
	wg.Wait()
	for i, s := range schemes {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for k, r := range runs[i] {
			res, _, _, err := RunQuery(r.snap, r.q)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameMultiset(r.rows, resultValues(res)); diff != "" {
				t.Fatalf("%s %s (read %d) concurrently, against serially: %s", s, r.q.Name, k, diff)
			}
		}
	}
}

// MergeAll consolidates any remaining delta in every scheme.
func (b *Benchmark) MergeAll() error {
	for s, db := range b.DBs {
		if ing := db.Ingest(); ing != nil {
			if err := ing.Merge(); err != nil {
				return fmt.Errorf("tpch: merge (%s): %w", s, err)
			}
		}
	}
	return nil
}
