package tpch

import (
	"fmt"
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

// The ingest oracle: a database that grew by appends — snapshot views first,
// then an incremental merge — must be indistinguishable, bit for bit, from
// one rebuilt from scratch over the same rows. The reference rebuild keeps
// the frozen design (RebuildWithDesign) but re-sorts and re-aggregates from
// zero, a genuinely different code path from the splice-and-sum merge, so
// agreement is evidence rather than tautology.

// freshIngestBenchmark materializes a private benchmark the test may mutate
// (the shared fixture must stay append-free).
func freshIngestBenchmark(t testing.TB, sf float64, compress bool) *Benchmark {
	t.Helper()
	b, err := NewBenchmarkCompressed(sf, compress)
	if err != nil {
		t.Fatalf("NewBenchmarkCompressed: %v", err)
	}
	return b
}

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
			reb, err := core.RebuildWithDesign(db.Clustered, b.Schema, combined, core.BuildOptions{Device: db.Device})
			if err != nil {
				t.Fatalf("bdcc rebuild: %v", err)
			}
			refs[scheme] = &plan.DB{Scheme: plan.BDCC, Schema: b.Schema, Tables: combined, Clustered: reb, Device: db.Device}
		}
	}
	return refs
}

// TestIngestQueryEquivalence appends three arrival batches, then checks every
// query under every scheme against the from-scratch rebuild — first over the
// un-merged delta views, then again after the merge consolidated them — in
// the serial, parallel (4 workers), and sharded (2×2) cells. Serial results
// must match the rebuild bit for bit; the parallel and sharded cells must
// match their own serial run bit for bit (the engine's standing guarantee,
// now over snapshot views).
func TestIngestQueryEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("ingest oracle skipped in -short")
	}
	b := freshIngestBenchmark(t, 0.02, false)
	if err := b.EnableIngest(0, 0); err != nil {
		t.Fatal(err)
	}
	gen := NewDeltaGen(b.Data, 777)
	var batches []*DeltaBatch
	var deltaRows int64
	for i := 0; i < 3; i++ {
		batch := gen.Next(250)
		batches = append(batches, batch)
		deltaRows += int64(batch.Orders.Rows() + batch.Lineitem.Rows())
		if err := b.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	combined := combinedWith(t, b.Data, batches)
	refs := referenceDBs(t, b, combined)

	check := func(label string) {
		t.Helper()
		for scheme, db := range b.DBs {
			sdb := db.Snapshot()
			for _, q := range Queries {
				cell := fmt.Sprintf("%s under %s %s", q.Name, scheme, label)
				got, _, _, err := RunQuery(sdb, q)
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				want, _, _, err := RunQuery(refs[scheme], q)
				if err != nil {
					t.Fatalf("%s (rebuild): %v", cell, err)
				}
				assertSameResult(t, cell+" vs from-scratch rebuild", got, want)
				par, _, _, err := RunQueryOpts(sdb, q, RunOptions{Workers: 4})
				if err != nil {
					t.Fatalf("%s (parallel): %v", cell, err)
				}
				assertSameResult(t, cell+" parallel vs serial", par, got)
				sh, _, _, err := RunQueryOpts(sdb, q, RunOptions{Workers: 2, Shards: 2})
				if err != nil {
					t.Fatalf("%s (sharded): %v", cell, err)
				}
				assertSameResult(t, cell+" sharded vs serial", sh, got)
			}
		}
	}

	for scheme, db := range b.DBs {
		if got := db.PendingDeltaRows(); got != deltaRows {
			t.Fatalf("%s sees %d pending delta rows, appended %d", scheme, got, deltaRows)
		}
		if db.Epoch() == 0 {
			t.Fatalf("%s still at epoch 0 after appends", scheme)
		}
	}
	drift := b.DBs[plan.BDCC].Ingest().Stats().Drift["lineitem"]
	if drift.DeltaRows == 0 || drift.Distance <= 0 {
		t.Fatalf("no drift measured over the lineitem delta: %+v", drift)
	}
	check("with un-merged delta")

	preEpoch := b.DBs[plan.BDCC].Epoch()
	if err := b.MergeAll(); err != nil {
		t.Fatal(err)
	}
	for scheme, db := range b.DBs {
		st := db.Ingest().Stats()
		if st.Err != nil {
			t.Fatalf("%s merge error: %v", scheme, st.Err)
		}
		if st.Merges != 1 || st.MergedRows != deltaRows || st.DeltaRows != 0 {
			t.Fatalf("%s merge counters: %+v, want 1 merge of %d rows and an empty delta", scheme, st, deltaRows)
		}
		if db.PendingDeltaRows() != 0 {
			t.Fatalf("%s still reports pending delta after the merge", scheme)
		}
	}
	if got := b.DBs[plan.BDCC].Epoch(); got <= preEpoch {
		t.Fatalf("merge did not advance the epoch: %d -> %d", preEpoch, got)
	}
	check("after the merge")

	// The incremental splice must also reproduce the rebuild's physical
	// clustering: same count table (cells, counts, offsets, relocation flags)
	// and same stored row count per designed fact table.
	mdb := b.DBs[plan.BDCC].Snapshot()
	for _, name := range []string{"orders", "lineitem"} {
		got, want := mdb.BDCCTable(name), refs[plan.BDCC].BDCCTable(name)
		if got == nil || want == nil {
			t.Fatalf("%s missing from a clustered database", name)
		}
		if got.Data.Rows() != want.Data.Rows() {
			t.Fatalf("%s stores %d rows after the merge, rebuild stores %d", name, got.Data.Rows(), want.Data.Rows())
		}
		if len(got.Count) != len(want.Count) {
			t.Fatalf("%s count table has %d cells, rebuild has %d", name, len(got.Count), len(want.Count))
		}
		for i := range got.Count {
			if got.Count[i] != want.Count[i] {
				t.Fatalf("%s count entry %d = %+v, rebuild has %+v", name, i, got.Count[i], want.Count[i])
			}
		}
	}
}

// TestIngestFreshDesignAgrees cross-checks the merged database against a
// completely fresh advisor+builder run over the combined tables — its own
// design, not the frozen one — with the tolerant comparison (summation order
// differs across clusterings).
func TestIngestFreshDesignAgrees(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	b := freshIngestBenchmark(t, 0.02, false)
	if err := b.EnableIngest(0, 0); err != nil {
		t.Fatal(err)
	}
	gen := NewDeltaGen(b.Data, 4242)
	batch := gen.Next(400)
	if err := b.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := b.MergeAll(); err != nil {
		t.Fatal(err)
	}
	combined := combinedWith(t, b.Data, []*DeltaBatch{batch})
	db := b.DBs[plan.BDCC]
	fresh, err := plan.NewBDCCDB(b.Schema, combined, db.Device, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, num := range []int{1, 3, 6, 9, 18} {
		q := Query(num)
		got, _, _, err := RunQuery(db.Snapshot(), q)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _, err := RunQuery(fresh, q)
		if err != nil {
			t.Fatal(err)
		}
		gr, wr := resultRows(got, got.Row), resultRows(want, want.Row)
		if len(gr) != len(wr) {
			t.Fatalf("%s: %d rows vs %d under a fresh design", q.Name, len(gr), len(wr))
		}
		for i := range gr {
			if !rowsEqual(gr[i], wr[i]) {
				t.Fatalf("%s row %d: %s vs %s under a fresh design", q.Name, i, gr[i], wr[i])
			}
		}
	}
}

// TestIngestCompressedMerge checks the freshness tax and its repayment: over
// a compressed base the delta views scan uncompressed (appends must not stall
// on re-encoding), and the merge re-compresses the consolidated layout.
// Results match the uncompressed from-scratch rebuild bit for bit throughout.
func TestIngestCompressedMerge(t *testing.T) {
	b := freshIngestBenchmark(t, 0.01, true)
	if err := b.EnableIngest(0, 0); err != nil {
		t.Fatal(err)
	}
	gen := NewDeltaGen(b.Data, 31)
	batch := gen.Next(200)
	if err := b.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	combined := combinedWith(t, b.Data, []*DeltaBatch{batch})
	refs := referenceDBs(t, b, combined)
	queries := []QueryDef{Query(1), Query(6)}

	// checkState returns the bytes BDCC read per query.
	checkState := func(label string, wantCompressed bool) map[string]int64 {
		t.Helper()
		read := make(map[string]int64)
		for scheme, db := range b.DBs {
			sdb := db.Snapshot()
			st, err := sdb.StoredTable("lineitem")
			if err != nil {
				t.Fatal(err)
			}
			if st.Compressed() != wantCompressed {
				t.Fatalf("%s lineitem view %s: compressed=%v, want %v", scheme, label, st.Compressed(), wantCompressed)
			}
			for _, q := range queries {
				got, st, _, err := RunQuery(sdb, q)
				if err != nil {
					t.Fatalf("%s under %s %s: %v", q.Name, scheme, label, err)
				}
				want, _, _, err := RunQuery(refs[scheme], q)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, fmt.Sprintf("%s under %s %s", q.Name, scheme, label), got, want)
				if scheme == plan.BDCC {
					read[q.Name] = st.IO.Bytes
				}
			}
		}
		return read
	}

	before := checkState("with un-merged delta", false)
	if err := b.MergeAll(); err != nil {
		t.Fatal(err)
	}
	after := checkState("after the merge", true)
	for scheme, db := range b.DBs {
		if cs := db.Snapshot().CompressionStats(); cs.EncodedBytes == 0 {
			t.Fatalf("%s reports no encoded bytes after the merge re-compression", scheme)
		}
		if n := db.PendingDeltaRows(); n != 0 {
			t.Fatalf("%s still sees %d delta rows after the merge", scheme, n)
		}
	}
	// The merge repays the freshness tax: BDCC reads its re-compressed cells,
	// not the uncompressed delta views.
	for _, q := range queries {
		if after[q.Name] >= before[q.Name] {
			t.Fatalf("%s under bdcc reads %d bytes after the merge, not below the %d before it",
				q.Name, after[q.Name], before[q.Name])
		}
	}
}

// q6Revenue recomputes Q06 over a snapshot's raw lineitem view — any row
// order, so it is layout-independent and compares with a relative tolerance.
func q6Revenue(sdb *plan.DB) (float64, error) {
	li, ok := sdb.Tables["lineitem"]
	if !ok {
		return 0, fmt.Errorf("no lineitem view")
	}
	lo, hi := vector.ParseDate("1994-01-01"), vector.ParseDate("1994-12-31")
	sd := li.MustColumn("l_shipdate").I64
	disc := li.MustColumn("l_discount").F64
	qty := li.MustColumn("l_quantity").F64
	ext := li.MustColumn("l_extendedprice").F64
	var sum float64
	for i := range sd {
		if sd[i] >= lo && sd[i] <= hi && disc[i] >= 0.05 && disc[i] <= 0.07 && qty[i] < 24 {
			sum += ext[i] * disc[i]
		}
	}
	return sum, nil
}

// TestIngestSoak hammers the snapshot machinery under -race: one writer
// appending arrival batches into all three schemes while readers pin
// snapshots and verify each query result against an independent recomputation
// over the very snapshot it ran on — a torn view (partial merge, half-visible
// batch) shows up as a gross revenue mismatch. Background merges trigger off
// the delta limit while the readers run. The run must leak neither
// goroutines nor tracker bytes.
func TestIngestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("ingest soak skipped in -short")
	}
	baseGoroutines := runtime.NumGoroutine()
	b := freshIngestBenchmark(t, 0.01, false)
	if err := b.EnableIngest(1500, 0.25); err != nil {
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
				maxKey := func(t *storage.Table, col string) int64 {
					var m int64
					for _, k := range t.MustColumn(col).I64 {
						if k > m {
							m = k
						}
					}
					return m
				}
				if lk, ok := maxKey(sdb.Tables["lineitem"], "l_orderkey"), maxKey(sdb.Tables["orders"], "o_orderkey"); lk > ok {
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
	b.WaitIngest()
	if err := b.MergeAll(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	var final []string
	for scheme, db := range b.DBs {
		st := db.Ingest().Stats()
		if st.Err != nil {
			t.Fatalf("%s merge error: %v", scheme, st.Err)
		}
		if st.Merges < 2 {
			t.Fatalf("%s committed %d merges over the soak, want the limit to have triggered background merges", scheme, st.Merges)
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
		final = append(final, resultRows(res, res.Row)...)
		if err := env.Close(); err != nil {
			t.Fatal(err)
		}
		if cur := env.Ctx.Mem.Current(); cur != 0 {
			t.Fatalf("%s leaks %d bytes on the query tracker after the soak", scheme, cur)
		}
	}
	for i := 1; i < len(final); i++ {
		if !rowsEqual(final[0], final[i]) {
			t.Fatalf("schemes disagree after the soak: %s vs %s", final[0], final[i])
		}
	}

	// Every background merge goroutine must have joined.
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
		switch c.Kind {
		case vector.Int64:
			cols[i] = storage.NewInt64Column(c.Name, slices.Clone(c.I64[from:]))
		case vector.Float64:
			cols[i] = storage.NewFloat64Column(c.Name, slices.Clone(c.F64[from:]))
		case vector.String:
			cols[i] = storage.NewHeapColumn(c.Name, vector.Heap{})
			cols[i].Str.AppendRange(c.Str, from, c.Str.Len())
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
	b, err := NewBenchmark(0.01, plan.BDCC)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.EnableIngest(0, 0); err != nil {
		t.Fatal(err)
	}
	db := b.DBs[plan.BDCC]
	uses := 0
	for _, td := range db.Clustered.Design.Tables {
		tab := b.Data.Tables[td.Table]
		from := tab.Rows() - min(64, tab.Rows())
		got, err := core.BindBatch(db.Clustered, b.Schema, b.Data.Tables, td.Table, from, tailRows(tab, from))
		if err != nil {
			t.Fatalf("%s: %v", td.Table, err)
		}
		want, err := core.BindUses(db.Clustered, b.Schema, b.Data.Tables, td.Table, from)
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
		for _, d := range batch.Orders.MustColumn("o_orderdate").I64 {
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
		_, err := core.BindBatch(db.Snapshot().Clustered, b.Schema, after, "lineitem", liFrom, batch.Lineitem)
		if err == nil || !strings.Contains(err.Error(), "foreign key fk_l_o: value") || !strings.Contains(err.Error(), "has no match in orders.o_orderkey") {
			t.Fatalf("batch %d: lineitems bound before their orders: %v", i, err)
		}
		got, err := core.BindBatch(db.Snapshot().Clustered, b.Schema, after, "orders", ordFrom, batch.Orders)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.BindUses(db.Clustered, b.Schema, after, "orders", ordFrom)
		if err != nil {
			t.Fatal(err)
		}
		sameBindings(t, fmt.Sprintf("orders of batch %d", i), got, want)
		if err := db.Ingest().Append("orders", batch.Orders); err != nil {
			t.Fatal(err)
		}
		got, err = core.BindBatch(db.Snapshot().Clustered, b.Schema, after, "lineitem", liFrom, batch.Lineitem)
		if err != nil {
			t.Fatal(err)
		}
		want, err = core.BindUses(db.Clustered, b.Schema, after, "lineitem", liFrom)
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

// TestIncrementalDriftMatchesDriftFor: the drift report an append publishes —
// read off the view's and the consolidated base's count tables — equals,
// field for field, core.DriftFor recomputed from scratch (re-binding every
// delta row over the combined tables), after each append and again on top of
// a merged base.
func TestIncrementalDriftMatchesDriftFor(t *testing.T) {
	b, err := NewBenchmark(0.01, plan.BDCC)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.EnableIngest(0, 0); err != nil {
		t.Fatal(err)
	}
	db := b.DBs[plan.BDCC]
	gen := NewDeltaGen(b.Data, 12)
	gen.Backfill = 0.3
	var batches []*DeltaBatch
	cons := db.Clustered
	consRows := map[string]int{"orders": b.Data.Tables["orders"].Rows(), "lineitem": b.Data.Tables["lineitem"].Rows()}
	appendAndCheck := func(label string) {
		t.Helper()
		batch := gen.Next(50)
		batches = append(batches, batch)
		if err := b.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		combined := combinedWith(t, b.Data, batches)
		published := db.Ingest().Stats().Drift
		for table, from := range consRows {
			want, err := core.DriftFor(cons, b.Schema, combined, table, from)
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := published[table]; !ok || got != want {
				t.Fatalf("%s, %s: published drift %+v, DriftFor from scratch %+v", label, table, got, want)
			}
			if want.DeltaRows != int64(combined[table].Rows()-from) || want.Distance <= 0 {
				t.Fatalf("%s, %s: reference report is degenerate: %+v", label, table, want)
			}
		}
	}
	for i := 1; i <= 3; i++ {
		appendAndCheck(fmt.Sprintf("append %d", i))
	}
	if err := b.MergeAll(); err != nil {
		t.Fatal(err)
	}
	if d := db.Ingest().Stats().Drift; len(d) != 0 {
		t.Fatalf("drift reports survive the merge: %v", d)
	}
	cons = db.Snapshot().Clustered
	for table := range consRows {
		consRows[table] = db.Snapshot().Tables[table].Rows()
	}
	for i := 4; i <= 5; i++ {
		appendAndCheck(fmt.Sprintf("append %d, over the merged base", i))
	}
}

// TestIngestRejectedAppendLeavesNoTrace is the regression test for the
// wedge: a lineitem batch whose orders never arrived is rejected with the
// dangling foreign key, and used to stay in the delta store — every later
// lineitem append then failed ("clustered lineitem holds … rows, append
// starts at row …") and the store's row count disagreed with the published
// version's. A rejected append must leave delta store, counters and
// published version exactly as it found them, on an empty delta and on top
// of earlier batches, and the stream must go on: the following valid batches
// succeed, and views and merged base equal the from-scratch rebuild. The
// rejected batch was already written past the rows of the insertion-order
// view it extended, so the batch after it — here also the first after a
// merge — must copy that view rather than extend it once more, and the
// insertion-order views must still hold exactly the accepted rows.
func TestIngestRejectedAppendLeavesNoTrace(t *testing.T) {
	b, err := NewBenchmark(0.01, plan.BDCC)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.EnableIngest(0, 0); err != nil {
		t.Fatal(err)
	}
	db := b.DBs[plan.BDCC]
	ing := db.Ingest()
	gen := NewDeltaGen(b.Data, 8)
	lost, first, second, third := gen.Next(5), gen.Next(30), gen.Next(30), gen.Next(30)

	reject := func(label string) {
		t.Helper()
		before, epoch, pending, view := ing.Stats(), db.Epoch(), db.PendingDeltaRows(), db.Snapshot().Clustered
		err := ing.Append("lineitem", lost.Lineitem)
		if err == nil || !strings.Contains(err.Error(), "foreign key fk_l_o") || !strings.Contains(err.Error(), "has no match") {
			t.Fatalf("%s: orphaned lineitems were not rejected as dangling: %v", label, err)
		}
		after := ing.Stats()
		if after.DeltaRows != before.DeltaRows || after.AppendedRows != before.AppendedRows || after.Epoch != before.Epoch {
			t.Fatalf("%s: the rejected append moved the counters: %+v -> %+v", label, before, after)
		}
		if db.Epoch() != epoch || db.PendingDeltaRows() != pending || db.Snapshot().Clustered != view {
			t.Fatalf("%s: the rejected append published a version", label)
		}
		if after.DeltaRows != db.PendingDeltaRows() {
			t.Fatalf("%s: the delta stores hold %d rows, the published version shows %d", label, after.DeltaRows, db.PendingDeltaRows())
		}
	}
	sameClustering := func(label string, batches []*DeltaBatch) {
		t.Helper()
		combined := combinedWith(t, b.Data, batches)
		reb, err := core.RebuildWithDesign(db.Clustered, b.Schema, combined, core.BuildOptions{Device: db.Device})
		if err != nil {
			t.Fatal(err)
		}
		snap := db.Snapshot()
		for _, name := range []string{"orders", "lineitem"} {
			got, want := snap.BDCCTable(name), reb.Tables[name]
			if !slices.Equal(got.Count, want.Count) || !slices.Equal(got.SortedKeys, want.SortedKeys) || got.Data.Rows() != want.Data.Rows() {
				t.Fatalf("%s: clustered %s differs from the from-scratch rebuild", label, name)
			}
			view, rows := snap.Tables[name], combined[name]
			for i, c := range rows.Cols {
				v := view.Cols[i]
				if view.Rows() != rows.Rows() || !slices.Equal(v.I64, c.I64) || !slices.Equal(v.F64, c.F64) || !slices.Equal(v.Str.Offs, c.Str.Offs) || !slices.Equal(v.Str.Bytes, c.Str.Bytes) {
					t.Fatalf("%s: the insertion-order view of %s differs from the accepted rows in column %s", label, name, c.Name)
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

	reject("on an empty delta")
	if err := b.AppendBatch(first); err != nil {
		t.Fatalf("the batch after a rejected one: %v", err)
	}
	reject("on top of one batch")
	if err := b.AppendBatch(second); err != nil {
		t.Fatalf("the batch after a second rejected one: %v", err)
	}
	want := int64(first.Orders.Rows() + first.Lineitem.Rows() + second.Orders.Rows() + second.Lineitem.Rows())
	if st := ing.Stats(); st.DeltaRows != want || db.PendingDeltaRows() != want || st.AppendedRows != want {
		t.Fatalf("after two valid batches: store %d rows, version %d, lifetime %d; want %d", st.DeltaRows, db.PendingDeltaRows(), st.AppendedRows, want)
	}
	sameClustering("un-merged views", []*DeltaBatch{first, second})
	if err := b.MergeAll(); err != nil {
		t.Fatal(err)
	}
	sameClustering("after the merge", []*DeltaBatch{first, second})
	reject("on the merged base")
	if err := b.AppendBatch(third); err != nil {
		t.Fatalf("the batch after a rejection on the merged base: %v", err)
	}
	sameClustering("appended after a rejection on the merged base", []*DeltaBatch{first, second, third})
}
