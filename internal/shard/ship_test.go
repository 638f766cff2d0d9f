package shard_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"bdcc/internal/core"
	"bdcc/internal/engine"
	"bdcc/internal/expr"
	"bdcc/internal/plan"
	"bdcc/internal/shard"
	"bdcc/internal/storage"
	"bdcc/internal/tpch"
	"bdcc/internal/vector"
)

// rebuiltPartition is the worker's partition as the receiving end used to
// build it, kept here as the reference the adopted table is held to: the
// segments read through a reader a batch at a time, each batch through the
// wire codec, the decoded batches concatenated, then NewTable and — when the
// original is compressed — Compress.
func rebuiltPartition(t testing.TB, tab *storage.Table, segs storage.RowRanges) *storage.Table {
	t.Helper()
	all := make([]int, len(tab.Cols))
	vals := make([]*vector.Vector, len(tab.Cols))
	for i, c := range tab.Cols {
		all[i] = i
		vals[i] = &vector.Vector{Kind: c.Kind}
	}
	r := storage.NewReader(tab, all, segs, nil)
	b := vector.NewBatch(r.Kinds())
	for len(segs) > 0 && r.Next(b) {
		wire := b.Encode(nil)
		got, n, err := vector.DecodeBatch(wire)
		if err != nil || n != len(wire) {
			t.Fatalf("batch codec: %v (%d of %d bytes)", err, n, len(wire))
		}
		for i, v := range got.Cols {
			vals[i].AppendVector(v)
		}
	}
	cols := make([]*storage.Column, len(tab.Cols))
	for i, c := range tab.Cols {
		switch v := vals[i]; c.Kind {
		case vector.Int64:
			cols[i] = storage.NewDecimalColumn(c.Name, v.I64, c.Scale)
		case vector.Float64:
			cols[i] = storage.NewFloat64Column(c.Name, v.F64)
		case vector.String:
			cols[i] = storage.NewStringColumn(c.Name, v.Str)
		}
	}
	out, err := storage.NewTable(tab.Name, tab.PageSize, cols...)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Compressed() {
		out.Compress()
	}
	return out
}

// heapValues returns the values of a heap.
func heapValues(h vector.Heap) []string {
	out := make([]string, h.Len())
	for i := range out {
		out[i] = h.At(i)
	}
	return out
}

func bitsOf(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// samePartition fails unless got is the table want is in everything a scan
// and the I/O model can see: every chunk, dictionaries, widths, pages,
// ReadStats over random ranges, and reader output batch by batch.
func samePartition(t *testing.T, got, want *storage.Table) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Compressed() != want.Compressed() || got.PageSize != want.PageSize ||
		len(got.Cols) != len(want.Cols) || got.DensestColumn().Name != want.DensestColumn().Name {
		t.Fatalf("%d rows × %d columns compressed=%v, want %d × %d %v", got.Rows(), len(got.Cols), got.Compressed(),
			want.Rows(), len(want.Cols), want.Compressed())
	}
	all := make([]int, len(want.Cols))
	for i, w := range want.Cols {
		all[i] = i
		g := got.Cols[i]
		if g.Name != w.Name || g.Kind != w.Kind || g.Scale != w.Scale || g.Width() != w.Width() || got.Pages(g) != want.Pages(w) {
			t.Fatalf("column %s: width %v in %d pages, want %v in %d", w.Name, g.Width(), got.Pages(g), w.Width(), want.Pages(w))
		}
		if !want.Compressed() {
			continue // raw chunks of any length: the reader below holds the values
		}
		ge, we := g.Enc, w.Enc
		if ge.ChunkRows != we.ChunkRows || !slices.Equal(ge.Dict, we.Dict) || ge.DictBits != we.DictBits ||
			ge.DictBytes != we.DictBytes || ge.RawBytes != we.RawBytes || ge.EncodedBytes != we.EncodedBytes ||
			ge.Counts != we.Counts || len(ge.Chunks) != len(we.Chunks) {
			t.Fatalf("column %s: encoding totals differ", w.Name)
		}
		for k := range we.Chunks {
			gc, wc := &ge.Chunks[k], &we.Chunks[k]
			if gc.Enc != wc.Enc || gc.Start != wc.Start || gc.Rows != wc.Rows || gc.Bytes != wc.Bytes ||
				gc.Base != wc.Base || gc.BitW != wc.BitW || !bytes.Equal(gc.Packed, wc.Packed) ||
				!slices.Equal(gc.RunN, wc.RunN) || !slices.Equal(gc.RunI, wc.RunI) ||
				!slices.Equal(gc.RunS, wc.RunS) ||
				!slices.Equal(gc.ValI, wc.ValI) || !slices.Equal(bitsOf(gc.ValF), bitsOf(wc.ValF)) ||
				!slices.Equal(heapValues(gc.ValS), heapValues(wc.ValS)) ||
				gc.MinI != wc.MinI || gc.MaxI != wc.MaxI || gc.MinS != wc.MinS || gc.MaxS != wc.MaxS {
				t.Fatalf("column %s chunk %d (%s): differs from the rebuilt chunk (%s)", w.Name, k, gc.Enc, wc.Enc)
			}
		}
	}
	kinds := storage.NewReader(want, all, nil, nil).Kinds()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 6 && want.Rows() > 0; trial++ {
		var ranges storage.RowRanges // nil first: the full table
		for lo := 0; trial > 0 && lo < want.Rows(); {
			lo += rng.Intn(3000)
			hi := min(lo+1+rng.Intn(4000), want.Rows())
			if lo < hi {
				ranges = append(ranges, storage.RowRange{Start: lo, End: hi})
			}
			lo = hi
		}
		cols := all
		if trial%2 == 1 {
			cols = all[trial%len(all):]
		}
		gr, gp, gb := got.ReadStats(cols, ranges)
		wr, wp, wb := want.ReadStats(cols, ranges)
		if gr != wr || gp != wp || gb != wb {
			t.Fatalf("ReadStats %d runs / %d pages / %d bytes, the rebuilt table charges %d / %d / %d", gr, gp, gb, wr, wp, wb)
		}
		rg, rw := storage.NewReader(got, all, ranges, nil), storage.NewReader(want, all, ranges, nil)
		bg, bw := vector.NewBatch(kinds), vector.NewBatch(kinds)
		for rw.Next(bw) {
			if !rg.Next(bg) || bg.Len() != bw.Len() {
				t.Fatalf("reader batch of %d rows, want %d", bg.Len(), bw.Len())
			}
			for i := range bw.Cols {
				if !slices.Equal(bg.Cols[i].I64, bw.Cols[i].I64) || !slices.Equal(bg.Cols[i].Str, bw.Cols[i].Str) ||
					!slices.Equal(bitsOf(bg.Cols[i].F64), bitsOf(bw.Cols[i].F64)) {
					t.Fatalf("reader output differs in column %s", want.Cols[i].Name)
				}
			}
		}
		if rg.Next(bg) {
			t.Fatal("reader produces batches past the rebuilt table's last")
		}
	}
}

// TestShippedPartitionMatchesRebuilt: the table a worker adopts from the
// coordinator's column frames is the table it used to rebuild from row
// batches — which is what keeps every worker's modeled reads where they
// were. Over lineitem and orders, two and three workers, compressed and not.
func TestShippedPartitionMatchesRebuilt(t *testing.T) {
	for _, compress := range []bool{true, false} {
		b, err := tpch.NewBenchmarkCompressed(0.005, compress, plan.BDCC)
		if err != nil {
			t.Fatal(err)
		}
		db := b.DBs[plan.BDCC]
		for _, name := range []string{"lineitem", "orders"} {
			tab, err := db.StoredTable(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3} {
				p := shard.NewPartitioning(name, db.BDCCTable(name).Count, workers)
				ships, err := shard.ShipmentsOf(tab, p)
				if err != nil {
					t.Fatal(err)
				}
				for w, s := range ships {
					t.Run(fmt.Sprintf("%s/compress=%v/%d-of-%d", name, compress, w, workers), func(t *testing.T) {
						got, err := shard.Adopt(s)
						if err != nil {
							t.Fatal(err)
						}
						if got.Rows() == 0 {
							t.Fatal("an empty partition proves nothing")
						}
						samePartition(t, got, rebuiltPartition(t, tab, p.Segments(w)))
					})
				}
			}
		}
	}
}

// TestShippedUnitPushesDown: a shipped scan unit and its failover re-scan
// agree with pushdown on. For each worker's adopted partition of SF 0.01
// lineitem, every segment is one unit: a FragScan filtered on
// l_shipinstruct run over the partition (through its RangeMap) and over the
// coordinator's table must emit the same batches, though the partition's
// chunks were cut over other rows. The worker's fragment must push the
// filter's interval, and its reader materialize fewer rows than each unit
// covers.
func TestShippedUnitPushesDown(t *testing.T) {
	li, entries := lineitem(t, 0.01)
	p := shard.NewPartitioning("lineitem", entries, 2)
	ships, err := shard.ShipmentsOf(li, p)
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"l_orderkey", "l_linenumber", "l_quantity", "l_shipinstruct"}
	probe := make(expr.Schema, len(cols))
	for i, c := range cols {
		lc := li.Cols[li.ColumnIndex(c)]
		probe[i] = expr.ColMeta{Name: c, Kind: lc.Kind, Scale: lc.Scale}
	}
	prepare := func(st engine.ScanTable) *engine.Fragment {
		f := &engine.Fragment{Kind: engine.FragScan, Table: "lineitem", Probe: probe,
			Residual: expr.Eq(expr.C("l_shipinstruct"), expr.Str("DELIVER IN PERSON")),
			Src:      func(string) (engine.ScanTable, error) { return st, nil }}
		if err := f.Prepare(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	run := func(f *engine.Fragment, u *engine.GroupUnit) []string {
		var out []string
		if err := f.Run(u, func(b *vector.Batch) {
			s := fmt.Sprint(b.GroupID, b.Grouped, b.Len())
			for _, c := range b.Cols {
				s += fmt.Sprint(c.I64, c.F64, c.Str)
			}
			out = append(out, s)
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	coord := prepare(engine.ScanTable{Tab: li})
	for w, sh := range ships {
		part, err := shard.Adopt(sh)
		if err != nil {
			t.Fatal(err)
		}
		segs := p.Segments(w)
		rm := shard.NewRangeMap(segs)
		worker := prepare(engine.ScanTable{Tab: part, Map: rm.Map})
		partIdx := make([]int, len(cols))
		for i, c := range cols {
			partIdx[i] = part.ColumnIndex(c)
		}
		if len(worker.Pushed()) == 0 {
			t.Fatalf("worker %d: the fragment over its partition pushes no interval", w)
		}
		for gi, seg := range segs {
			u := &engine.GroupUnit{GID: uint64(gi), ScanRanges: storage.RowRanges{seg}}
			got, want := run(worker, u), run(coord, u)
			if len(got) != len(want) {
				t.Fatalf("worker %d unit %d: %d batches on the partition, %d on the coordinator", w, gi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("worker %d unit %d batch %d: partition\n%.300s\ncoordinator\n%.300s", w, gi, i, got[i], want[i])
				}
			}
			local, err := rm.Map(seg)
			if err != nil {
				t.Fatal(err)
			}
			materialized := 0
			r := storage.NewReaderPush(part, partIdx, storage.RowRanges{local}, nil, worker.Pushed())
			for b := vector.NewBatch(r.Kinds()); r.Next(b); {
				materialized += b.Len()
			}
			if materialized >= seg.Len() {
				t.Fatalf("worker %d unit %d: the pushed reader materializes %d of the unit's %d rows", w, gi, materialized, seg.Len())
			}
		}
	}
}

// TestShipmentsSharedAcrossCallers: however many planners partition one
// table version at once, all of them ship the one published build; other
// worker counts and other versions have builds of their own.
func TestShipmentsSharedAcrossCallers(t *testing.T) {
	li, entries := lineitem(t, 0.002)
	p := shard.NewPartitioning("lineitem", entries, 2)
	const callers = 8
	got := make([][]shard.Shipped, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ships, err := shard.ShipmentsOf(li, shard.NewPartitioning("lineitem", entries, 2))
			if err != nil {
				t.Error(err)
			}
			got[i] = ships
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		for w := range got[0] {
			if &got[i][w].Frames[0][0] != &got[0][w].Frames[0][0] || &got[i][w].Manifest[0] != &got[0][w].Manifest[0] {
				t.Fatalf("caller %d ships worker %d a build of its own", i, w)
			}
		}
	}
	three, err := shard.ShipmentsOf(li, shard.NewPartitioning("lineitem", entries, 3))
	if err != nil || len(three) != 3 {
		t.Fatalf("three-way shipments: %d, %v", len(three), err)
	}
	again, _ := shard.ShipmentsOf(li, p)
	if &again[0].Frames[0][0] != &got[0][0].Frames[0][0] {
		t.Fatal("a three-way build displaced the two-way one")
	}
	// The memo is keyed by the version and the worker count alone, so a
	// caller pairing the version with other entries must not be served it.
	other, err := shard.ShipmentsOf(li, shard.NewPartitioning("lineitem", entries[:len(entries)/2], 2))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(other[1].Manifest, got[0][1].Manifest) || &other[0].Frames[0][0] == &got[0][0].Frames[0][0] {
		t.Fatal("a different placement was served the memoised shipments")
	}
	// Entries that leave the table are an error, not a panic, and poison
	// nothing.
	bad := slices.Clone(entries)
	bad[len(bad)-1].Count += 10
	fresh, err := li.Extract(storage.FullRange(li.Rows()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.ShipmentsOf(fresh, shard.NewPartitioning("lineitem", bad, 2)); err == nil {
		t.Fatal("entries past the table's last row built a shipment")
	}
	if _, err := shard.ShipmentsOf(fresh, shard.NewPartitioning("lineitem", entries, 2)); err != nil {
		t.Fatalf("a failed build was kept: %v", err)
	}
}

// sameRows fails unless got is want row for row, exact float bits included
// (Row renders floats in full precision).
func sameRows(t *testing.T, label string, got, want *engine.Result) {
	t.Helper()
	if got.Rows() != want.Rows() {
		t.Fatalf("%s: %d rows, want %d", label, got.Rows(), want.Rows())
	}
	for i := 0; i < want.Rows(); i++ {
		if !slices.Equal(got.Row(i), want.Row(i)) {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got.Row(i), want.Row(i))
		}
	}
}

// partFrames sums the partition data frames the servers have received.
func partFrames(srvs ...*shard.Server) int64 {
	var n int64
	for _, s := range srvs {
		n += shard.PartFrames(s)
	}
	return n
}

// listen serves a fresh worker on addr ("127.0.0.1:0" for any port),
// retrying while a just-closed listener still holds the port.
func listen(t *testing.T, addr string) (*shard.Server, string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		l, err := net.Listen("tcp", addr)
		if err == nil {
			srv := shard.NewServer(2)
			go srv.Serve(l)
			t.Cleanup(func() { srv.Close() })
			return srv, l.Addr().String()
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPartitionsStayResident: a partition shipped to a worker outlives the
// query that shipped it. A second query on a fresh NewSet, and one on a
// fresh DialSet to the same bdccworker servers, sends no data frame and
// returns the serial result byte for byte. An append's new version ships
// once, and the superseded one is freed when its last session ends; a
// restarted worker is sent the data again; and a shipment whose frames do
// not match its digest drops the session, the query completing on the
// coordinator's fallback with the same result.
func TestPartitionsStayResident(t *testing.T) {
	b, err := tpch.NewBenchmarkCompressed(0.005, true, plan.BDCC)
	if err != nil {
		t.Fatal(err)
	}
	db := b.DBs[plan.BDCC]
	q := tpch.Query(12) // scatter-scans lineitem and orders
	run := func(db *plan.DB, opt engine.Options) (*engine.Result, *tpch.Stats) {
		t.Helper()
		want, _, _, err := tpch.RunQueryOpts(db, q, engine.Options{Workers: 1, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, st, _, err := tpch.RunQueryOpts(db, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		if st.WorkerIO == nil {
			t.Fatal("the query did not partition")
		}
		sameRows(t, q.Name+" partitioned", got, want)
		return got, st
	}
	lineitems := func(srvs []*shard.Server) []int {
		out := make([]int, len(srvs))
		for i, s := range srvs {
			n, _ := shard.ResidentParts(s)
			out[i] = n["lineitem"]
		}
		return out
	}

	t.Run("sim", func(t *testing.T) {
		opt := engine.Options{Workers: 2, Shards: 2, Partition: true}
		fleet := shard.FleetServers(2, 2)
		run(db, opt)
		shipped := partFrames(fleet...)
		_, st := run(db, opt)
		if got := partFrames(fleet...); got != shipped {
			t.Fatalf("a second query on a fresh set sent %d partition data frames", got-shipped)
		}
		if st.Net.Bytes > 1<<20 {
			t.Fatalf("a second query moved %d bytes", st.Net.Bytes)
		}

		if err := b.EnableIngest(0, 0); err != nil {
			t.Fatal(err)
		}
		if err := b.AppendBatch(tpch.NewDeltaGen(b.Data, 3).Next(20)); err != nil {
			t.Fatal(err)
		}
		snap := db.Snapshot()
		run(snap, opt)
		appended := partFrames(fleet...)
		if appended == shipped {
			t.Fatal("the appended version was not shipped")
		}
		run(snap, opt)
		if got := partFrames(fleet...); got != appended {
			t.Fatalf("the appended version shipped twice (%d more frames)", got-appended)
		}
		if n := lineitems(fleet); !slices.Equal(n, []int{1, 1}) {
			t.Fatalf("resident lineitem partitions per worker %v, want the new version alone", n)
		}

		// Frames that do not match the digest they are offered under.
		li, err := snap.StoredTable("lineitem")
		if err != nil {
			t.Fatal(err)
		}
		shard.FlipOfferDigests(li, 2)
		defer shard.FlipOfferDigests(li, 2)
		_, st = run(snap, opt)
		if st.LocalFallbackUnits == 0 {
			t.Fatal("no unit fell back although every session was dropped")
		}
		if n := lineitems(fleet); !slices.Equal(n, []int{1, 1}) {
			t.Fatalf("a refused transfer changed the resident partitions: %v", n)
		}
	})

	t.Run("dial", func(t *testing.T) {
		w0, addr0 := listen(t, "127.0.0.1:0")
		w1, addr1 := listen(t, "127.0.0.1:0")
		opt := engine.Options{Workers: 2, Remotes: []string{addr0, addr1}, Partition: true}
		run(db, opt)
		shipped := partFrames(w0, w1)
		if shard.PartFrames(w0) == 0 || shard.PartFrames(w1) == 0 {
			t.Fatal("the first query shipped no partition")
		}
		run(db, opt)
		if got := partFrames(w0, w1); got != shipped {
			t.Fatalf("a second query on a fresh DialSet sent %d partition data frames", got-shipped)
		}
		w0.Close()
		w0, _ = listen(t, addr0)
		before := shard.PartFrames(w1)
		run(db, opt)
		if shard.PartFrames(w0) == 0 {
			t.Fatal("the restarted worker was not sent its partitions")
		}
		if got := shard.PartFrames(w1); got != before {
			t.Fatalf("the worker that stayed up was sent %d frames", got-before)
		}
	})
}

// TestPartitionedSetLeavesNoGoroutines: a partitioned query over simulated
// workers leaves the goroutine count where it found it — the fleet's
// workers hold no goroutine between sessions.
func TestPartitionedSetLeavesNoGoroutines(t *testing.T) {
	b, err := tpch.NewBenchmarkCompressed(0.002, true, plan.BDCC)
	if err != nil {
		t.Fatal(err)
	}
	db := b.DBs[plan.BDCC]
	opt := engine.Options{Workers: 2, Shards: 2, Partition: true}
	base := runtime.NumGoroutine()
	for _, qn := range []int{12, 3} {
		if _, _, _, err := tpch.RunQueryOpts(db, tpch.Query(qn), opt); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines after Q%d, %d before\n%s", runtime.NumGoroutine(), qn, base, buf[:runtime.Stack(buf, true)])
			}
		}
	}
}

var fixtures sync.Map // sf → *tpch.Benchmark

func lineitem(t testing.TB, sf float64) (*storage.Table, []core.CountEntry) {
	t.Helper()
	v, ok := fixtures.Load(sf)
	if !ok {
		b, err := tpch.NewBenchmarkCompressed(sf, true, plan.BDCC)
		if err != nil {
			t.Fatal(err)
		}
		v, _ = fixtures.LoadOrStore(sf, b)
	}
	db := v.(*tpch.Benchmark).DBs[plan.BDCC]
	li, err := db.StoredTable("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	return li, db.BDCCTable("lineitem").Count
}

// BenchmarkPartitionShip times what a partitioned query pays to have
// lineitem (SF 0.01) on a fresh set of two simulated workers, closing the set
// so that adoption is inside the measurement: cold, on a table version the
// workers do not hold (build, digest, offer, send, adopt), and warm, on one
// they do (an offer answered resident). MB/op is what crossed the wire. A
// worker holds one unpinned partition per table name, so the cold runs
// alternate two placements of a fresh version — the blocks in key order and
// in reverse — each evicting the other.
func BenchmarkPartitionShip(b *testing.B) {
	li, entries := lineitem(b, 0.01)
	reversed := slices.Clone(entries)
	slices.Reverse(reversed)
	var sent int64
	ship := func(tab *storage.Table, entries []core.CountEntry) {
		set := shard.NewSet(2, 2, shard.PaperNet())
		set.PartitionTable("lineitem", tab, entries)
		for _, bk := range set.Backends() {
			bk.Close()
		}
		sent += set.Net().Stats().Bytes
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/op")
		b.ReportMetric(float64(sent)/(1<<20)/float64(b.N), "MB/op")
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		sent = 0
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh, err := li.Extract(storage.FullRange(li.Rows())) // a new version: nothing memoised
			if err != nil {
				b.Fatal(err)
			}
			placement := entries
			if i%2 == 1 {
				placement = reversed
			}
			b.StartTimer()
			ship(fresh, placement)
		}
		report(b)
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		ship(li, entries) // the workers now hold it
		sent = 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ship(li, entries)
		}
		report(b)
	})
}
