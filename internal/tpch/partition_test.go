package tpch

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bdcc/internal/plan"
	"bdcc/internal/shard"
)

// TestPartitionedScansDivide holds BDCC's shared-nothing claim over two TCP
// bdccworker servers at SF 0.05 (TestEngineMatchesReference's partitioned
// rows check the answers): each worker reads strictly less than the single
// box, within slack of its 1/N share per query and well under the single box
// over the suite, and the coordinator does not charge shipped scans again.
func TestPartitionedScansDivide(t *testing.T) {
	// Placement balances cumulative rows to within one z-order cell of
	// total/N, and a worker's reads are charged at page granularity over
	// its own partition: hence a slack and a floor per query rather than
	// equality. (Pushdown never changes the bytes charged — the pages were
	// already chosen by zonemap pruning — so it needs no slack.)
	// Those losses amortize over the suite, where each worker's total must
	// stay below partAggFrac of the single box's, or the scans were
	// replicated rather than divided.
	const (
		partSlack   = 1.5
		partFloor   = 1 << 20
		partAggFrac = 0.95
	)
	db := benchmarkFixture(t).DBs[plan.BDCC]
	srvs, addrs := startWorkers(t, 2, 2)
	var partBytes [2]int64
	var baseBytes int64 // single-box bytes of the queries that partitioned
	for _, q := range Queries {
		_, sst, _, err := RunQueryOpts(db, q, RunOptions{Workers: 1, Shards: 1})
		if err != nil {
			t.Fatalf("%s serial: %v", q.Name, err)
		}
		_, st, _, err := RunQueryOpts(db, q, RunOptions{Workers: 2, Remotes: addrs, Partition: true})
		if err != nil {
			t.Fatalf("%s partitioned: %v", q.Name, err)
		}
		if st.WorkerIO == nil {
			// Queries whose plans have no scatter scan stay local.
			continue
		}
		if len(st.WorkerIO) != len(addrs) {
			t.Fatalf("%s: %d worker IO slots for %d workers", q.Name, len(st.WorkerIO), len(addrs))
		}
		var sum int64
		share := float64(sst.IO.Bytes) / float64(len(addrs))
		for w, wio := range st.WorkerIO {
			if wio.Bytes >= sst.IO.Bytes && sst.IO.Bytes > 0 {
				t.Fatalf("%s: worker %d read %d bytes, not less than the single-box %d — nothing was partitioned",
					q.Name, w, wio.Bytes, sst.IO.Bytes)
			}
			if limit := share*partSlack + partFloor; float64(wio.Bytes) > limit {
				t.Fatalf("%s: worker %d read %d bytes, above its 1/N bound %.0f (single-box %d over %d workers)",
					q.Name, w, wio.Bytes, limit, sst.IO.Bytes, len(addrs))
			}
			partBytes[w] += wio.Bytes
			sum += wio.Bytes
		}
		if sum == 0 {
			t.Fatalf("%s: partitioned plan lowered but no worker read any bytes", q.Name)
		}
		baseBytes += sst.IO.Bytes
		if st.IO.Bytes >= sst.IO.Bytes+sst.IO.Bytes/10 {
			t.Fatalf("%s: coordinator read %d bytes on the partitioned run vs %d single-box — shipped scans double-charged",
				q.Name, st.IO.Bytes, sst.IO.Bytes)
		}
	}
	for w, bts := range partBytes {
		if bts == 0 {
			t.Fatalf("worker %d performed no local scan reads across the whole suite", w)
		}
		if float64(bts) >= partAggFrac*float64(baseBytes) {
			t.Fatalf("worker %d read %d bytes over the partitioned queries, not below %.0f%% of their single-box %d — the scans were replicated, not divided",
				w, bts, partAggFrac*100, baseBytes)
		}
	}
	var units int64
	for _, s := range srvs {
		units += s.UnitsDone()
	}
	if units == 0 {
		t.Fatal("no unit ever reached a TCP worker — the partitioned path went unexercised")
	}
}

// TestPartitionedFailoverMidScan kills one of two TCP workers in the middle
// of a partitioned scan-heavy query — after its second completed unit — and
// asserts the run still matches the serial oracle byte for byte: the dead
// worker's pinned scan units re-scan on the coordinator's local copy, and
// the delivered-prefix replay splices half-delivered units without
// duplicating or reordering rows. The kill is timing-dependent (the query
// must still be running), so the scenario retries a few times; equivalence
// is asserted unconditionally on every attempt.
func TestPartitionedFailoverMidScan(t *testing.T) {
	b := benchmarkFixture(t)
	for _, qn := range []int{3, 19} {
		q := Query(qn)
		t.Run(q.Name, func(t *testing.T) {
			serial, _, _, err := RunQueryOpts(b.DBs[plan.BDCC], q, RunOptions{Workers: 1, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			for attempt := 1; ; attempt++ {
				srvs, addrs := startWorkers(t, 2, 2)
				for _, s := range srvs {
					s.OnUnitStart = func() { time.Sleep(2 * time.Millisecond) }
				}
				victim := srvs[1]
				var killed atomic.Bool
				victim.OnUnitDone = func(total int64) {
					if total == 2 && !killed.Swap(true) {
						go victim.Close()
					}
				}
				part, st, _, err := RunQueryOpts(b.DBs[plan.BDCC], q,
					RunOptions{Workers: 2, Remotes: addrs, Partition: true})
				if err != nil {
					t.Fatalf("%s with a worker killed mid-scan failed instead of failing over: %v", q.Name, err)
				}
				assertSameResult(t, q.Name+" after mid-scan worker kill", part, serial)
				if killed.Load() {
					if st.WorkerIO == nil {
						t.Fatalf("%s: partitioned run reports no worker IO", q.Name)
					}
					if st.IO.Bytes == 0 {
						t.Fatalf("%s: dead worker's units re-scanned locally but the coordinator charged no reads", q.Name)
					}
					return
				}
				srvs[0].Close()
				if attempt == 5 {
					t.Fatalf("%s: the victim never completed 2 units before the query finished in %d attempts", q.Name, attempt)
				}
			}
		})
	}
}

// TestPartitionShipmentsBuiltOncePerTableVersion: the serialised partitions
// of a table are built by the first query that ships that version of it and
// reused — the very bytes — by every later query, set and racing planner; an
// append publishes a new version, which builds its own, and the superseded
// version's shipments are reachable only through the superseded table.
func TestPartitionShipmentsBuiltOncePerTableVersion(t *testing.T) {
	b, err := NewBenchmarkCompressed(0.005, true, plan.BDCC)
	if err != nil {
		t.Fatal(err)
	}
	db := b.DBs[plan.BDCC]
	opt := RunOptions{Workers: 2, Shards: 2, Partition: true}
	run := func(db *plan.DB, qn int, opt RunOptions) {
		t.Helper()
		q := Query(qn)
		want, _, _, err := RunQueryOpts(db, q, RunOptions{Workers: 1, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, _, _, err := RunQueryOpts(db, q, opt)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		assertSameResult(t, q.Name+" partitioned", got, want)
	}
	same := func(a, b [][][]byte) bool {
		if len(a) == 0 || len(a) != len(b) {
			return false
		}
		for w := range a {
			if len(a[w]) == 0 || len(a[w]) != len(b[w]) {
				return false
			}
			for i := range a[w] {
				if &a[w][i][0] != &b[w][i][0] {
					return false
				}
			}
		}
		return true
	}
	li, err := db.StoredTable("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if shard.MemoisedShipments(li, 2) != nil {
		t.Fatal("shipments exist before any query shipped the table")
	}
	run(db, 12, opt) // each RunQueryOpts plans on a fresh set
	first := shard.MemoisedShipments(li, 2)
	if len(first) != 2 {
		t.Fatalf("the first partitioned query left %d shipments, want 2", len(first))
	}
	run(db, 3, opt)
	if !same(shard.MemoisedShipments(li, 2), first) {
		t.Fatal("a second query on a fresh set rebuilt the shipments")
	}
	// Two planners racing on a worker count nobody has shipped build at most
	// one shipment each and publish one.
	three := opt
	three.Shards = 3
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, _, err := RunQueryOpts(db, Query(12), three); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	raced := shard.MemoisedShipments(li, 3)
	if len(raced) != 3 {
		t.Fatalf("two racing planners left %d three-way shipments, want 3", len(raced))
	}
	run(db, 12, three)
	if !same(shard.MemoisedShipments(li, 3), raced) || !same(shard.MemoisedShipments(li, 2), first) {
		t.Fatal("a published shipment was replaced")
	}

	// An append publishes a new version of lineitem: it starts with nothing
	// memoised, builds its own on first use, and leaves the old version's be.
	if err := b.EnableIngest(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendBatch(NewDeltaGen(b.Data, 3).Next(20)); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	li2, err := snap.StoredTable("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if li2 == li || li2.Rows() <= li.Rows() {
		t.Fatalf("the append published no new lineitem (%d rows, was %d)", li2.Rows(), li.Rows())
	}
	if shard.MemoisedShipments(li2, 2) != nil {
		t.Fatal("the new version starts with the old version's shipments")
	}
	run(snap, 12, opt)
	second := shard.MemoisedShipments(li2, 2)
	if len(second) != 2 || same(second, first) {
		t.Fatal("the new version did not build shipments of its own")
	}
	if !same(shard.MemoisedShipments(li, 2), first) {
		t.Fatal("the append disturbed the superseded version's shipments")
	}
}
