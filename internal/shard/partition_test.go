package shard

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"bdcc/internal/core"
	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// testEntries builds a synthetic count table in key order whose row offsets
// are deliberately NOT monotone — entries 1 and 4 live in a relocation area
// at the end of the table, as BDCC's small-cell relocation produces — so
// every lookup in these tests goes through the offset-interval index.
func testEntries() []core.CountEntry {
	return []core.CountEntry{
		{Key: 0, Count: 10, Offset: 0},
		{Key: 1, Count: 4, Offset: 100, Relocated: true},
		{Key: 2, Count: 20, Offset: 10},
		{Key: 3, Count: 6, Offset: 30},
		{Key: 4, Count: 3, Offset: 104, Relocated: true},
		{Key: 5, Count: 25, Offset: 36},
		{Key: 6, Count: 12, Offset: 61},
		{Key: 7, Count: 27, Offset: 73},
	}
}

func TestPartitioningDeterministicAndCovering(t *testing.T) {
	entries := testEntries()
	var total int64
	for _, e := range entries {
		total += e.Count
	}
	for workers := 1; workers <= 5; workers++ {
		p := NewPartitioning("t", entries, workers)
		q := NewPartitioning("t", entries, workers)
		for w := 0; w < workers; w++ {
			if !reflect.DeepEqual(p.Segments(w), q.Segments(w)) {
				t.Fatalf("workers=%d: two partitionings of the same count table differ at worker %d", workers, w)
			}
		}
		if p.TotalRows() != total {
			t.Fatalf("workers=%d: partitioning owns %d rows, table has %d", workers, p.TotalRows(), total)
		}
		// Every entry is owned by exactly one worker, whole and in key order.
		owned := map[int]int{} // entry index -> worker
		next := 0
		for w := 0; w < workers; w++ {
			var rows int64
			for _, s := range p.Segments(w) {
				if next >= len(entries) {
					t.Fatalf("workers=%d: worker %d owns more segments than there are entries", workers, w)
				}
				e := entries[next]
				if s.Start != int(e.Offset) || s.End != int(e.Offset+e.Count) {
					t.Fatalf("workers=%d: worker %d segment [%d,%d) is not entry %d's interval [%d,%d) — blocks must be contiguous in key order",
						workers, w, s.Start, s.End, next, e.Offset, e.Offset+e.Count)
				}
				owned[next] = w
				next++
				rows += int64(s.Len())
			}
			if rows != p.Rows(w) {
				t.Fatalf("workers=%d: worker %d segments cover %d rows, Rows says %d", workers, w, rows, p.Rows(w))
			}
		}
		if next != len(entries) {
			t.Fatalf("workers=%d: only %d of %d entries owned", workers, next, len(entries))
		}
		// WorkerFor agrees with the segment assignment, including on
		// sub-ranges (zonemap-shrunk ranges stay inside their entry).
		for i, e := range entries {
			full := storage.RowRange{Start: int(e.Offset), End: int(e.Offset + e.Count)}
			w, err := p.WorkerFor(full)
			if err != nil {
				t.Fatal(err)
			}
			if w != owned[i] {
				t.Fatalf("workers=%d: WorkerFor(entry %d) = %d, segments say %d", workers, i, w, owned[i])
			}
			shrunk := storage.RowRange{Start: full.Start + 1, End: full.End}
			if full.Len() > 1 {
				if sw, err := p.WorkerFor(shrunk); err != nil || sw != w {
					t.Fatalf("workers=%d: shrunk range of entry %d maps to %d/%v, want %d", workers, i, sw, err, w)
				}
			}
		}
		// Balance: no worker owns more than a fair share plus the largest
		// single cell (a cell is never split across workers).
		var maxCell int64
		for _, e := range entries {
			if e.Count > maxCell {
				maxCell = e.Count
			}
		}
		fair := total/int64(workers) + maxCell
		for w := 0; w < workers; w++ {
			if p.Rows(w) > fair {
				t.Fatalf("workers=%d: worker %d owns %d rows, bound is %d (fair %d + max cell %d)",
					workers, w, p.Rows(w), fair, total/int64(workers), maxCell)
			}
		}
	}
}

func TestWorkerForRejectsEntrySpanningRange(t *testing.T) {
	p := NewPartitioning("t", testEntries(), 3)
	// [5, 15) straddles entry 0 ([0,10)) and entry 2 ([10,30)).
	if _, err := p.WorkerFor(storage.RowRange{Start: 5, End: 15}); err == nil {
		t.Fatal("a range spanning two count entries must be rejected, not split")
	}
	if _, err := p.WorkerFor(storage.RowRange{Start: 200, End: 201}); err == nil {
		t.Fatal("a range outside every entry must be rejected")
	}
}

func TestSplitGroupPreservesOrder(t *testing.T) {
	entries := testEntries()
	p := NewPartitioning("t", entries, 3)
	// A scatter group: one (possibly shrunk) range per count entry, in key
	// order — exactly what ScatterPlan plus zonemap pruning emits.
	var group storage.RowRanges
	for i, e := range entries {
		r := storage.RowRange{Start: int(e.Offset), End: int(e.Offset + e.Count)}
		if i%2 == 1 && r.Len() > 2 {
			r.Start++ // shrink some ranges like pruning would
		}
		group = append(group, r)
	}
	runs, err := p.SplitGroup(group)
	if err != nil {
		t.Fatal(err)
	}
	var flat storage.RowRanges
	for i, run := range runs {
		if i > 0 && runs[i-1].Worker == run.Worker {
			t.Fatalf("runs %d and %d share worker %d — runs must be maximal", i-1, i, run.Worker)
		}
		for _, r := range run.Ranges {
			w, err := p.WorkerFor(r)
			if err != nil {
				t.Fatal(err)
			}
			if w != run.Worker {
				t.Fatalf("range [%d,%d) in run of worker %d is owned by worker %d", r.Start, r.End, run.Worker, w)
			}
		}
		flat = append(flat, run.Ranges...)
	}
	if !reflect.DeepEqual(flat, group) {
		t.Fatalf("concatenated runs = %v, want the original group order %v", flat, group)
	}
}

// TestSplitGroupCutsMergedRanges feeds SplitGroup the normalized form a
// pruned group actually has — adjacent entry intervals merged into one
// range — and checks the range is cut at every entry boundary, each piece
// owned by its entry's worker, with the concatenated row sequence unchanged.
func TestSplitGroupCutsMergedRanges(t *testing.T) {
	entries := testEntries()
	p := NewPartitioning("t", entries, 4)
	// Rows [10,61) merge entries 2 ([10,30)), 3 ([30,36)) and 5 ([36,61)),
	// which the quota walk spreads over more than one worker.
	merged := storage.RowRanges{{Start: 0, End: 10}, {Start: 10, End: 61}}
	runs, err := p.SplitGroup(merged)
	if err != nil {
		t.Fatal(err)
	}
	var flat storage.RowRanges
	for _, run := range runs {
		for _, r := range run.Ranges {
			w, err := p.WorkerFor(r) // each piece must sit inside one entry
			if err != nil {
				t.Fatal(err)
			}
			if w != run.Worker {
				t.Fatalf("piece [%d,%d) owned by %d, run says %d", r.Start, r.End, w, run.Worker)
			}
			flat = append(flat, r)
		}
	}
	next := 0
	for _, r := range flat {
		if r.Start != next {
			t.Fatalf("pieces not contiguous: [%d,%d) after row %d", r.Start, r.End, next)
		}
		next = r.End
	}
	if next != 61 {
		t.Fatalf("pieces cover rows up to %d, want 61", next)
	}
	if _, err := p.SplitGroup(storage.RowRanges{{Start: 61, End: 120}}); err == nil {
		t.Fatal("rows in no count entry must be rejected")
	}
}

func TestRangeMapOffsets(t *testing.T) {
	segs := storage.RowRanges{{Start: 10, End: 30}, {Start: 36, End: 61}, {Start: 104, End: 107}}
	m := NewRangeMap(segs)
	if m.Rows() != 20+25+3 {
		t.Fatalf("Rows = %d, want 48", m.Rows())
	}
	cases := []struct{ in, want storage.RowRange }{
		{storage.RowRange{Start: 10, End: 30}, storage.RowRange{Start: 0, End: 20}},
		{storage.RowRange{Start: 15, End: 20}, storage.RowRange{Start: 5, End: 10}},
		{storage.RowRange{Start: 36, End: 61}, storage.RowRange{Start: 20, End: 45}},
		{storage.RowRange{Start: 104, End: 107}, storage.RowRange{Start: 45, End: 48}},
	}
	for _, c := range cases {
		got, err := m.Map(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Fatalf("Map(%v) = %v, want %v", c.in, got, c.want)
		}
		if got.Len() != c.in.Len() {
			t.Fatalf("Map(%v) changed the range length", c.in)
		}
	}
	for _, bad := range []storage.RowRange{{Start: 0, End: 5}, {Start: 25, End: 40}, {Start: 61, End: 62}} {
		if _, err := m.Map(bad); err == nil {
			t.Fatalf("Map(%v) must fail — range outside the shipped partition", bad)
		}
	}
}

// shipTestTable builds a small table whose single int64 column equals the row
// index, so shipped values identify their coordinator row.
func shipTestTable(t testing.TB, rows int, compress bool) *storage.Table {
	t.Helper()
	i64 := make([]int64, rows)
	str := make([]string, rows)
	for i := range i64 {
		i64[i] = int64(i)
		str[i] = fmt.Sprintf("r%04d", i)
	}
	tab, err := storage.NewTable("lineitem", 1<<10,
		storage.NewInt64Column("id", i64), storage.NewStringColumn("tag", str))
	if err != nil {
		t.Fatal(err)
	}
	if compress {
		tab.Compress()
	}
	return tab
}

func mustShip(t testing.TB, tab *storage.Table, segs storage.RowRanges) *partShipment {
	t.Helper()
	ship, err := buildPartShipment(tab, segs)
	if err != nil {
		t.Fatal(err)
	}
	return ship
}

// offerSend offers ship on sess under id and fails unless the store asks for
// the data.
func offerSend(t testing.TB, sess *partSession, id uint64, ship *partShipment) {
	t.Helper()
	resident, err := sess.offer(id, ship.offer)
	if err != nil {
		t.Fatal(err)
	}
	if resident {
		t.Fatalf("offer %d was answered resident by a store that never adopted it", id)
	}
}

// transfer offers ship on sess under id and sends its frames.
func transfer(t testing.TB, sess *partSession, id uint64, ship *partShipment) {
	t.Helper()
	offerSend(t, sess, id, ship)
	for _, d := range ship.data {
		if err := sess.addData(id, d); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPartShipmentRoundtrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			tab := shipTestTable(t, 500, compress)
			segs := storage.RowRanges{{Start: 40, End: 160}, {Start: 200, End: 210}, {Start: 480, End: 500}}
			ship := mustShip(t, tab, segs)

			store := newPartStore(0)
			sess := store.session()
			transfer(t, sess, 1, ship)
			st, err := sess.source("lineitem")
			if err != nil {
				t.Fatal(err)
			}
			if st.Tab.Compressed() != compress {
				t.Fatalf("rebuilt partition compressed=%v, original %v", st.Tab.Compressed(), compress)
			}
			if got, want := st.Tab.Rows(), 120+10+20; got != want {
				t.Fatalf("rebuilt partition has %d rows, want %d", got, want)
			}
			// Every coordinator row in the shipment maps to a local row
			// holding the same values.
			r := storage.NewReader(st.Tab, []int{0, 1}, storage.FullRange(st.Tab.Rows()), nil)
			b := vector.NewBatch([]vector.Kind{vector.Int64, vector.String})
			var local []int64
			for r.Next(b) {
				local = append(local, b.Cols[0].I64...)
			}
			want := []int64{}
			for _, s := range segs {
				for i := s.Start; i < s.End; i++ {
					want = append(want, int64(i))
				}
			}
			if !reflect.DeepEqual(local, want) {
				t.Fatalf("rebuilt partition rows = %v..., want the segments' rows in ship order", local[:5])
			}
			// And the RangeMap agrees.
			m, err := st.Map(storage.RowRange{Start: 200, End: 210})
			if err != nil {
				t.Fatal(err)
			}
			if m.Start != 120 || m.End != 130 {
				t.Fatalf("Map([200,210)) = %v, want [120,130)", m)
			}
		})
	}
}

func TestPartStoreLimitPoisonsNotDrops(t *testing.T) {
	tab := shipTestTable(t, 400, false)
	ship := mustShip(t, tab, storage.FullRange(tab.Rows()))
	store := newPartStore(64) // far below what any of the shipment's frames parks
	sess := store.session()
	offerSend(t, sess, 7, ship)
	for _, d := range ship.data {
		if err := sess.addData(7, d); err != nil {
			t.Fatalf("an over-limit partition must poison the table, not drop the session: %v", err)
		}
	}
	if _, err := sess.source("lineitem"); err == nil {
		t.Fatal("scans of a poisoned partition must fail Prepare")
	}
	if store.used != 0 || len(store.res) != 0 {
		t.Fatalf("poisoning must release the partial transfer's bytes, %d still held", store.used)
	}
}

// TestPartStoreLimitEvictsUnpinnedFirst: the limit is the worker's total. A
// transfer that would cross it evicts the partitions no session binds, oldest
// first, and is poisoned only when the pinned ones alone leave no room.
func TestPartStoreLimitEvictsUnpinnedFirst(t *testing.T) {
	a := mustShip(t, shipTestTable(t, 400, false), storage.FullRange(400))
	b := mustShip(t, shipTestTable(t, 300, false), storage.FullRange(300))
	probe := newPartStore(0)
	transfer(t, probe.session(), 1, a)
	one := probe.used
	// Room for a or b alone, not for both.
	store := newPartStore(one + one/2)
	first := store.session()
	transfer(t, first, 1, a)
	first.end()
	if len(store.res) != 1 || store.used != one {
		t.Fatalf("an unpinned partition within the limit must stay resident: %d held, %d bytes", len(store.res), store.used)
	}
	second := store.session()
	transfer(t, second, 1, b)
	if _, err := second.source("lineitem"); err != nil {
		t.Fatalf("the transfer was poisoned although an unpinned partition could make room: %v", err)
	}
	if _, ok := store.res[a.digest]; ok || len(store.res) != 1 {
		t.Fatal("the unpinned partition was not evicted to make room")
	}
	// Now the resident partition is pinned: the next transfer is poisoned,
	// and the pinned one is untouched.
	third := store.session()
	offerSend(t, third, 1, a)
	for _, d := range a.data {
		if err := third.addData(1, d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := third.source("lineitem"); err == nil {
		t.Fatal("a transfer past the limit was adopted while every resident partition is pinned")
	}
	if st, err := second.source("lineitem"); err != nil || st.Tab.Rows() != 300 {
		t.Fatalf("the pinned partition was disturbed: %v", err)
	}
	third.end()
	second.end()
	if r := store.res[b.digest]; r == nil || len(store.res) != 1 || store.used != r.bytes {
		t.Fatalf("after both sessions ended: %d partitions, %d bytes", len(store.res), store.used)
	}
}

func TestPartStoreDuplicateTableKeepsFirst(t *testing.T) {
	tab := shipTestTable(t, 100, false)
	ship := mustShip(t, tab, storage.FullRange(tab.Rows()))
	store := newPartStore(0)
	sess := store.session()
	transfer(t, sess, 1, ship)
	first, err := sess.source("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	// A second offer of the same table (re-admission re-ship racing the
	// dedup) is answered resident and keeps the first copy.
	resident, err := sess.offer(2, ship.offer)
	if err != nil || !resident {
		t.Fatalf("a second offer of a bound partition: resident=%v, %v", resident, err)
	}
	again, err := sess.source("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if again.Tab != first.Tab {
		t.Fatal("a duplicate offer replaced the finalized partition")
	}
	// Another session is offered the same partition: resident, the very
	// table, and no data frame.
	other := store.session()
	if resident, err := other.offer(1, ship.offer); err != nil || !resident {
		t.Fatalf("an offer of a resident partition on another session: resident=%v, %v", resident, err)
	}
	if st, err := other.source("lineitem"); err != nil || st.Tab != first.Tab {
		t.Fatalf("the other session binds another table: %v", err)
	}
	if err := other.addData(1, ship.data[0]); err == nil {
		t.Fatal("data under an offer answered resident must be a protocol error")
	}
	// Reusing a transfer id is protocol corruption, though, and so is an
	// offer binding a bound table to other contents.
	if _, err := sess.offer(1, ship.offer); err == nil {
		t.Fatal("reused partition id must be a protocol error")
	}
	longer := mustShip(t, shipTestTable(t, 120, false), storage.FullRange(120))
	if _, err := sess.offer(3, longer.offer); err == nil {
		t.Fatal("an offer rebinding a bound table to other contents must be a protocol error")
	}
}

// TestPartStoreResidencyAcrossSessions: a partition outlives the session that
// shipped it; a newer partition of the same table frees the old one as soon
// as no session pins it, and not before.
func TestPartStoreResidencyAcrossSessions(t *testing.T) {
	v1 := mustShip(t, shipTestTable(t, 200, true), storage.FullRange(200))
	v2 := mustShip(t, shipTestTable(t, 260, true), storage.FullRange(260))
	store := newPartStore(0)
	s1 := store.session()
	transfer(t, s1, 1, v1)
	s1.end()
	frames, used := store.frames, store.used
	if len(store.res) != 1 || used == 0 {
		t.Fatalf("the partition left with its session: %d resident, %d bytes", len(store.res), used)
	}
	s2 := store.session()
	if resident, err := s2.offer(5, v1.offer); err != nil || !resident {
		t.Fatalf("a later session's offer: resident=%v, %v", resident, err)
	}
	if store.frames != frames || store.used != used {
		t.Fatal("a resident hit received or charged data")
	}
	// An append publishes v2 while s2 still scans v1.
	s3 := store.session()
	transfer(t, s3, 1, v2)
	if _, ok := store.res[v1.digest]; !ok {
		t.Fatal("a pinned partition was freed")
	}
	if st, _ := s2.source("lineitem"); st.Tab.Rows() != 200 {
		t.Fatal("the older session's binding moved")
	}
	s2.end()
	if _, ok := store.res[v1.digest]; ok || len(store.res) != 1 {
		t.Fatalf("the superseded partition outlived its last pin: %d resident", len(store.res))
	}
	s3.end()
	if _, ok := store.res[v2.digest]; !ok || store.used == 0 {
		t.Fatal("the newest partition left with its session")
	}
	// A session ending mid-transfer frees what it received.
	s4 := store.session()
	before := store.used
	offerSend(t, s4, 1, v1)
	if err := s4.addData(1, v1.data[0]); err != nil {
		t.Fatal(err)
	}
	s4.end()
	if store.used != before {
		t.Fatalf("an abandoned transfer still holds %d bytes", store.used-before)
	}
}

// TestPartStoreRejectsDamagedFrames: a column frame that is corrupted, out of
// order, of a kind the manifest did not declare, or past the manifest's row
// total is protocol corruption — the session drops, as it did for a bad row
// batch — and so is a transfer whose bytes do not match the digest it was
// offered under; frames trailing a completed transfer drain silently.
func TestPartStoreRejectsDamagedFrames(t *testing.T) {
	for _, compress := range []bool{false, true} {
		tab := shipTestTable(t, 300, compress)
		ship := mustShip(t, tab, storage.RowRanges{{Start: 10, End: 250}})
		if len(ship.data) != 2 {
			t.Fatalf("%d frames for two columns", len(ship.data))
		}
		open := func() *partSession {
			sess := newPartStore(0).session()
			offerSend(t, sess, 1, ship)
			return sess
		}
		flipped := append([]byte(nil), ship.data[0]...)
		flipped[len(flipped)/2] ^= 0x10
		if err := open().addData(1, flipped); err == nil {
			t.Fatal("a frame failing its checksum was adopted")
		}
		if err := open().addData(1, ship.data[0][:len(ship.data[0])-1]); err == nil {
			t.Fatal("a truncated frame was adopted")
		}
		if err := open().addData(1, ship.data[1]); err == nil {
			t.Fatal("the string column's frame was adopted as the int64 column's")
		}
		if err := open().addData(2, ship.data[0]); err == nil {
			t.Fatal("a frame for an unannounced transfer was accepted")
		}
		sess := open()
		if err := sess.addData(1, ship.data[0]); err != nil {
			t.Fatal(err)
		}
		if err := sess.addData(1, ship.data[0]); err == nil {
			t.Fatal("the int64 column's frame was adopted twice")
		}
		if _, err := sess.source("lineitem"); err == nil {
			t.Fatal("a partition one column short is being served")
		}
		if err := sess.addData(1, ship.data[1]); err != nil {
			t.Fatal(err)
		}
		if err := sess.addData(1, ship.data[1]); err != nil {
			t.Fatalf("a frame trailing a completed transfer must drain, not drop the session: %v", err)
		}
		if st, err := sess.source("lineitem"); err != nil || st.Tab.Rows() != 240 {
			t.Fatalf("completed partition: %v", err)
		}
		// The manifest of a shorter shipment over the longer one's frames:
		// more rows arrive than were declared.
		short := mustShip(t, tab, storage.RowRanges{{Start: 10, End: 200}})
		sess = newPartStore(0).session()
		offerSend(t, sess, 1, short)
		if err := sess.addData(1, ship.data[0]); err == nil {
			t.Fatal("frames carrying more rows than the manifest declares were adopted")
		}
		// Sound frames under another digest: the transfer completes and is
		// refused, and nothing of it stays resident.
		store := newPartStore(0)
		sess = store.session()
		lie := append([]byte(nil), ship.offer...)
		lie[0] ^= 1
		if resident, err := sess.offer(1, lie); err != nil || resident {
			t.Fatalf("offer under a foreign digest: resident=%v, %v", resident, err)
		}
		if err := sess.addData(1, ship.data[0]); err != nil {
			t.Fatal(err)
		}
		if err := sess.addData(1, ship.data[1]); err == nil {
			t.Fatal("a transfer that does not match its digest was adopted")
		}
		if len(store.res) != 0 || store.used != 0 {
			t.Fatalf("a refused transfer left %d partitions, %d bytes", len(store.res), store.used)
		}
	}
}

func TestPartManifestRejectsCorruption(t *testing.T) {
	tab := shipTestTable(t, 50, false)
	good := encodePartManifest(tab, storage.RowRanges{{Start: 0, End: 50}}, nil)
	if _, err := decodePartManifest(good); err != nil {
		t.Fatal(err)
	}
	if _, err := decodePartManifest(good[:len(good)-3]); err == nil {
		t.Fatal("truncated manifest must be rejected")
	}
	// Declare 50 rows but cover 40: row/segment mismatch.
	bad := encodePartManifest(tab, storage.RowRanges{{Start: 0, End: 40}}, nil)
	// Patch the row count up by rebuilding via the original then swapping
	// segments is fiddly; instead decode-check that mismatched totals from a
	// hand-built payload fail. The simplest corruption: chop one segment off.
	if _, err := decodePartManifest(bad[:len(bad)-16]); err == nil {
		t.Fatal("segment section shorter than its count must be rejected")
	}
	// The kind byte of the first column ("id", int64) follows its name.
	unknown := append([]byte(nil), good...)
	unknown[bytes.Index(unknown, []byte("id"))+2] = 7
	if _, err := decodePartManifest(unknown); err == nil {
		t.Fatal("a column of unknown kind must be rejected")
	}
}

// wrappingManifest declares one row over segments whose lengths sum to
// 2^64 + 1: added up in an int64, they wrap back onto the declared count.
func wrappingManifest(tab *storage.Table) []byte {
	return encodePartManifest(tab, storage.RowRanges{{Start: 0, End: math.MaxInt64}, {Start: 0, End: math.MaxInt64}, {Start: 0, End: 3}}, nil)
}

// TestPartManifestRejectsWrappingSegments: a manifest whose segment lengths
// wrap the row sum back onto the declared count used to decode, and the
// worker then mapped a unit's range [0,1) to [-2,-1) and panicked slicing
// its table — on bdccworker, in a scheduler task, killing the process.
func TestPartManifestRejectsWrappingSegments(t *testing.T) {
	if m, err := decodePartManifest(wrappingManifest(shipTestTable(t, 1, false))); err == nil {
		t.Fatalf("a manifest whose segments wrap the row count decoded: %d rows over %v", m.Rows, m.Segs)
	}
}

// FuzzDecodePartManifest: any bytes either decode or fail, never panic, and
// every segment of a decoded manifest maps through its RangeMap into the
// rows it declares — the local table the worker slices. Map may refuse a
// segment of a manifest whose segments overlap; that is an error the scan
// reports, not a range outside the table.
func FuzzDecodePartManifest(f *testing.F) {
	tab := shipTestTable(f, 50, false)
	good := encodePartManifest(tab, storage.RowRanges{{Start: 30, End: 50}, {Start: 0, End: 20}}, nil)
	f.Add(good)
	for _, n := range []int{0, 1, len(good) / 2, len(good) - 16, len(good) - 1} {
		f.Add(good[:n])
	}
	f.Add(wrappingManifest(tab))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodePartManifest(data)
		if err != nil {
			return
		}
		rm := NewRangeMap(m.Segs)
		for _, s := range m.Segs {
			local, err := rm.Map(s)
			if err == nil && (local.Start < 0 || local.End > int(m.Rows) || local.Len() != s.Len()) {
				t.Fatalf("segment %v of a %d-row manifest maps to %v", s, m.Rows, local)
			}
		}
	})
}

// FuzzDecodePartOffer: the part-offer payload — a digest, then a manifest —
// decodes or fails, never panics; what decodes carries the digest it was
// offered under and a manifest whose segments map into its declared rows.
// Seeded with real offers, compressed and not, and truncations of them.
func FuzzDecodePartOffer(f *testing.F) {
	for _, compress := range []bool{false, true} {
		ship := mustShip(f, shipTestTable(f, 50, compress), storage.RowRanges{{Start: 30, End: 50}, {Start: 0, End: 20}})
		f.Add(ship.offer)
		for _, n := range []int{0, 1, len(ship.digest) - 1, len(ship.digest), len(ship.offer) - 16, len(ship.offer) - 1} {
			f.Add(ship.offer[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		digest, m, err := decodePartOffer(data)
		if err != nil {
			return
		}
		if !bytes.Equal(digest[:], data[:len(digest)]) {
			t.Fatalf("decoded digest %x, the payload opens with %x", digest, data[:len(digest)])
		}
		rm := NewRangeMap(m.Segs)
		for _, s := range m.Segs {
			local, err := rm.Map(s)
			if err == nil && (local.Start < 0 || local.End > int(m.Rows) || local.Len() != s.Len()) {
				t.Fatalf("segment %v of a %d-row manifest maps to %v", s, m.Rows, local)
			}
		}
		// A store handed the offer either asks for the data or refuses it;
		// it never answers resident for a partition it does not hold.
		if resident, err := newPartStore(0).session().offer(1, data); err == nil && resident {
			t.Fatal("an empty store answered an offer resident")
		}
	})
}
