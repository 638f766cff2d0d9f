package plan

import (
	"runtime"
	"slices"
	"testing"

	"bdcc/internal/storage"
)

// factBatch is n fresh rows of the diamond's fact table, numbered from row
// `from` on, each referencing an existing row of r.
func factBatch(from, n, nR int) *storage.Table {
	id := make([]int64, n)
	ref := make([]int64, n)
	amount := make([]int64, n)
	for i := range id {
		id[i] = int64(from + i)
		ref[i] = int64((from + i) * 13 % nR)
		amount[i] = int64(i % 10)
	}
	return storage.MustNewTable("t", 4096,
		storage.NewInt64Column("t_id", id), storage.NewInt64Column("t_r", ref), storage.NewInt64Column("t_amount", amount))
}

// TestAppendBindsOnlyTheBatch pins what an append costs: the batch, plus one
// copy of the appended table's clustered view. One Ingest.Append of 100 fact
// rows allocates the same whether the reference table its two dimension paths
// cross holds 20 000 rows or 200 000 — the batch is binned through the
// key→bin indexes, never by resolving the stored tables — and stays under
// twice the appended table's own bytes (its clustered view, and that view's
// retained keys and merge order; the insertion-order view grows in place), so
// neither the full re-bind nor a copy of the insertion-order view can come
// back unnoticed. Copying that view made it 2.54× the table; with the
// resolver walk and Concat + Permute + AppendRows the same append allocated
// 7.2× at 20 000 reference rows and 16.5× at 200 000.
func TestAppendBindsOnlyTheBatch(t *testing.T) {
	const nT, batchRows = 50_000, 100
	tableBytes := uint64(nT * 3 * 8)
	var got [2]uint64
	for i, nR := range []int{20_000, 200_000} {
		bdcc, _ := diamondDB(t, nR, nT, nR/8)
		ing, err := bdcc.EnableIngest(IngestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got[i] = ^uint64(0)
		for round := 0; round < 5; round++ {
			batch := factBatch(nT+round*batchRows, batchRows, nR)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := ing.Append("t", batch); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			got[i] = min(got[i], after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%d reference rows: Append allocates %d KB, the fact table holds %d KB", nR, got[i]>>10, tableBytes>>10)
		if got[i] > 2*tableBytes {
			t.Errorf("%d reference rows: Append allocates %d B, more than 2× the appended table's %d B", nR, got[i], tableBytes)
		}
		if rows := bdcc.Snapshot().BDCCTable("t").Rows(); rows != nT+5*batchRows {
			t.Fatalf("clustered view holds %d rows after the appends, want %d", rows, nT+5*batchRows)
		}
	}
	if got[1] > got[0]+got[0]/4 || got[0] > got[1]+got[1]/4 {
		t.Errorf("Append allocation follows the reference table: %d B at 20 000 rows, %d B at 200 000", got[0], got[1])
	}
}

// TestMergeOnlyReEncodes pins what a merge does: it publishes the views the
// appends built, re-encoded where the base was compressed, and nothing else.
// After five appends of 100 fact rows the merged clustered table holds the
// pre-merge view's rows in the same order, with the same count table and
// sorted keys; it is compressed exactly when the base was; and one Merge
// allocates under half of the fact table's raw bytes, so neither a re-bin,
// a re-splice nor a copy of the table can come back unnoticed. Rebuilding
// the table from stored delta rows allocated 2.6× the table raw and 2.9×
// compressed.
func TestMergeOnlyReEncodes(t *testing.T) {
	const nR, nT, batchRows = 20_000, 50_000, 100
	tableBytes := uint64(nT * 3 * 8)
	for _, compressed := range []bool{false, true} {
		bdcc, _ := diamondDB(t, nR, nT, nR/8)
		if compressed {
			bdcc.Clustered.Tables["t"].Data.Compress()
		}
		ing, err := bdcc.EnableIngest(IngestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 5; round++ {
			if err := ing.Append("t", factBatch(nT+round*batchRows, batchRows, nR)); err != nil {
				t.Fatal(err)
			}
		}
		pre := bdcc.Snapshot().BDCCTable("t")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := ing.Merge(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("compressed=%v: Merge allocates %d KB, the fact table holds %d KB", compressed, alloc>>10, tableBytes>>10)

		got := bdcc.Snapshot().BDCCTable("t")
		if got.Data.Rows() != pre.Data.Rows() {
			t.Fatalf("compressed=%v: merged table holds %d rows, the view %d", compressed, got.Data.Rows(), pre.Data.Rows())
		}
		for i, c := range pre.Data.Cols {
			if !slices.Equal(got.Data.Cols[i].I64, c.I64) {
				t.Fatalf("compressed=%v: column %s differs from the pre-merge view", compressed, c.Name)
			}
		}
		if !slices.Equal(got.Count, pre.Count) || !slices.Equal(got.SortedKeys, pre.SortedKeys) {
			t.Fatalf("compressed=%v: the merge moved the count table or the sorted keys", compressed)
		}
		if got.Data.Compressed() != compressed {
			t.Fatalf("merged table compressed=%v, the base was compressed=%v", got.Data.Compressed(), compressed)
		}
		if alloc > tableBytes/2 {
			t.Errorf("compressed=%v: Merge allocates %d B, more than half the fact table's %d B", compressed, alloc, tableBytes)
		}
	}
}

// TestSnapshotBeforeFirstAppendIsPinned:a snapshot taken after ingest was
// enabled but before anything was appended is version 0, pinned like any
// other. It used to be the live DB itself, so a reader that took it and then
// ran a query — which pins again — could read a later version than the one
// it held (TestIngestSoak failed on exactly that, about once in twenty runs).
func TestSnapshotBeforeFirstAppendIsPinned(t *testing.T) {
	const nR, nT = 64, 4096
	bdcc, _ := diamondDB(t, nR, nT, 8)
	ing, err := bdcc.EnableIngest(IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	early := bdcc.Snapshot()
	if early == bdcc || early.Snapshot() != early {
		t.Fatal("the snapshot before the first append is not pinned")
	}
	if err := ing.Append("t", factBatch(nT, 10, nR)); err != nil {
		t.Fatal(err)
	}
	if early.Epoch() != 0 || early.PendingDeltaRows() != 0 || early.Tables["t"].Rows() != nT || early.BDCCTable("t").Rows() != nT {
		t.Fatalf("the early snapshot moved: epoch %d, %d pending, %d rows", early.Epoch(), early.PendingDeltaRows(), early.Tables["t"].Rows())
	}
	if now := bdcc.Snapshot(); now.Epoch() != 1 || now.Tables["t"].Rows() != nT+10 || now.BDCCTable("t").Rows() != nT+10 {
		t.Fatalf("the current version: epoch %d, %d rows", now.Epoch(), now.Tables["t"].Rows())
	}
}
