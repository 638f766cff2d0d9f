package plan

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"bdcc/internal/catalog"
	"bdcc/internal/core"
	"bdcc/internal/iosim"
	"bdcc/internal/storage"
	"bdcc/internal/vector"
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

// TestAppendBindsOnlyTheBatch pins what an append costs under every scheme:
// the batch, the runs of the table's view and of the splice's step and,
// under BDCC, the keys appended since the last merge and the count table —
// never a copy of the table or an array of its length. Under BDCC one
// Ingest.Append of 100 fact rows allocates the same whether the reference
// table its two dimension paths cross holds 20 000 rows or 200 000 — the
// batch is binned through the key→bin indexes, never by resolving the stored
// tables — and whether the fact table holds 50 000 rows or 200 000 — the
// merge places the batch by binary search in the retained keys and emits the
// step as runs — and stays under an eighth of the 50 000-row fact table's
// bytes. Building the merge order and the retained keys over every row made
// it 633 KB, 0.54× that table and growing with it; gathering the clustered
// view into fresh arrays 1.57×, copying the insertion-order view as well
// 2.54×; with the resolver walk and Concat + Permute + AppendRows the same
// append allocated 7.2× at 20 000 reference rows and 16.5× at 200 000. Under
// Plain and PK every append, the first included, stays under the same bound:
// copying the table into arrays with room (Plain's first append) allocated
// 1.8 MB at 50 000 fact rows and 7.1 MB at 200 000, and PK's re-sort of an
// insertion-order copy 5.8–7.5 MB and 22.8–29.8 MB on every append.
func TestAppendBindsOnlyTheBatch(t *testing.T) {
	const batchRows = 100
	limit := uint64(50_000*3*8) / 8
	var got []uint64
	for _, c := range []struct{ nR, nT int }{{20_000, 50_000}, {200_000, 50_000}, {20_000, 200_000}} {
		bdcc, plain := diamondDB(t, c.nR, c.nT, c.nR/8)
		pk, err := NewPKDB(plain.Schema, plain.Tables, plain.Device)
		if err != nil {
			t.Fatal(err)
		}
		for _, db := range []*DB{bdcc, plain, pk} {
			ing, err := db.EnableIngest(0)
			if err != nil {
				t.Fatal(err)
			}
			least, most := ^uint64(0), uint64(0)
			for round := 0; round < 5; round++ {
				batch := factBatch(c.nT+round*batchRows, batchRows, c.nR)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if err := ing.Append("t", batch); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				alloc := after.TotalAlloc - before.TotalAlloc
				least, most = min(least, alloc), max(most, alloc)
			}
			t.Logf("%s, %d reference rows, %d fact rows: Append allocates %d–%d KB", db.Scheme, c.nR, c.nT, least>>10, most>>10)
			bound := most
			if db.Scheme == BDCC {
				bound = least
				got = append(got, least)
			}
			if bound > limit {
				t.Errorf("%s, %d reference rows, %d fact rows: Append allocates %d B, more than %d B", db.Scheme, c.nR, c.nT, bound, limit)
			}
			if rows := db.Rows("t"); rows != c.nT+5*batchRows {
				t.Fatalf("%s: t holds %d rows after the appends, want %d", db.Scheme, rows, c.nT+5*batchRows)
			}
		}
	}
	if lo, hi := slices.Min(got), slices.Max(got); hi > lo+lo/4 {
		t.Errorf("BDCC Append allocation follows the table sizes: %d B (20 000 reference rows, 50 000 fact rows), %d B (200 000, 50 000), %d B (20 000, 200 000)", got[0], got[1], got[2])
	}
}

// TestMergeOnlyReEncodes pins what a merge does: it re-encodes each view the
// appends built straight from its runs where the base was compressed, gathers
// it into arrays, once, where it was not, and publishes it. After five
// appends of 100 fact rows the merged clustered table reads the pre-merge
// view's rows in the same order, with the same count table and sorted keys;
// it is compressed exactly when the base was; and one Merge allocates at most
// its flat key order (8 B a row, built once per merge rather than by every
// append), half of the fact table's raw bytes (the encode, the zones) and,
// uncompressed, the one gather of the view, so neither a re-bin, a re-splice
// nor a second copy can come back unnoticed. Compressed, the merge allocated
// 1918 KB while it encoded a gather of the view, against 727 KB from the runs.
// The five appends and the merge together stay under 4× the table: when each
// append built the merge order and the keys over every row they allocated
// 5.3× raw and 5.6× compressed, and when each gathered the view into fresh
// arrays 9.4× and 9.6×. Rebuilding the table from stored delta rows at the merge
// allocated 2.6× the table raw and 2.9× compressed in the merge alone.
func TestMergeOnlyReEncodes(t *testing.T) {
	const nR, nT, batchRows = 20_000, 50_000, 100
	tableBytes := uint64(nT * 3 * 8)
	for _, compressed := range []bool{false, true} {
		bdcc, _ := diamondDB(t, nR, nT, nR/8)
		if compressed {
			bdcc.Clustered.Tables["t"].Data.Compress()
		}
		ing, err := bdcc.EnableIngest(0)
		if err != nil {
			t.Fatal(err)
		}
		var start, before, after runtime.MemStats
		runtime.ReadMemStats(&start)
		for round := 0; round < 5; round++ {
			if err := ing.Append("t", factBatch(nT+round*batchRows, batchRows, nR)); err != nil {
				t.Fatal(err)
			}
		}
		pre := bdcc.Snapshot().BDCCTable("t")
		runtime.ReadMemStats(&before)
		if err := ing.Merge(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		alloc, total := after.TotalAlloc-before.TotalAlloc, after.TotalAlloc-start.TotalAlloc
		gather, keys := uint64(pre.Data.Rows()*3*8), uint64(pre.Rows()*8)
		t.Logf("compressed=%v: Merge allocates %d KB (its gather %d KB), appends and merge %d KB, the fact table holds %d KB",
			compressed, alloc>>10, gather>>10, total>>10, tableBytes>>10)

		got := bdcc.Snapshot().BDCCTable("t")
		if got.Data.Rows() != pre.Data.Rows() {
			t.Fatalf("compressed=%v: merged table holds %d rows, the view %d", compressed, got.Data.Rows(), pre.Data.Rows())
		}
		for i, c := range pre.Data.Cols {
			if !slices.Equal(readInt64(got.Data, i), readInt64(pre.Data, i)) {
				t.Fatalf("compressed=%v: column %s differs from the pre-merge view", compressed, c.Name)
			}
		}
		if !slices.Equal(got.Count, pre.Count) || !slices.Equal(got.Keys(), pre.Keys()) {
			t.Fatalf("compressed=%v: the merge moved the count table or the sorted keys", compressed)
		}
		if got.Data.Compressed() != compressed {
			t.Fatalf("merged table compressed=%v, the base was compressed=%v", got.Data.Compressed(), compressed)
		}
		if compressed { // encoded from the view's runs: no gather
			gather = 0
		}
		if alloc > gather+keys+tableBytes/2 {
			t.Errorf("compressed=%v: Merge allocates %d B, more than its gather of %d B, its keys' %d B and half the fact table's %d B", compressed, alloc, gather, keys, tableBytes)
		}
		if total > 4*tableBytes {
			t.Errorf("compressed=%v: five appends and a merge allocate %d B, more than 4× the fact table's %d B", compressed, total, tableBytes)
		}
	}
}

// readInt64 returns int64 column ci of tab as a scan reads it.
func readInt64(tab *storage.Table, ci int) []int64 {
	r := storage.NewReader(tab, []int{ci}, nil, nil)
	b := vector.NewBatch(r.Kinds())
	var out []int64
	for r.Next(b) {
		out = append(out, b.Cols[0].I64...)
	}
	return out
}

// TestSnapshotBeforeFirstAppendIsPinned:a snapshot taken after ingest was
// enabled but before anything was appended is version 0, pinned like any
// other. It used to be the live DB itself, so a reader that took it and then
// ran a query — which pins again — could read a later version than the one
// it held (TestIngestSoak failed on exactly that, about once in twenty runs).
func TestSnapshotBeforeFirstAppendIsPinned(t *testing.T) {
	const nR, nT = 64, 4096
	bdcc, _ := diamondDB(t, nR, nT, 8)
	ing, err := bdcc.EnableIngest(0)
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
	if early.Epoch() != 0 || early.PendingDeltaRows() != 0 || early.Rows("t") != nT || early.BDCCTable("t").Rows() != nT {
		t.Fatalf("the early snapshot moved: epoch %d, %d pending, %d rows", early.Epoch(), early.PendingDeltaRows(), early.Rows("t"))
	}
	if now := bdcc.Snapshot(); now.Epoch() != 1 || now.Rows("t") != nT+10 || now.BDCCTable("t").Rows() != nT+10 {
		t.Fatalf("the current version: epoch %d, %d rows", now.Epoch(), now.Rows("t"))
	}
}

// pkDDL is one table whose primary key is composite: an integer, then a
// string.
const pkDDL = `CREATE TABLE k (k_i INT, k_s VARCHAR(2), k_v INT, PRIMARY KEY (k_i, k_s));`

// FuzzPKAppend holds where a PK append places its rows to the stable key
// sort of the insertion-order concatenation (Concat, KeyValues,
// sortPermByKeys and Permute: the re-sort appends used to run). The root of
// up to 300 rows, raw or compressed, takes up to six batches and a merge
// halfway and at the end. Keys are drawn from a small domain of integer and
// string parts, so batch keys tie with the table's and with each other, and
// land before, among and behind its rows. Every version, read through
// Materialized, must equal the reference row for row, and the merged table is
// compressed exactly when the root was.
func FuzzPKAppend(f *testing.F) {
	f.Add(uint16(200), []byte{5, 30, 1}, []byte("keys tie, land before, among and behind"), true)
	f.Add(uint16(0), []byte{3, 3}, []byte{0, 1, 2, 3}, false)
	f.Add(uint16(50), []byte{10, 0, 20, 39}, []byte{0xff, 0xfe, 0, 1, 0x80}, true)
	schema := catalog.MustParseDDL(pkDDL)
	pk := schema.Table("k").PrimaryKey
	f.Fuzz(func(t *testing.T, rows uint16, sizes, keys []byte, compress bool) {
		if len(keys) == 0 {
			keys = []byte{0}
		}
		drawn := 0
		// table returns n rows numbered in k_v from row `from` on, with
		// k_i in [-2, 13] and k_s one of four strings.
		table := func(n, from int) *storage.Table {
			ki, ks, kv := make([]int64, n), make([]string, n), make([]int64, n)
			for i := range n {
				b := keys[drawn%len(keys)] + byte(drawn/len(keys))
				drawn++
				ki[i], ks[i], kv[i] = int64(b>>4)-2, []string{"", "a", "ab", "b"}[b&3], int64(from+i)
			}
			return storage.MustNewTable("k", 256,
				storage.NewInt64Column("k_i", ki), storage.NewStringColumn("k_s", ks), storage.NewInt64Column("k_v", kv))
		}
		all := table(int(rows)%301, 0) // the rows in insertion order
		if compress {
			all.Compress()
		}
		db, err := NewPKDB(schema, map[string]*storage.Table{"k": all}, iosim.PaperSSD())
		if err != nil {
			t.Fatal(err)
		}
		ing, err := db.EnableIngest(0)
		if err != nil {
			t.Fatal(err)
		}
		check := func(label string) {
			t.Helper()
			keys, err := core.KeyValues(all, pk, 0, all.Rows())
			if err != nil {
				t.Fatal(err)
			}
			want, err := all.Permute(sortPermByKeys(keys))
			if err != nil {
				t.Fatal(err)
			}
			got := db.Snapshot().Tables["k"].Materialized()
			if got.Rows() != want.Rows() {
				t.Fatalf("%s: %d rows, want %d", label, got.Rows(), want.Rows())
			}
			for i, c := range want.Cols {
				g, w := got.Cols[i].Values(), c.Values()
				if !slices.Equal(g.I64, w.I64) || !slices.Equal(g.Str, w.Str) {
					t.Fatalf("%s: column %s differs from the stable key sort", label, c.Name)
				}
			}
		}
		if len(sizes) == 0 {
			sizes = []byte{0}
		}
		sizes = sizes[:min(len(sizes), 6)]
		for i, size := range sizes {
			batch := table(1+int(size)%40, all.Rows())
			if err := ing.Append("k", batch); err != nil {
				t.Fatal(err)
			}
			if all, err = storage.Concat(all, all.Rows(), batch); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("append %d", i))
			if i == len(sizes)/2 {
				if err := ing.Merge(); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("the merge after append %d", i))
			}
		}
		if err := ing.Merge(); err != nil {
			t.Fatal(err)
		}
		check("the last merge")
		if got := db.Snapshot().Tables["k"].Compressed(); got != compress {
			t.Fatalf("the merged table is compressed=%v, the root was compressed=%v", got, compress)
		}
	})
}
