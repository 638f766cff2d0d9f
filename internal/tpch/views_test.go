package tpch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"bdcc/internal/plan"
	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// hashView folds into h what a scan sees of a stored table: every column read
// by storage.Reader over the full range (hashTable), each column's page count,
// the coalesced read statistics of a fixed range set per column and over all
// columns, and the zonemap pruning of point intervals at every 997th value of
// each Int64 and String column.
func hashView(h hash.Hash, t *storage.Table) {
	var buf [8]byte
	putU64 := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	hashTable(h, t)
	all := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		all[i] = i
		putU64(uint64(t.Pages(c)))
	}
	ranges := storage.RowRanges{{Start: 0, End: 1}, {Start: 100, End: 1124}, {Start: 1200, End: 1300},
		{Start: 4000, End: 9000}, {Start: 12000, End: 12001}, {Start: 14000, End: 14990}}
	for _, cols := range append([][]int{all}, splitCols(all)...) {
		runs, pages, bytes := t.ReadStats(cols, ranges)
		putU64(uint64(runs))
		putU64(uint64(pages))
		putU64(uint64(bytes))
	}
	for ci, c := range t.Cols {
		if c.Kind == vector.Float64 {
			continue
		}
		r := storage.NewReader(t, []int{ci}, nil, nil)
		b := vector.NewBatch(r.Kinds())
		row := 0
		for r.Next(b) {
			v := b.Cols[0]
			for i := range v.Len() {
				if row%997 == 0 {
					var iv storage.Interval
					if c.Kind == vector.Int64 {
						iv.Lo, iv.Hi = storage.Bound{Set: true, I: v.I64[i]}, storage.Bound{Set: true, I: v.I64[i]}
					} else {
						iv.Lo, iv.Hi = storage.Bound{Set: true, S: v.Str[i]}, storage.Bound{Set: true, S: v.Str[i]}
					}
					kept := t.PruneZonemap(c.Name, iv, nil)
					putU64(uint64(len(kept)))
					for _, k := range kept {
						putU64(uint64(k.Start))
						putU64(uint64(k.End))
					}
				}
				row++
			}
		}
	}
}

// splitCols returns each column position of cols on its own.
func splitCols(cols []int) [][]int {
	out := make([][]int, len(cols))
	for i, c := range cols {
		out[i] = []int{c}
	}
	return out
}

// TestUnmergedViewsPinned holds the un-merged BDCC views a scan reads to what
// they were when an append gathered each view into fresh arrays: after each of
// eight appends of 30 orders (NewDeltaGen(d, 1)) to the compressed SF 0.01
// BDCC database, a SHA-256 over the lineitem and orders views (hashView). The
// constants were computed with the gathering append, before a view became a
// run list over the merged base and the batches; how a view holds its rows
// must not show in what a scan reads, is charged, or prunes.
func TestUnmergedViewsPinned(t *testing.T) {
	want := []string{
		"0cf47e6feb6984de110b4c802dca2a471101818bad4e4422f5faccbdf8308c66",
		"0c05492adb17e5c4945871ae507ed713b6c002273b250ada60c5272f45ed0b04",
		"109639fc9eef2125930429acc14f89371400aa2e216fda8eb0f27e33e2e67465",
		"38ddcdd8b0b845a8b129e9f1052213461937da505a93831343b6328bc6158a38",
		"0e537c724cd11134a78fe3a54863145ae7ea83f2b1271bd3c0763c3da250aa7e",
		"8195c43070eb08d36a0f6d34d928b60fcfb723423adc264a9dd8cae722120c5d",
		"b7dc0e8193c594730c493ec5cbd384a728bfac328c9a521abce5b02861d97d87",
		"859b6f2914e01f1c97f0bb9577729d849c6a4ecc3978d3114969a4654c0595ac",
	}
	b, err := NewBenchmarkCompressed(0.01, true, plan.BDCC)
	if err != nil {
		t.Fatal(err)
	}
	db := b.DBs[plan.BDCC]
	if _, err := db.EnableIngest(0); err != nil {
		t.Fatal(err)
	}
	g := NewDeltaGen(b.Data, 1)
	for i := range 8 {
		if err := appendTo(db, g.Next(30)); err != nil {
			t.Fatal(err)
		}
		snap := db.Snapshot()
		h := sha256.New()
		for _, name := range []string{"lineitem", "orders"} {
			st, err := snap.StoredTable(name)
			if err != nil {
				t.Fatal(err)
			}
			if st.Compressed() {
				t.Fatalf("append %d: the un-merged %s view is compressed", i+1, name)
			}
			hashView(h, st)
		}
		got := hex.EncodeToString(h.Sum(nil))
		t.Logf("append %d: %s", i+1, got)
		if got != want[i] {
			t.Errorf("append %d: view digest %s, want %s", i+1, got, want[i])
		}
	}
}
