package tpch

import (
	"fmt"
	"slices"
	"testing"

	"bdcc/internal/catalog"
	"bdcc/internal/core"
	"bdcc/internal/plan"
	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// referenceKeyBins builds the value→bin map of one path hop the way the
// planner used to on every query: walk the rest of the path from every row
// of the referenced table, extract the host's key values and binary-search
// each one's bin. It shares no code with the materialized index.
func referenceKeyBins(t testing.TB, schema *catalog.Schema, tables map[string]*storage.Table, dim *core.Dimension, path []string) map[int64]uint64 {
	t.Helper()
	fk := schema.FK(path[0])
	refCol, err := tables[fk.RefTable].Column(fk.RefCols[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(fk.RefCols) != 1 || refCol.Kind != vector.Int64 {
		return nil
	}
	hostRows, err := core.NewResolver(schema, tables).HostRows(fk.RefTable, path[1:])
	if err != nil {
		t.Fatal(err)
	}
	hostKeys, err := core.KeyValues(tables[dim.Table], dim.Key, 0, tables[dim.Table].Rows())
	if err != nil {
		t.Fatal(err)
	}
	refKeys := refCol.Values().I64
	m := make(map[int64]uint64, len(refKeys))
	for i, v := range refKeys {
		m[v] = dim.BinOf(hostKeys[hostRows[i]])
	}
	return m
}

// eachHop calls fn for every (table, use, hop) of a materialized design.
func eachHop(db *core.Database, fn func(label string, dim *core.Dimension, path []string)) {
	for _, td := range db.Design.Tables {
		for _, us := range td.Uses {
			for h := range us.Path {
				label := fmt.Sprintf("%s %s|%s hop %d", td.Table, us.Dim, us.PathString(), h)
				fn(label, db.Dimensions[us.Dim], us.Path[h:])
			}
		}
	}
}

// TestKeyBinIndexMatchesReference: for every (table, use, hop) of the TPC-H
// design the materialized index holds exactly the reference map.
func TestKeyBinIndexMatchesReference(t *testing.T) {
	b, err := NewBenchmark(0.01, plan.BDCC)
	if err != nil {
		t.Fatal(err)
	}
	db := b.DBs[plan.BDCC]
	hops := 0
	eachHop(db.Clustered, func(label string, dim *core.Dimension, path []string) {
		want := referenceKeyBins(t, db.Schema, db.Tables, dim, path)
		got := db.Clustered.KeyBins(dim.Name, path)
		if want == nil {
			if got != nil {
				t.Errorf("%s: an index over a key the planner cannot probe", label)
			}
			return
		}
		hops++
		if got == nil {
			t.Fatalf("%s: no index", label)
		}
		if len(got.Keys) != len(want) || len(got.Bins) != len(want) {
			t.Fatalf("%s: index holds %d keys and %d bins, reference %d", label, len(got.Keys), len(got.Bins), len(want))
		}
		if !slices.IsSorted(got.Keys) {
			t.Fatalf("%s: keys not ascending", label)
		}
		for i, k := range got.Keys {
			if bin, ok := want[k]; !ok || bin != got.Bins[i] {
				t.Fatalf("%s: key %d maps to bin %d, reference %d (present %v)", label, k, got.Bins[i], bin, ok)
			}
		}
	})
	// lineitem 3+2+1+1, partsupp 2+1, orders 2, supplier, customer: 14 hops.
	if hops != 14 {
		t.Errorf("checked %d hops of the TPC-H design, want 14", hops)
	}
}

// sameKeyBins compares every index of two materializations of one design.
func sameKeyBins(t *testing.T, label string, got, want *core.Database) {
	t.Helper()
	eachHop(want, func(hop string, dim *core.Dimension, path []string) {
		g, w := got.KeyBins(dim.Name, path), want.KeyBins(dim.Name, path)
		if g == nil || w == nil {
			t.Fatalf("%s, %s: index missing (ingested %v, rebuilt %v)", label, hop, g != nil, w != nil)
		}
		if !slices.Equal(g.Keys, w.Keys) || !slices.Equal(g.Bins, w.Bins) {
			t.Fatalf("%s, %s: ingested index (%d keys) differs from the rebuilt one (%d keys)", label, hop, len(g.Keys), len(w.Keys))
		}
	})
}

// TestKeyBinIndexAcrossIngest: every published version carries the indexes
// a from-scratch rebuild over the same rows would — after each append and
// after the merge — and a snapshot pinned earlier keeps its own.
func TestKeyBinIndexAcrossIngest(t *testing.T) {
	b, err := NewBenchmark(0.01, plan.BDCC)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.EnableIngest(0, 0); err != nil {
		t.Fatal(err)
	}
	db := b.DBs[plan.BDCC]
	loaded := db.Snapshot().Clustered
	rebuilt := func(batches []*DeltaBatch) *core.Database {
		reb, err := core.RebuildWithDesign(loaded, b.Schema, combinedWith(t, b.Data, batches), core.BuildOptions{Device: db.Device})
		if err != nil {
			t.Fatal(err)
		}
		return reb
	}
	base := rebuilt(nil)
	sameKeyBins(t, "loaded base", loaded, base)

	gen := NewDeltaGen(b.Data, 99)
	var batches []*DeltaBatch
	var pinned *plan.DB
	var pinnedAt *core.Database
	for i := 0; i < 3; i++ {
		batch := gen.Next(40)
		batches = append(batches, batch)
		if err := b.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		snap := db.Snapshot()
		reb := rebuilt(batches)
		sameKeyBins(t, fmt.Sprintf("after append %d", i+1), snap.Clustered, reb)
		if i == 0 {
			pinned, pinnedAt = snap, reb
		}
	}
	orders := []string{"fk_l_o"}
	if n, m := len(pinned.Clustered.KeyBins("d_date", orders).Keys), len(db.Snapshot().Clustered.KeyBins("d_date", orders).Keys); m != n+80 {
		t.Fatalf("orders index: %d keys pinned after one batch, %d after three; want 80 more", n, m)
	}
	if err := b.MergeAll(); err != nil {
		t.Fatal(err)
	}
	sameKeyBins(t, "after the merge", db.Snapshot().Clustered, rebuilt(batches))
	sameKeyBins(t, "snapshot pinned after append 1", pinned.Clustered, pinnedAt)
	sameKeyBins(t, "the loaded base", loaded, base)
}
