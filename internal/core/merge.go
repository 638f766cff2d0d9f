package core

import (
	"fmt"
	"sort"

	"bdcc/internal/catalog"
	"bdcc/internal/iosim"
	"bdcc/internal/storage"
)

// This file maintains a materialized BDCC database under ingest. The key
// property making that cheap is that dimensions are frozen at design time and
// BinOf is total and monotone: any new key value — even one outside every
// observed range — bins deterministically, so a fresh row's z-order cell is a
// pure function of the row. Re-clustering after an append is therefore a
// local merge (splice sorted delta runs into the retained key order, add the
// per-cell counts), not a rebuild. The from-scratch rebuild with the same
// frozen design (Builder.Frozen) exists as the independent reference the
// ingest oracle compares against bit-for-bit.

// BindUses recomputes, with the database's frozen dimensions, the per-row use
// bindings of one designed table over the given stored tables — typically the
// base + delta concatenations, so appended rows resolve foreign keys that
// point at other appended rows. Rows before `from` are skipped (bins start at
// row `from` of the table); pass 0 to bind every row.
func BindUses(db *Database, schema *catalog.Schema, tables map[string]*storage.Table, table string, from int) ([]UseBinding, error) {
	uses, err := newUseBins(schema, tables, db).bind(table)
	for i := range uses {
		uses[i].BinNos = uses[i].BinNos[from:]
	}
	return uses, err
}

// BindBatch is BindUses for a freshly appended batch of table's rows at the
// cost of the batch: bins come from the batch's own key columns and from the
// database's key→bin indexes, which must already hold the keys of the rows
// the batch references (parents are appended first). Only a hop without an
// index resolves the batch's keys, by value, against the stored form of
// every other table, in any row order: db's clustering where it has one, else
// tables'. It is what AppendRows binds with; BindUses, which walks the stored
// tables, stays the reference it is tested against.
func BindBatch(db *Database, schema *catalog.Schema, tables map[string]*storage.Table, table string, batch *storage.Table) ([]UseBinding, error) {
	return newBatchBins(schema, tables, db, table, batch).bind(table)
}

// deltaKeys encodes the _bdcc_ keys of delta rows at the table's full load
// granularity, using the frozen masks of the base table. All bindings must
// carry the same row count.
func deltaKeys(base *BDCCTable, uses []UseBinding) ([]uint64, error) {
	if len(uses) != len(base.Uses) {
		return nil, fmt.Errorf("core: table %s: %d delta bindings for %d uses", base.Name, len(uses), len(base.Uses))
	}
	k := len(uses[0].BinNos)
	dimBits := make([]int, len(uses))
	fullMasks := make([]uint64, len(uses))
	for i, u := range base.Uses {
		if uses[i].Dim.Name != u.Dim.Name {
			return nil, fmt.Errorf("core: table %s: delta binding %d is %s, base use is %s",
				base.Name, i, uses[i].Dim.Name, u.Dim.Name)
		}
		if len(uses[i].BinNos) != k {
			return nil, fmt.Errorf("core: table %s: binding %d has %d bins, binding 0 has %d",
				base.Name, i, len(uses[i].BinNos), k)
		}
		dimBits[i] = u.Dim.Bits()
		fullMasks[i] = u.FullMask
	}
	keys := make([]uint64, k)
	binNos := make([]uint64, len(uses))
	for r := 0; r < k; r++ {
		for i := range uses {
			binNos[i] = uses[i].BinNos[r]
		}
		keys[r] = EncodeKey(binNos, dimBits, fullMasks, base.FullBits)
	}
	return keys, nil
}

// MergeBDCCTable splices delta rows into a BDCC table incrementally, keeping
// the frozen design (dimensions, masks, count-table granularity b):
//
//	(i)   encode the delta rows' _bdcc_ keys with the frozen masks and sort
//	      them (stably, so arrival order breaks ties);
//	(ii)  update T_COUNT arithmetically: per-cell delta counts are added to
//	      the existing entries (new cells are inserted in key order) and
//	      offsets re-derived by prefix sum, with no re-aggregation of base
//	      rows;
//	(iii) re-decide small-group relocation over the merged counts;
//	(iv)  land each delta row, by binary search in the retained keys, behind
//	      the base rows whose keys are at or below its own (base rows win
//	      ties, as in a stable re-sort of base-then-delta insertion order),
//	      and splice the base's pieces between landing points, the delta rows
//	      and the relocation area over (base, delta) as runs (storage.Splice):
//	      nothing of the table's length is built, and no row is copied.
//
// The merged table is uncompressed; callers consolidating a compressed base
// re-encode the result explicitly.
func MergeBDCCTable(base *BDCCTable, delta *storage.Table, uses []UseBinding, opt BuildOptions) (*BDCCTable, error) {
	if opt.Device.PageSize == 0 {
		opt.Device = iosim.PaperSSD()
	}
	n := int(base.baseRows)
	k := delta.Rows()
	root, pending := base.SortedKeys, base.pending
	if len(root)+len(pending) != n {
		return nil, fmt.Errorf("core: table %s retains %d sorted keys for %d rows; built before key retention?",
			base.Name, len(root)+len(pending), n)
	}
	keys, err := deltaKeys(base, uses)
	if err != nil {
		return nil, err
	}
	if len(keys) != k {
		return nil, fmt.Errorf("core: table %s: %d delta keys for %d delta rows", base.Name, len(keys), k)
	}
	// (i) sort the delta run, and (iv) land each of its rows after the ri
	// root and pi pending keys at or below its key.
	var step []storage.Run
	sorted, prev, ri, pi := make([]uint64, 0, k), 0, 0, 0
	for _, d := range storage.SortPerm(keys) {
		key := keys[d]
		sorted, ri, pi = append(sorted, key), upperBound(root, ri, key), upperBound(pending, pi, key)
		step = storage.AppendRun(storage.AppendRun(step, 0, int32(prev), int32(ri+pi-prev)), 1, d, 1)
		prev = ri + pi
	}
	step = storage.AppendRun(step, 0, int32(prev), int32(n-prev))
	t := &BDCCTable{
		Name:       base.Name,
		Uses:       base.Uses,
		Bits:       base.Bits,
		FullBits:   base.FullBits,
		Count:      mergeCounts(base.Count, cellCounts(sorted, uint(base.FullBits-base.Bits))), // (ii)
		SortedKeys: root,
		pending:    mergeKeys(pending, sorted),
		baseRows:   int64(n + k),
	}
	// (iii) fresh relocation decisions over the merged counts; each small
	// group's rows go once more behind the table, as the step's runs hold them.
	var small storage.RowRanges
	if !opt.DisableRelocation {
		small = t.relocateSmallGroups(efficientRows(storage.ClusterWidth(base.Data, n, delta), opt.Device))
	}
	for _, g := range small {
		step = storage.AppendPieces(step, step, int32(g.Start), int32(g.Len()))
	}
	if t.Data, err = storage.Splice(base.Data, n, delta, step); err != nil {
		return nil, err
	}
	return t, nil
}

// upperBound returns the index of the first of keys[from:] above key.
func upperBound(keys []uint64, from int, key uint64) int {
	return from + sort.Search(len(keys)-from, func(i int) bool { return keys[from+i] > key })
}

// mergeKeys merges two ascending key lists, a's keys first on ties.
func mergeKeys(a, b []uint64) []uint64 {
	out, i := make([]uint64, 0, len(a)+len(b)), 0
	for _, k := range b {
		j := upperBound(a, i, k)
		out, i = append(append(out, a[i:j]...), k), j
	}
	return append(out, a[i:]...)
}

// mergeCounts merges two key-ordered count-entry runs, summing counts of
// equal cells and re-deriving offsets by prefix sum. Relocation flags are
// dropped: the merged table is laid out contiguously again and relocation
// re-decides from scratch.
func mergeCounts(base, delta []CountEntry) []CountEntry {
	out := make([]CountEntry, 0, len(base)+len(delta))
	bi, dj := 0, 0
	for bi < len(base) || dj < len(delta) {
		switch {
		case dj >= len(delta) || (bi < len(base) && base[bi].Key < delta[dj].Key):
			out = append(out, CountEntry{Key: base[bi].Key, Count: base[bi].Count})
			bi++
		case bi >= len(base) || delta[dj].Key < base[bi].Key:
			out = append(out, CountEntry{Key: delta[dj].Key, Count: delta[dj].Count})
			dj++
		default:
			out = append(out, CountEntry{Key: base[bi].Key, Count: base[bi].Count + delta[dj].Count})
			bi++
			dj++
		}
	}
	var off int64
	for i := range out {
		out[i].Offset = off
		off += out[i].Count
	}
	return out
}
