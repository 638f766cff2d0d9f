package core

import (
	"fmt"
	"math"

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
// frozen design (RebuildWithDesign) exists as the independent reference the
// ingest oracle compares against bit-for-bit.

// BindUses recomputes, with the database's frozen dimensions, the per-row use
// bindings of one designed table over the given stored tables — typically the
// base + delta concatenations, so appended rows resolve foreign keys that
// point at other appended rows. Rows before `from` are skipped (bins start at
// row `from` of the table); pass 0 to bind every row.
func BindUses(db *Database, schema *catalog.Schema, tables map[string]*storage.Table, table string, from int) ([]UseBinding, error) {
	return newUseBins(NewResolver(schema, tables), db).bind(table, from)
}

// DeltaKeys encodes the _bdcc_ keys of delta rows at the table's full load
// granularity, using the frozen masks of the base table. All bindings must
// carry the same row count.
func DeltaKeys(base *BDCCTable, uses []UseBinding) ([]uint64, error) {
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
//	(ii)  merge the run into the retained sorted key order by a single linear
//	      pass — base rows win ties, matching what a stable re-sort of
//	      base-then-delta insertion order would produce — and permute the
//	      concatenated data once into the merged order;
//	(iii) update T_COUNT arithmetically: per-cell delta counts are added to
//	      the existing entries (new cells are inserted in key order) and
//	      offsets re-derived by prefix sum, with no re-aggregation of base
//	      rows;
//	(iv)  re-run small-group relocation over the merged table.
//
// The merged table is uncompressed (Concat yields raw columns); callers
// consolidating a compressed base re-encode the result explicitly.
func MergeBDCCTable(base *BDCCTable, delta *storage.Table, uses []UseBinding, opt BuildOptions) (*BDCCTable, error) {
	if opt.Device.PageSize == 0 {
		opt.Device = iosim.PaperSSD()
	}
	n := int(base.baseRows)
	k := delta.Rows()
	if len(base.SortedKeys) != n {
		return nil, fmt.Errorf("core: table %s retains %d sorted keys for %d rows; built before key retention?",
			base.Name, len(base.SortedKeys), n)
	}
	deltaKeys, err := DeltaKeys(base, uses)
	if err != nil {
		return nil, err
	}
	if len(deltaKeys) != k {
		return nil, fmt.Errorf("core: table %s: %d delta keys for %d delta rows", base.Name, len(deltaKeys), k)
	}
	// (i) sort the delta run.
	deltaPerm := storage.SortPerm(deltaKeys)
	// (ii) one-pass merge into the retained order. Concat indexes rows
	// [0,n) as the sorted base and [n,n+k) as the delta in arrival order.
	concat, err := storage.Concat(base.Data, n, delta)
	if err != nil {
		return nil, err
	}
	perm := make([]int32, 0, n+k)
	mergedKeys := make([]uint64, 0, n+k)
	bi, dj := 0, 0
	for bi < n || dj < k {
		if bi < n && (dj >= k || base.SortedKeys[bi] <= deltaKeys[deltaPerm[dj]]) {
			mergedKeys = append(mergedKeys, base.SortedKeys[bi])
			perm = append(perm, int32(bi))
			bi++
		} else {
			mergedKeys = append(mergedKeys, deltaKeys[deltaPerm[dj]])
			perm = append(perm, int32(n)+deltaPerm[dj])
			dj++
		}
	}
	merged, err := concat.Permute(perm)
	if err != nil {
		return nil, err
	}
	// (iii) count-table arithmetic at the frozen granularity.
	shift := uint(base.FullBits - base.Bits)
	var deltaGroups []CountEntry
	for i := 0; i < k; {
		j := i
		g := deltaKeys[deltaPerm[i]] >> shift
		for j < k && deltaKeys[deltaPerm[j]]>>shift == g {
			j++
		}
		deltaGroups = append(deltaGroups, CountEntry{Key: g, Count: int64(j - i)})
		i = j
	}
	count := mergeCounts(base.Count, deltaGroups)
	t := &BDCCTable{
		Name:       base.Name,
		Data:       merged,
		Bits:       base.Bits,
		FullBits:   base.FullBits,
		Count:      count,
		Stats:      CollectGroupStats(mergedKeys, base.FullBits),
		SortedKeys: mergedKeys,
		baseRows:   int64(n + k),
	}
	for _, u := range base.Uses {
		t.Uses = append(t.Uses, &DimensionUse{
			Dim:      u.Dim,
			Path:     append([]string(nil), u.Path...),
			Mask:     u.Mask,
			FullMask: u.FullMask,
		})
	}
	// (iv) fresh relocation decisions over the merged table.
	if !opt.DisableRelocation {
		if err := t.relocateSmallGroups(efficientRows(merged, opt.Device)); err != nil {
			return nil, err
		}
	}
	return t, nil
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

// RebuildWithDesign rebuilds every designed table from scratch over the given
// stored tables while keeping the frozen design: existing dimensions (so bin
// boundaries don't move under the data), interleaving order, and each table's
// count-table granularity. This is the reference path for the ingest oracle —
// it shares no code with the incremental merge beyond the binning itself —
// and the consolidation a drifted table would undergo offline.
func RebuildWithDesign(old *Database, schema *catalog.Schema, tables map[string]*storage.Table, opt BuildOptions) (*Database, error) {
	db := &Database{
		Design:     old.Design,
		Dimensions: old.Dimensions,
		Tables:     make(map[string]*BDCCTable),
	}
	res := NewResolver(schema, tables)
	ub := newUseBins(res, db)
	for _, td := range old.Design.Tables {
		base := old.Tables[td.Table]
		if base == nil {
			return nil, fmt.Errorf("core: rebuild: table %s designed but not materialized", td.Table)
		}
		data, err := res.Table(td.Table)
		if err != nil {
			return nil, err
		}
		uses, err := ub.bind(td.Table, 0)
		if err != nil {
			return nil, err
		}
		o := opt
		o.ForceBits = base.Bits
		bt, err := BuildBDCCTable(td.Table, data, uses, o)
		if err != nil {
			return nil, err
		}
		for i, u := range bt.Uses {
			if u.FullMask != base.Uses[i].FullMask || u.Mask != base.Uses[i].Mask {
				return nil, fmt.Errorf("core: rebuild of %s moved use %d masks", td.Table, i)
			}
		}
		if err := bt.Validate(); err != nil {
			return nil, err
		}
		db.Tables[td.Table] = bt
	}
	var err error
	if db.keyBins, err = ub.keyBins("", 0); err != nil {
		return nil, err
	}
	return db, nil
}

// DriftReport compares where delta rows land against the base clustering, at
// the base table's count-table granularity.
type DriftReport struct {
	Table     string
	BaseRows  int64
	DeltaRows int64
	// NewCells counts cells that receive delta rows but hold no base rows;
	// NewCellRows sums the delta rows landing there. New cells are the
	// benign kind of drift — the clustering absorbs them as fresh groups.
	NewCells    int
	NewCellRows int64
	// HotCellFrac is the largest single cell's share of the delta. A hot
	// cell means arrivals concentrate where BinOf clamps (e.g. dates past
	// the observed range all binning to the last date bin), the degenerate
	// pattern that erodes clustering selectivity.
	HotCellFrac float64
	// Distance is the total-variation distance between the base and delta
	// cell-size histograms (0 = identically distributed, 1 = disjoint).
	Distance float64
}

// Drifted reports whether the delta's cell distribution has diverged from the
// base by at least the given total-variation threshold.
func (r DriftReport) Drifted(threshold float64) bool {
	return r.DeltaRows > 0 && r.Distance >= threshold
}

func (r DriftReport) String() string {
	return fmt.Sprintf("%s: %d delta rows over %d base; %d new cells (%d rows), hottest cell %.0f%%, distance %.3f",
		r.Table, r.DeltaRows, r.BaseRows, r.NewCells, r.NewCellRows, 100*r.HotCellFrac, r.Distance)
}

// DriftStats compares the cell-size histogram of un-merged delta keys (at
// full granularity) against the base count table.
func DriftStats(base *BDCCTable, deltaKeys []uint64) DriftReport {
	r := DriftReport{Table: base.Name, BaseRows: base.baseRows, DeltaRows: int64(len(deltaKeys))}
	if len(deltaKeys) == 0 {
		return r
	}
	shift := uint(base.FullBits - base.Bits)
	deltaCells := make(map[uint64]int64, len(base.Count))
	for _, k := range deltaKeys {
		deltaCells[k>>shift]++
	}
	baseCells := make(map[uint64]int64, len(base.Count))
	for _, e := range base.Count {
		baseCells[e.Key] = e.Count
	}
	var dist float64
	var hottest int64
	for cell, cnt := range deltaCells {
		if cnt > hottest {
			hottest = cnt
		}
		if baseCells[cell] == 0 {
			r.NewCells++
			r.NewCellRows += cnt
		}
		dist += math.Abs(float64(cnt)/float64(r.DeltaRows) - float64(baseCells[cell])/float64(r.BaseRows))
	}
	for cell, cnt := range baseCells {
		if deltaCells[cell] == 0 {
			dist += float64(cnt) / float64(r.BaseRows)
		}
	}
	r.HotCellFrac = float64(hottest) / float64(r.DeltaRows)
	r.Distance = dist / 2
	return r
}

// DriftFor binds the trailing rows of a designed table over combined stored
// tables (base rows first, delta tail from row `from`) and reports their
// drift against the base clustering.
func DriftFor(db *Database, schema *catalog.Schema, tables map[string]*storage.Table, table string, from int) (DriftReport, error) {
	base := db.Tables[table]
	if base == nil {
		return DriftReport{}, fmt.Errorf("core: drift: table %s is not BDCC-clustered", table)
	}
	uses, err := BindUses(db, schema, tables, table, from)
	if err != nil {
		return DriftReport{}, err
	}
	keys, err := DeltaKeys(base, uses)
	if err != nil {
		return DriftReport{}, err
	}
	return DriftStats(base, keys), nil
}
