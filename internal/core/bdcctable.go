package core

import (
	"fmt"
	"math"

	"bdcc/internal/iosim"
	"bdcc/internal/storage"
)

// DimensionUse is U = 〈D, P, M〉 (Definition 3): a dimension, the foreign-key
// path from the using table to the dimension key, and the bitmask that
// places the dimension's bits in the _bdcc_ ordering key.
type DimensionUse struct {
	Dim *Dimension
	// Path is P(U): the chain of foreign-key identifiers from the using
	// table to the dimension's host table; empty for a local dimension.
	Path []string
	// Mask is M(U) at the table's count-table granularity Bits.
	Mask uint64
	// FullMask is the mask at full load granularity FullBits.
	FullMask uint64
}

// PathString renders P(U) in the paper's dotted notation ("-" when local).
func (u *DimensionUse) PathString() string {
	if len(u.Path) == 0 {
		return "-"
	}
	s := u.Path[0]
	for _, p := range u.Path[1:] {
		s += "." + p
	}
	return s
}

// CountEntry is one row of the metadata table T_COUNT(_bdcc_, count): a
// group key at count-table granularity, its tuple count, and the starting
// row of the group in the (sorted) BDCC table. Relocated is set when the
// group was smaller than the efficient access size and its tuples were
// copied to the relocation area at the end of the table; the original rows
// are then "marked invalid" (never scanned) exactly as in the paper.
type CountEntry struct {
	Key       uint64
	Count     int64
	Offset    int64
	Relocated bool
}

// BDCCTable is T_BDCC = 〈T, U₁…U_d, b〉 (Definition 4): the source table
// stored sorted on the interleaved _bdcc_ key, its dimension uses, and the
// count table at the self-tuned granularity chosen by Algorithm 1.
type BDCCTable struct {
	Name string
	// Data is the re-clustered table (sorted on _bdcc_ at FullBits
	// granularity), including the relocation area when small groups were
	// re-appended after load.
	Data *storage.Table
	// Uses are the dimension uses, in interleaving order.
	Uses []*DimensionUse
	// Bits is b, the count-table granularity; FullBits is B = Σ bits(D(Uᵢ)),
	// the granularity the table was loaded and sorted at.
	Bits     int
	FullBits int
	// Count is T_COUNT ordered by Key.
	Count []CountEntry
	// RelocatedRows counts tuples copied into the relocation area.
	RelocatedRows int64
	// SortedKeys are the ascending _bdcc_ keys (at FullBits granularity) of
	// the rows as of the last build or consolidation (the root); pending
	// holds those of the rows MergeBDCCTable spliced in since. Keys merges
	// the two; a merge lands new rows by binary search in both.
	SortedKeys []uint64
	pending    []uint64
	// baseRows is the row count of the original table (before relocation).
	baseRows int64
}

// BuildOptions control BuildBDCCTable.
type BuildOptions struct {
	// Device provides the efficient random access size AR; zero value means
	// the paper's SSD setup.
	Device iosim.Device
	// MajorMinor switches from the default round-robin (Z-order)
	// interleaving to classical major-minor ordering in use order, for the
	// paper's "Other Orderings" self-comparison.
	MajorMinor bool
	// ForceBits pins the count-table granularity b instead of Algorithm 1's
	// choice; 0 means self-tuned.
	ForceBits int
	// DisableRelocation turns off small-group relocation after load.
	DisableRelocation bool
}

// UseBinding pairs a planned dimension use with the per-row bin numbers of
// the source table, resolved over the use's foreign-key path.
type UseBinding struct {
	Dim    *Dimension
	Path   []string
	BinNos []uint64
}

// BuildBDCCTable implements Algorithm 1 (self-tuned BDCC table):
//
//	(i)   assign round-robin interleaved masks at maximal granularity
//	      B = Σ bits(D(Uᵢ));
//	(ii)  compute _bdcc_ at granularity B and sort the table on it, a radix
//	      sort (storage.SortPerm; the per-granularity group-size histograms
//	      are GroupStats, on demand);
//	(iii) find the densest (widest) column and choose the largest b ≤ B such
//	      that most tuples live in groups of at least the efficient random
//	      access size AR (see DESIGN.md on the AR/2 rounding that reproduces
//	      the paper's ⌈log₂ 550000⌉ = 20 example);
//	(iv)  create T_COUNT at granularity b by one ordered aggregation.
//
// Afterwards, unless disabled, groups below the efficient size are copied to
// a consecutive relocation area at the end of the table and their original
// extents marked invalid in the count table. The copy extends the sorted
// table (storage.Table.AppendRows): a compressed one keeps its chunks where
// the encoder allows and encodes the relocation area, not the table again.
func BuildBDCCTable(name string, data *storage.Table, uses []UseBinding, opt BuildOptions) (*BDCCTable, error) {
	if len(uses) == 0 {
		return nil, fmt.Errorf("core: BDCC table %s needs at least one dimension use", name)
	}
	if opt.Device.PageSize == 0 {
		opt.Device = iosim.PaperSSD()
	}
	n := data.Rows()
	bitsPerUse := make([]int, len(uses))
	dimBits := make([]int, len(uses))
	for i, u := range uses {
		if len(u.BinNos) != n {
			return nil, fmt.Errorf("core: BDCC table %s use %d: %d bin numbers for %d rows",
				name, i, len(u.BinNos), n)
		}
		bitsPerUse[i] = u.Dim.Bits()
		dimBits[i] = u.Dim.Bits()
	}
	// (i) interleaved masks at maximal granularity.
	var fullMasks []uint64
	var fullBits int
	if opt.MajorMinor {
		fullMasks, fullBits = MajorMinorMasks(bitsPerUse)
	} else {
		fullMasks, fullBits = RoundRobinMasks(bitsPerUse)
	}
	if fullBits > 62 {
		return nil, fmt.Errorf("core: BDCC table %s: %d clustering bits exceed the 62-bit key budget", name, fullBits)
	}
	if err := ValidateMasks(fullMasks, fullBits); err != nil {
		return nil, err
	}
	// (ii) compute _bdcc_ and sort.
	keys := make([]uint64, n)
	binNos := make([]uint64, len(uses))
	for r := 0; r < n; r++ {
		for i := range uses {
			binNos[i] = uses[i].BinNos[r]
		}
		keys[r] = EncodeKey(binNos, dimBits, fullMasks, fullBits)
	}
	perm := storage.SortPerm(keys)
	sortedKeys := make([]uint64, n)
	for i, p := range perm {
		sortedKeys[i] = keys[p]
	}
	sorted, err := data.Permute(perm)
	if err != nil {
		return nil, err
	}
	// (iii) choose the count-table granularity against the densest column.
	minRows := efficientRows(sorted.DensestColumn().Width(), opt.Device)
	b := opt.ForceBits
	if b == 0 {
		b = chooseGranularity(sortedKeys, fullBits, minRows, n)
	}
	b = max(min(b, fullBits), 1)
	truncated := TruncateMasks(fullMasks, fullBits, b)
	t := &BDCCTable{
		Name:       name,
		Data:       sorted,
		Bits:       b,
		FullBits:   fullBits,
		SortedKeys: sortedKeys,
		baseRows:   int64(n),
	}
	for i, u := range uses {
		t.Uses = append(t.Uses, &DimensionUse{
			Dim:      u.Dim,
			Path:     append([]string(nil), u.Path...),
			Mask:     truncated[i],
			FullMask: fullMasks[i],
		})
	}
	// (iv) T_COUNT by one ordered aggregation over consecutive equal groups.
	t.Count = cellCounts(sortedKeys, uint(fullBits-b))
	if !opt.DisableRelocation {
		if small := t.relocateSmallGroups(minRows); small != nil {
			if t.Data, err = t.Data.AppendRows(small); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// cellCounts aggregates ascending keys into count-table entries, one per
// cell (a key shifted right by shift), offset at the cell's first key.
func cellCounts(keys []uint64, shift uint) []CountEntry {
	var out []CountEntry
	for i, k := range keys {
		if g := len(out) - 1; g < 0 || out[g].Key != k>>shift {
			out = append(out, CountEntry{Key: k >> shift, Offset: int64(i)})
		}
		out[len(out)-1].Count++
	}
	return out
}

// efficientRows converts the device's efficient random access size into a
// minimum group row count against the densest column, of modeled width w: a
// group qualifies when it rounds to at least one AR unit (≥ AR/2 bytes) in
// that column.
func efficientRows(w float64, dev iosim.Device) int64 {
	if w <= 0 {
		w = 1
	}
	return max(int64(math.Ceil(float64(dev.AR)/2/w)), 1)
}

// chooseGranularity returns the largest granularity at which at least half
// of the tuples (Algorithm 1's majority) live in groups of minRows or more;
// if no granularity qualifies (the table is smaller than the efficient
// access size) it returns the full granularity — the count table is tiny in
// that case and finer grouping costs nothing, which is also how the paper's
// NATION ends up clustered on all 5 bits.
func chooseGranularity(sortedKeys []uint64, fullBits int, minRows int64, n int) int {
	need := int64(n+1) / 2
	for g := fullBits; g >= 1; g-- {
		if TuplesInLargeGroups(sortedKeys, fullBits, g, minRows) >= need {
			return g
		}
	}
	return fullBits
}

// relocateSmallGroups implements the paper's post-load step: groups smaller
// than the efficient size are copied, in count-table order, to a consecutive
// area appended to the table; their count-table entries are re-pointed there
// and flagged. The copy itself is the caller's: the result is the groups'
// extents, whose rows go once more behind the table's baseRows rows (nil:
// nothing to relocate). Relocation is skipped when small groups hold more
// than 20% of the data ("the low percentage of data in very small groups") —
// in that case the chosen granularity already guarantees efficient groups for
// the majority and relocating would double too much of the table.
func (t *BDCCTable) relocateSmallGroups(minRows int64) storage.RowRanges {
	var small storage.RowRanges
	var smallTuples int64
	for _, e := range t.Count {
		if e.Count < minRows {
			small = append(small, storage.RowRange{Start: int(e.Offset), End: int(e.Offset + e.Count)})
			smallTuples += e.Count
		}
	}
	if smallTuples == 0 || float64(smallTuples) > 0.2*float64(t.baseRows) {
		return nil
	}
	t.RelocatedRows = smallTuples
	next := t.baseRows
	for i := range t.Count {
		if t.Count[i].Count < minRows {
			t.Count[i].Offset = next
			t.Count[i].Relocated = true
			next += t.Count[i].Count
		}
	}
	return small
}

// Keys returns, in a new slice, the _bdcc_ keys of the logical rows in table
// order: the root's and the pending keys merged, root keys first on ties.
func (t *BDCCTable) Keys() []uint64 {
	return mergeKeys(t.SortedKeys, t.pending)
}

// Consolidated returns t over data, the same rows held anew (gathered or
// re-encoded by a merge), with Keys as its root and nothing pending.
func (t *BDCCTable) Consolidated(data *storage.Table) *BDCCTable {
	out := *t
	out.Data, out.SortedKeys, out.pending = data, t.Keys(), nil
	return &out
}

// Rows returns the logical row count (excluding relocated copies).
func (t *BDCCTable) Rows() int64 { return t.baseRows }

// UseFor returns the first use of the named dimension, or nil.
func (t *BDCCTable) UseFor(dim string) *DimensionUse {
	for _, u := range t.Uses {
		if u.Dim.Name == dim {
			return u
		}
	}
	return nil
}

// Validate checks the Definition 4 and count-table invariants.
func (t *BDCCTable) Validate() error {
	masks := make([]uint64, len(t.Uses))
	full := make([]uint64, len(t.Uses))
	for i, u := range t.Uses {
		masks[i] = u.Mask
		full[i] = u.FullMask
	}
	if err := ValidateMasks(full, t.FullBits); err != nil {
		return fmt.Errorf("core: table %s full masks: %w", t.Name, err)
	}
	if err := ValidateMasks(masks, t.Bits); err != nil {
		return fmt.Errorf("core: table %s masks: %w", t.Name, err)
	}
	var sum int64
	var prev uint64
	for i, e := range t.Count {
		if i > 0 && e.Key <= prev {
			return fmt.Errorf("core: table %s count table not strictly ordered at %d", t.Name, i)
		}
		prev = e.Key
		sum += e.Count
	}
	if sum != t.baseRows {
		return fmt.Errorf("core: table %s count table sums to %d, want %d", t.Name, sum, t.baseRows)
	}
	return nil
}
