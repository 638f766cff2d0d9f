// Partitioning: deterministic placement of BDCC count-table cells onto
// workers, the basis of the shared-nothing scan path (docs/PARTITIONING.md).
//
// The partition key is the table's own _bdcc_ z-order key: the count table
// is already ordered by it, so a partitioning is just a division of the
// count-entry sequence into Workers contiguous blocks, balanced by
// cumulative row count. Contiguity in *key order* keeps each scatter
// group's cells on at most a few adjacent workers (a group at scan
// granularity is a contiguous key run at count granularity), so a
// partitioned scatter scan splits every group into at most Workers
// consecutive runs and the coordinator's order-preserving exchange can
// merge them without re-sorting.
//
// The assignment is a pure function of (count table, Workers): both sides
// of the wire, and the failover re-scan on the coordinator, derive the same
// placement independently. Row offsets are NOT contiguous per worker —
// relocated cells live in the relocation area at the end of the table — so
// range→worker lookup goes through an offset-interval index, never through
// arithmetic on row positions.

package shard

import (
	"fmt"
	"sort"

	"bdcc/internal/core"
	"bdcc/internal/storage"
)

// Partitioning assigns the count entries (z-order cells) of one BDCC table
// to Workers workers. Worker w owns the contiguous key-order block of
// entries [bounds[w], bounds[w+1]); blocks are balanced by cumulative row
// count with the deterministic greedy rule in NewPartitioning.
type Partitioning struct {
	// Table is the partitioned table's name (the wire manifest key).
	Table string
	// Workers is the number of partitions.
	Workers int

	bounds []int               // len Workers+1; entry-index block boundaries in key order
	rows   []int64             // rows owned per worker
	segs   []storage.RowRanges // per worker: owned entry intervals in key (ship) order
	ivals  []entryIval         // offset-sorted index for range→worker lookup
}

// entryIval is one count entry's row interval [Start, End) tagged with its
// owning worker, indexed by Start for range→worker lookup.
type entryIval struct {
	Start, End int
	Worker     int
}

// PartRun is a maximal run of consecutive scatter-group ranges owned by one
// worker. SplitGroup returns runs in original range order, so concatenating
// the runs' rows reproduces the unpartitioned scan order exactly.
type PartRun struct {
	Worker int
	Ranges storage.RowRanges
}

// NewPartitioning divides the count entries into Workers contiguous
// key-order blocks balanced by row count: walking the entries in key order
// and accumulating rows, a block closes after the entry that brings the
// cumulative count to at least the next 1/Workers quota of the total. The
// rule is integer-exact and entry-order stable, so the same count table and
// worker count always produce the same placement; a single cell larger than
// a quota simply spills into the next block (later workers may own empty
// blocks, which the balance tests tolerate by bounding spread, not
// demanding equality).
func NewPartitioning(table string, entries []core.CountEntry, workers int) *Partitioning {
	workers = max(workers, 1)
	p := &Partitioning{
		Table:   table,
		Workers: workers,
		bounds:  make([]int, workers+1),
		rows:    make([]int64, workers),
		segs:    make([]storage.RowRanges, workers),
	}
	var total int64
	for _, e := range entries {
		total += e.Count
	}
	w := 0
	var cum int64
	for i, e := range entries {
		cum += e.Count
		p.rows[w] += e.Count
		iv := entryIval{
			Start:  int(e.Offset),
			End:    int(e.Offset + e.Count),
			Worker: w,
		}
		p.ivals = append(p.ivals, iv)
		p.segs[w] = append(p.segs[w], storage.RowRange{Start: iv.Start, End: iv.End})
		for w < workers-1 && cum*int64(workers) >= int64(w+1)*total {
			p.bounds[w+1] = i + 1
			w++
		}
	}
	for ; w < workers; w++ {
		p.bounds[w+1] = len(entries)
	}
	sort.Slice(p.ivals, func(a, b int) bool { return p.ivals[a].Start < p.ivals[b].Start })
	return p
}

// Segments returns worker w's owned row ranges — one per count entry, in
// key order, deliberately unnormalized. The per-entry structure is the
// shipped manifest: the worker's local table concatenates exactly these
// segments, so a 1:1 coordinator→local range mapping exists and the
// failover re-scan on the coordinator replays the identical batch
// sequence.
func (p *Partitioning) Segments(w int) storage.RowRanges {
	return p.segs[w]
}

// Rows returns the number of rows owned by worker w.
func (p *Partitioning) Rows(w int) int64 { return p.rows[w] }

// TotalRows returns the table's total row count across all workers.
func (p *Partitioning) TotalRows() int64 {
	var t int64
	for _, r := range p.rows {
		t += r
	}
	return t
}

// SplitGroup splits one scatter group's pruned ranges into maximal
// consecutive runs per owning worker, preserving range order: concatenating
// the runs' rows reproduces the group's unpartitioned row order exactly,
// which is all the order-preserving exchange needs. A range is cut at every
// count-entry boundary it crosses — zonemap pruning normalizes a group's
// ranges, merging entry intervals that are adjacent in row-offset order —
// and each piece goes to the entry's owner; a row outside every entry is a
// planner invariant violation and errs. Cutting at entry boundaries (even
// between same-worker entries) also keeps every shipped piece inside one
// manifest segment, which RangeMap requires.
func (p *Partitioning) SplitGroup(ranges storage.RowRanges) ([]PartRun, error) {
	var runs []PartRun
	add := func(w int, r storage.RowRange) {
		if n := len(runs); n > 0 && runs[n-1].Worker == w {
			runs[n-1].Ranges = append(runs[n-1].Ranges, r)
			return
		}
		runs = append(runs, PartRun{Worker: w, Ranges: storage.RowRanges{r}})
	}
	for _, r := range ranges {
		for r.Len() > 0 {
			i := sort.Search(len(p.ivals), func(i int) bool { return p.ivals[i].Start > r.Start }) - 1
			if i < 0 || r.Start >= p.ivals[i].End {
				return nil, fmt.Errorf("shard: row %d of %s lies in no count entry", r.Start, p.Table)
			}
			iv := p.ivals[i]
			end := r.End
			end = min(end, iv.End)
			add(iv.Worker, storage.RowRange{Start: r.Start, End: end})
			r.Start = end
		}
	}
	return runs, nil
}

// RangeMap maps coordinator row ranges to a shipped partition's local row
// space. The local table concatenates the manifest segments in ship order,
// so segment k's local start is the prefix sum of the preceding segments'
// lengths; a mapped range must lie inside one segment and keeps its
// length, which is what makes the worker-side reader's batch boundaries —
// ranges plus BatchSize steps — identical to the coordinator's.
type RangeMap struct {
	segs []mapSeg // sorted by coordinator Start
}

type mapSeg struct {
	start, end int // coordinator interval [start, end)
	local      int // local offset of start
}

// NewRangeMap builds the coordinator→local mapping for a partition shipped
// as the given segments in ship (key) order.
func NewRangeMap(segments storage.RowRanges) *RangeMap {
	m := &RangeMap{segs: make([]mapSeg, 0, len(segments))}
	local := 0
	for _, s := range segments {
		m.segs = append(m.segs, mapSeg{start: s.Start, end: s.End, local: local})
		local += s.Len()
	}
	sort.Slice(m.segs, func(a, b int) bool { return m.segs[a].start < m.segs[b].start })
	return m
}

// Map translates one coordinator range into the local row space.
func (m *RangeMap) Map(r storage.RowRange) (storage.RowRange, error) {
	i := sort.Search(len(m.segs), func(i int) bool { return m.segs[i].start > r.Start }) - 1
	if i < 0 || r.End > m.segs[i].end {
		return storage.RowRange{}, fmt.Errorf("shard: range [%d,%d) outside shipped partition", r.Start, r.End)
	}
	off := m.segs[i].local - m.segs[i].start
	return storage.RowRange{Start: r.Start + off, End: r.End + off}, nil
}

// Rows returns the local table's row count implied by the manifest.
func (m *RangeMap) Rows() int {
	n := 0
	for _, s := range m.segs {
		n += s.end - s.start
	}
	return n
}
