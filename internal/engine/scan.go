package engine

import (
	"fmt"
	"sync"

	"bdcc/internal/core"
	"bdcc/internal/expr"
	"bdcc/internal/iosim"
	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// TableScan reads selected columns of a stored table over a set of row
// ranges (nil means the full table), applying an optional tuple-level
// filter. The planner is responsible for shrinking Ranges via count-table
// (BDCC) and MinMax (zonemap) pruning before the scan runs; the scan always
// re-applies the full predicate, so pruning only ever has to be
// conservative.
type TableScan struct {
	Table  *storage.Table
	Cols   []string
	Ranges storage.RowRanges
	Filter expr.Expr
	// Push holds predicate intervals the planner pushes into the reader:
	// on compressed columns they evaluate against the encoded form (per RLE
	// run, on dictionary codes) before rows materialize. Pruning is
	// conservative and the scan still re-applies Filter, so the output is
	// unchanged.
	Push []storage.PushPred
	// Rename, when non-nil, renames the output columns (same length as
	// Cols); the filter is still expressed over the original names. Used for
	// self-joined table aliases.
	Rename []string
	// Sched is the planner-injected handle of the query's shared worker
	// pool; with a non-nil handle and a filter to evaluate, the scan splits
	// its ranges into morsels and submits them as tasks. The morsel merge is
	// order-preserving, so the produced stream is byte-identical to the
	// serial scan's. nil means serial execution.
	Sched *Sched

	schema expr.Schema
	colIdx []int
	ctx    *Context
	reader *storage.Reader
	out    *vector.Batch
	raw    *vector.Batch

	morsels []scanMorsel
	io      *scanIO
	ex      *exchange
}

// scanMorsel is one parallel unit of a morsel scan: a batch-aligned slice
// of row ranges, carrying the group tag of grouped scans.
type scanMorsel struct {
	ranges  storage.RowRanges
	gid     uint64
	grouped bool
}

// scanIO posts the modeled reads of a morsel scan asynchronously: each
// overlap unit (the whole range set of a plain scan, one scatter group of a
// grouped scan) is submitted to the accountant one unit ahead of the morsel
// tasks that consume it, and its overlap window is closed when the unit's
// last morsel completes — the grouped scan "posts the next group's read
// while workers crunch the current group". A nil *scanIO (no accountant)
// disables the hooks.
type scanIO struct {
	mu      sync.Mutex
	acct    *iosim.Accountant
	units   []scanIOUnit
	byJob   []int // morsel index -> unit index
	posted  int   // units submitted so far
	tickets []iosim.Ticket
}

// scanIOUnit is one asynchronous read batch and its outstanding morsels.
type scanIOUnit struct {
	runs, pages, bytes int64
	left               int // unfinished morsels of this unit
}

// newScanIO sizes the per-unit read stats from the morsel list. unitOf maps
// a morsel to its overlap unit index; units must be visited in
// non-decreasing order by the morsel sequence.
func newScanIO(acct *iosim.Accountant, tab *storage.Table, colIdx []int, morsels []scanMorsel, unitOf []int, unitRanges []storage.RowRanges) *scanIO {
	if acct == nil {
		return nil
	}
	io := &scanIO{acct: acct, byJob: unitOf}
	io.units = make([]scanIOUnit, len(unitRanges))
	io.tickets = make([]iosim.Ticket, len(unitRanges))
	for i, ranges := range unitRanges {
		runs, pages, bytes := tab.ReadStats(colIdx, ranges)
		io.units[i] = scanIOUnit{runs: runs, pages: pages, bytes: bytes}
	}
	for _, u := range unitOf {
		io.units[u].left++
	}
	return io
}

// release is the exchange onRelease hook: before morsel job runs, make sure
// its unit and the next one (the lookahead) have been submitted.
func (io *scanIO) release(job int) {
	io.mu.Lock()
	want := io.byJob[job] + 1
	for io.posted <= want && io.posted < len(io.units) {
		u := io.units[io.posted]
		io.tickets[io.posted] = io.acct.Submit(u.runs, u.pages, u.bytes)
		io.posted++
	}
	io.mu.Unlock()
}

// finish is the exchange onFinish hook: when a unit's last morsel completes,
// its overlap window closes.
func (io *scanIO) finish(job int) {
	io.mu.Lock()
	u := io.byJob[job]
	io.units[u].left--
	if io.units[u].left == 0 && u < io.posted {
		io.acct.Wait(io.tickets[u])
	}
	io.mu.Unlock()
}

// close waits any still-open windows (early scan shutdown); Wait is
// idempotent, so units already finished are unaffected.
func (io *scanIO) close() {
	if io == nil {
		return
	}
	io.mu.Lock()
	for i := 0; i < io.posted; i++ {
		io.acct.Wait(io.tickets[i])
	}
	io.mu.Unlock()
}

// startMorselScan fans readers over the morsel list via the shared
// scheduler: each pool worker owns a raw batch and its own clone of the
// filter (a bound tree is single-goroutine state), emitted batches are fresh
// (consumer-owned), tagged per morsel, and merged in morsel order. io, when
// non-nil, drives the asynchronous read model.
func startMorselScan(ctx *Context, sched *Sched, tab *storage.Table, colIdx []int, kinds []vector.Kind, filter expr.Expr, push []storage.PushPred, morsels []scanMorsel, io *scanIO) *exchange {
	workers := sched.Workers()
	raws := make([]*vector.Batch, workers)
	filters := make([]expr.Expr, workers)
	for w := range raws {
		raws[w] = vector.NewBatch(kinds)
		filters[w] = expr.Clone(filter)
	}
	ex := newExchange(ctx.Mem, sched, 2*workers)
	if io != nil {
		ex.onRelease = io.release
		ex.onFinish = io.finish
	}
	outs := make([]*vector.Batch, workers) // reused until non-empty, then owned by the consumer
	ex.runMorsels(len(morsels), func(job, w int, emit func(*vector.Batch)) error {
		m := morsels[job]
		r := storage.NewReaderPush(tab, colIdx, m.ranges, nil, push)
		for r.Next(raws[w]) {
			if outs[w] == nil {
				outs[w] = vector.NewBatch(kinds)
			}
			out := outs[w]
			filterInto(filters[w], raws[w], out)
			if out.Len() > 0 {
				out.GroupID = m.gid
				out.Grouped = m.grouped
				emit(out)
				outs[w] = nil
			}
		}
		return nil
	})
	return ex
}

// Schema implements Operator.
func (s *TableScan) Schema() expr.Schema { return s.schema }

// resolveScanSchema resolves column names against the stored table.
func resolveScanSchema(t *storage.Table, cols []string) (expr.Schema, []int, error) {
	schema := make(expr.Schema, len(cols))
	idx := make([]int, len(cols))
	for i, name := range cols {
		ci := t.ColumnIndex(name)
		if ci < 0 {
			return nil, nil, fmt.Errorf("engine: table %q has no column %q", t.Name, name)
		}
		idx[i] = ci
		schema[i] = expr.ColMeta{Name: name, Kind: t.Cols[ci].Kind}
	}
	return schema, idx, nil
}

// Open implements Operator.
func (s *TableScan) Open(ctx *Context) error {
	schema, idx, err := resolveScanSchema(s.Table, s.Cols)
	if err != nil {
		return err
	}
	s.schema, s.colIdx = schema, idx
	if s.Filter != nil {
		if err := expr.Bind(s.Filter, schema); err != nil {
			return errOp("scan filter", err)
		}
		s.out = vector.NewBatch(schema.Kinds())
	}
	if s.Rename != nil {
		if len(s.Rename) != len(s.schema) {
			return fmt.Errorf("engine: scan of %q: %d renames for %d columns", s.Table.Name, len(s.Rename), len(s.schema))
		}
		renamed := append(expr.Schema{}, s.schema...)
		for i, n := range s.Rename {
			renamed[i].Name = n
		}
		s.schema = renamed
	}
	s.ctx = ctx
	if s.Sched != nil && s.Filter != nil {
		ranges := s.Ranges
		if ranges == nil {
			ranges = storage.FullRange(s.Table.Rows())
		}
		if morsels := ranges.Morsels(morselRows, vector.BatchSize); len(morsels) > 1 {
			for _, m := range morsels {
				s.morsels = append(s.morsels, scanMorsel{ranges: m})
			}
			// The whole range set is one overlap unit: its read is posted
			// asynchronously when the scan starts, and the per-morsel readers
			// run uncharged. Run coalescing matches the serial reader's.
			unitOf := make([]int, len(s.morsels))
			s.io = newScanIO(ctx.Acct, s.Table, idx, s.morsels, unitOf, []storage.RowRanges{ranges})
			return nil
		}
	}
	s.reader = storage.NewReaderPush(s.Table, idx, s.Ranges, ctx.Acct, s.Push)
	s.raw = vector.NewBatch(schema.Kinds())
	return nil
}

// Next implements Operator.
func (s *TableScan) Next() (*vector.Batch, error) {
	if s.morsels != nil {
		if s.ex == nil {
			s.ex = startMorselScan(s.ctx, s.Sched, s.Table, s.colIdx, s.schema.Kinds(), s.Filter, s.Push, s.morsels, s.io)
		}
		return s.ex.nextBatch()
	}
	for {
		if !s.reader.Next(s.raw) {
			return nil, nil
		}
		if s.Filter == nil {
			return s.raw, nil
		}
		s.out.Reset()
		filterInto(s.Filter, s.raw, s.out)
		if s.out.Len() > 0 {
			return s.out, nil
		}
	}
}

// Close implements Operator.
func (s *TableScan) Close() error {
	if s.ex != nil {
		s.ex.close()
		s.ex = nil
	}
	s.io.close()
	return nil
}

// filterInto appends the rows of in that pass pred to out: the predicate
// narrows a selection and the survivors are gathered column-at-a-time.
func filterInto(pred expr.Expr, in *vector.Batch, out *vector.Batch) {
	if sel := expr.Select(pred, in, nil); len(sel) == in.Len() {
		out.AppendBatch(in)
	} else {
		out.AppendSelected(in, sel)
	}
	out.GroupID = in.GroupID
	out.Grouped = in.Grouped
}

// PartScanUnit is one run of a partitioned scatter scan: the contiguous
// slice of one group's row ranges owned by one worker. Units are listed in
// (group, run) order, the order the exchange merges them back in, so the
// partitioned stream is byte-identical to the single-box scan's.
type PartScanUnit struct {
	GID    uint64
	Slot   int
	Ranges storage.RowRanges
}

// PartScanPlan is the planner's lowering of a scatter scan onto a
// partitioned backend set: the scan fragment (prepared query-side against
// the coordinator's own table, which is what the failover re-scan runs),
// the placement-pinned units, and the backends index-aligned with the
// units' Slot fields.
type PartScanPlan struct {
	Frag     *Fragment
	Units    []PartScanUnit
	Backends []Backend
}

// GroupedScan is the BDCC scatter scan: it reads a BDCC table group by group
// following a scatter plan, tagging every emitted batch with its group
// identifier ("this scan adds an additional group identifier to the stream,
// that is used during query optimization"). Batches never span groups and
// group identifiers are non-decreasing, so downstream sandwich operators can
// merge-align two grouped streams on their identifiers; groups that come out
// empty after filtering are simply absent from the stream.
type GroupedScan struct {
	BDCC   *core.BDCCTable
	Cols   []string
	Groups []core.ScatterGroup
	Filter expr.Expr
	// Push pushes predicate intervals into the readers (see TableScan.Push).
	Push []storage.PushPred
	// Rename optionally renames output columns (see TableScan.Rename).
	Rename []string
	// Sched is the planner-injected worker-pool handle (see
	// TableScan.Sched). Morsels never cross group boundaries and merge in
	// (group, morsel) order, so the grouped stream keeps group-pure batches
	// with non-decreasing identifiers — downstream sandwich operators are
	// unaffected. Each group's modeled read is posted asynchronously one
	// group ahead of its morsel tasks, overlapping the scattered reads with
	// compute (iosim Submit/Wait).
	Sched *Sched
	// Part, when non-nil, moves the scan to the shared-nothing path: every
	// unit streams from a worker's local partition through the plan's
	// backends, the coordinator only merges the returned group-tagged
	// batches, and no device I/O is charged query-side (the workers report
	// their own reads in the units' done frames). Filter pushdown and the
	// morsel path do not apply here — the fragment re-applies the full
	// filter at the execution site.
	Part *PartScanPlan

	schema expr.Schema
	colIdx []int
	ctx    *Context
	gi     int
	reader *storage.Reader
	raw    *vector.Batch
	out    *vector.Batch

	morsels []scanMorsel
	io      *scanIO
	ex      *exchange
}

// Schema implements Operator.
func (s *GroupedScan) Schema() expr.Schema { return s.schema }

// Open implements Operator. On the serial path, device I/O is charged once
// for the union of all group extents: the scatter scan computes its offsets
// from T_COUNT up front, issues page reads at most once per query
// (buffer-pool semantics), and run boundaries follow the coalesced page runs
// of the union. On the parallel path the charge moves to per-group
// asynchronous submissions (one read batch per scatter group, posted a group
// ahead of the compute), so runs no longer coalesce across group boundaries
// — the scattered per-group requests the paper's storage argument models.
func (s *GroupedScan) Open(ctx *Context) error {
	schema, idx, err := resolveScanSchema(s.BDCC.Data, s.Cols)
	if err != nil {
		return err
	}
	s.schema, s.colIdx = schema, idx
	s.ctx = ctx
	if s.Filter != nil {
		if err := expr.Bind(s.Filter, schema); err != nil {
			return errOp("grouped scan filter", err)
		}
	}
	if s.Rename != nil {
		if len(s.Rename) != len(s.schema) {
			return fmt.Errorf("engine: grouped scan of %q: %d renames for %d columns", s.BDCC.Name, len(s.Rename), len(s.schema))
		}
		renamed := append(expr.Schema{}, s.schema...)
		for i, n := range s.Rename {
			renamed[i].Name = n
		}
		s.schema = renamed
	}
	s.raw = vector.NewBatch(schema.Kinds())
	s.out = vector.NewBatch(schema.Kinds())
	s.gi = -1
	if s.Part != nil {
		// Shared-nothing: the units' pages are read on the workers, charged
		// there and reported back per unit, so the coordinator charges
		// nothing here.
		return nil
	}
	if s.Sched != nil && s.Filter != nil {
		var unitOf []int
		var unitRanges []storage.RowRanges
		for _, g := range s.Groups {
			ms := g.Ranges.Morsels(morselRows, vector.BatchSize)
			if len(ms) == 0 {
				continue
			}
			for _, m := range ms {
				s.morsels = append(s.morsels, scanMorsel{ranges: m, gid: g.GroupID, grouped: true})
				unitOf = append(unitOf, len(unitRanges))
			}
			unitRanges = append(unitRanges, g.Ranges)
		}
		if len(s.morsels) > 1 {
			s.io = newScanIO(ctx.Acct, s.BDCC.Data, idx, s.morsels, unitOf, unitRanges)
			return nil
		}
		s.morsels = nil
	}
	var union storage.RowRanges
	for _, g := range s.Groups {
		union = append(union, g.Ranges...)
	}
	s.BDCC.Data.ChargeIO(ctx.Acct, idx, union.Normalize())
	return nil
}

// startPartScan starts the shared-nothing pipeline: a feeder streams the
// plan's units to their pinned backends through a merge-only exchange sized
// by the set's total worker parallelism, and nextBatch returns the merged
// stream in unit order — (group, run) order, hence byte-identical to the
// single-box scan.
func (s *GroupedScan) startPartScan() *exchange {
	p := s.Part
	look := 0
	for _, b := range p.Backends {
		look += b.Workers()
	}
	ex := newExchange(s.ctx.Mem, nil, look+1)
	ex.seal(len(p.Units))
	ex.wg.Add(1)
	go func() {
		defer ex.wg.Done()
		for i := range p.Units {
			job, ok := ex.claim()
			if !ok {
				return
			}
			u := &p.Units[i]
			ex.beginJob()
			p.Backends[u.Slot].RunGroup(
				&GroupUnit{GID: u.GID, ScanRanges: u.Ranges}, p.Frag,
				func(b *vector.Batch) { ex.post(job, b) },
				func(err error) { ex.finish(job, err) })
		}
	}()
	return ex
}

// Next implements Operator.
func (s *GroupedScan) Next() (*vector.Batch, error) {
	if s.Part != nil {
		if s.ex == nil {
			s.ex = s.startPartScan()
		}
		return s.ex.nextBatch()
	}
	if s.morsels != nil {
		if s.ex == nil {
			s.ex = startMorselScan(s.ctx, s.Sched, s.BDCC.Data, s.colIdx, s.schema.Kinds(), s.Filter, s.Push, s.morsels, s.io)
		}
		return s.ex.nextBatch()
	}
	for {
		if s.reader == nil {
			s.gi++
			if s.gi >= len(s.Groups) {
				return nil, nil
			}
			// I/O was charged for the union at Open; per-group readers do
			// not double-charge.
			s.reader = storage.NewReaderPush(s.BDCC.Data, s.colIdx, s.Groups[s.gi].Ranges, nil, s.Push)
		}
		g := s.Groups[s.gi]
		if !s.reader.Next(s.raw) {
			s.reader = nil
			continue
		}
		s.raw.GroupID = g.GroupID
		s.raw.Grouped = true
		if s.Filter == nil {
			return s.raw, nil
		}
		s.out.Reset()
		filterInto(s.Filter, s.raw, s.out)
		if s.out.Len() > 0 {
			return s.out, nil
		}
	}
}

// Close implements Operator.
func (s *GroupedScan) Close() error {
	if s.ex != nil {
		s.ex.close()
		s.ex = nil
	}
	s.io.close()
	return nil
}
