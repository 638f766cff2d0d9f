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

// Scan reads selected columns of a stored table over a list of groups of row
// ranges, applying an optional tuple-level filter. A plain scan is the
// one-group case: Ranges on its own is one untagged group. A scatter scan
// reads a BDCC table group by group following its scatter plan (Groups) and
// tags every emitted batch with the group identifier ("this scan adds an
// additional group identifier to the stream, that is used during query
// optimization"). Batches never span groups and group identifiers are
// non-decreasing, so downstream sandwich operators can merge-align two
// grouped streams on them; groups that come out empty after filtering are
// absent from the stream.
//
// The planner shrinks the ranges by count-table (BDCC) and MinMax (zonemap)
// pruning before the scan runs, and the scan always re-applies the full
// filter, so pruning only ever has to be conservative. Every form binds the
// scan in one place (bindScan): on a compressed table the binding pushes the
// filter's implied value intervals into its readers, which evaluate them on
// the encoded form (per RLE run, on dictionary codes) before rows
// materialize. A reader decodes only the rows it emits and cuts batches by
// its ranges alone, so the reader each group (morsel, unit) opens unpacks
// that group's rows, and every form — serial, morsel, shipped to a worker's
// partition or re-run by failover — emits the same batches.
type Scan struct {
	Table *storage.Table
	Cols  []string
	// Ranges is the row-range set of a plain scan; nil means the whole table.
	Ranges storage.RowRanges
	// Groups, when non-nil, is the scatter plan, read in order in place of
	// Ranges.
	Groups []core.ScatterGroup
	Filter expr.Expr
	// Rename, when non-nil, renames the output columns (same length as
	// Cols); the filter is still expressed over the original names. Used for
	// self-joined table aliases.
	Rename []string
	// Sched is the planner-injected handle of the query's shared worker
	// pool; with a non-nil handle and a filter to evaluate, the scan splits
	// its groups into morsels, which a feeder submits as tasks. Morsels never
	// cross groups and merge in (group, morsel) order, so the stream is the
	// serial scan's row for row. nil means serial execution.
	Sched *Sched
	// Part, when non-nil, moves a scatter scan to the shared-nothing path:
	// every unit streams from a worker's local partition through the plan's
	// backends, the coordinator only merges the returned group-tagged
	// batches, and no device I/O is charged query-side (the workers report
	// their own reads in the units' done frames). The morsel path does not
	// apply.
	Part *PartScanPlan

	bind    *scanBinding
	schema  expr.Schema         // bind's schema, renamed
	frag    *Fragment           // the shipped fragment (Part only)
	groups  []core.ScatterGroup // Groups, or Ranges as the one untagged group
	ctx     *Context
	gi      int
	cur     scanCursor
	out     *vector.Batch
	morsels []scanMorsel
	io      *scanIO
	ex      *exchange
}

// scanCursor is the one loop that turns a reader's batches into scan output:
// read, tag with the group, filter. Every form of the scan drives one — the
// serial Scan into its reused batch, morsel tasks and Fragment.runScan into
// fresh ones.
type scanCursor struct {
	r       *storage.Reader
	raw     *vector.Batch
	filter  expr.Expr
	gid     uint64
	grouped bool
}

// next returns the next non-empty batch of the cursor's ranges, nil at their
// end (or when the cursor has no reader). Without a filter that is the
// cursor's raw batch, which the following call overwrites; with one, the
// surviving rows are written into out and out is returned.
func (c *scanCursor) next(out *vector.Batch) (*vector.Batch, error) {
	for c.r != nil && c.r.Next(c.raw) {
		c.raw.GroupID, c.raw.Grouped = c.gid, c.grouped
		if c.filter == nil {
			return c.raw, nil
		}
		out.Reset()
		if err := filterInto(c.filter, c.raw, out); err != nil || out.Len() > 0 {
			return out, err
		}
	}
	return nil, nil
}

// scanMorsel is one parallel unit of a morsel scan: a batch-aligned slice of
// one group's row ranges, the group's tag, and the index of the group's read
// among the scan's asynchronous reads.
type scanMorsel struct {
	ranges storage.RowRanges
	gid    uint64
	unit   int
}

// scanIO posts the modeled reads of a morsel scan asynchronously: each group
// is one read, submitted to the accountant one group ahead of the morsel
// tasks that consume it, and its overlap window is closed when the group's
// last morsel completes — the scatter scan "posts the next group's read while
// workers crunch the current group". A nil *scanIO (no accountant) does
// nothing.
type scanIO struct {
	mu      sync.Mutex
	acct    *iosim.Accountant
	units   []scanIOUnit
	posted  int // units submitted so far
	tickets []iosim.Ticket
}

// scanIOUnit is one asynchronous read batch and its outstanding morsels.
type scanIOUnit struct {
	runs, pages, bytes int64
	left               int // unfinished morsels of this unit
}

// newScanIO sizes the per-unit read stats; morsels must visit units in
// non-decreasing order.
func newScanIO(acct *iosim.Accountant, tab *storage.Table, colIdx []int, morsels []scanMorsel, unitRanges []storage.RowRanges) *scanIO {
	if acct == nil {
		return nil
	}
	io := &scanIO{acct: acct, units: make([]scanIOUnit, len(unitRanges)), tickets: make([]iosim.Ticket, len(unitRanges))}
	for i, ranges := range unitRanges {
		runs, pages, bytes := tab.ReadStats(colIdx, ranges)
		io.units[i] = scanIOUnit{runs: runs, pages: pages, bytes: bytes}
	}
	for _, m := range morsels {
		io.units[m.unit].left++
	}
	return io
}

// release runs before a morsel of unit u is submitted: it makes sure u and
// the next unit (the lookahead) have been posted.
func (io *scanIO) release(u int) {
	if io == nil {
		return
	}
	io.mu.Lock()
	for io.posted <= u+1 && io.posted < len(io.units) {
		x := io.units[io.posted]
		io.tickets[io.posted] = io.acct.Submit(x.runs, x.pages, x.bytes)
		io.posted++
	}
	io.mu.Unlock()
}

// finish runs after a morsel of unit u ran: the unit's last morsel closes
// its overlap window.
func (io *scanIO) finish(u int) {
	if io == nil {
		return
	}
	io.mu.Lock()
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

// Schema implements Operator.
func (s *Scan) Schema() expr.Schema { return s.schema }

// scanBinding is a scan bound to one stored table — the coordinator's, or a
// worker's partition — and every scan form reads through one: the column
// indexes, the output schema (the physical column names), the filter bound
// against it, and, when that table is compressed, the filter's intervals.
type scanBinding struct {
	tab    *storage.Table
	idx    []int
	schema expr.Schema
	filter expr.Expr
	push   []storage.PushPred
}

// bindScan binds cols and filter (nil for none) to t.
func bindScan(t *storage.Table, cols []string, filter expr.Expr) (*scanBinding, error) {
	b := &scanBinding{tab: t, idx: make([]int, len(cols)), schema: make(expr.Schema, len(cols)), filter: filter}
	ivs := FilterIntervals(filter, t.Scale)
	for i, name := range cols {
		ci := t.ColumnIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("engine: table %q has no column %q", t.Name, name)
		}
		b.idx[i] = ci
		b.schema[i] = expr.ColMeta{Name: name, Kind: t.Cols[ci].Kind, Scale: t.Cols[ci].Scale}
		if iv, ok := ivs[name]; ok && t.Compressed() {
			b.push = append(b.push, storage.PushPred{Col: i, Iv: iv})
		}
	}
	if filter != nil {
		if err := expr.Bind(filter, b.schema); err != nil {
			return nil, errOp("scan filter", err)
		}
	}
	return b, nil
}

// cursor opens a cursor over ranges, tagging its batches gid, charging acct
// (nil for none) for the ranges' pages. filter is the binding's filter or a
// clone of it: a bound tree is single-goroutine state.
func (b *scanBinding) cursor(ranges storage.RowRanges, acct *iosim.Accountant, raw *vector.Batch, filter expr.Expr, gid uint64, grouped bool) scanCursor {
	r := storage.NewReaderPush(b.tab, b.idx, ranges, acct, b.push)
	return scanCursor{r: r, raw: raw, filter: filter, gid: gid, grouped: grouped}
}

// FilterIntervals converts the value ranges a filter implies for its columns
// (expr.ImpliedRanges) into storage intervals keyed by column name — the one
// form zonemap pruning and reader pushdown both consume — in the stored units
// of the columns' decimal scales (Table.Scale). nil for no filter.
func FilterIntervals(filter expr.Expr, scale func(col string) uint8) map[string]storage.Interval {
	if filter == nil {
		return nil
	}
	out := make(map[string]storage.Interval)
	for col, r := range expr.ImpliedRanges(filter, scale) {
		var iv storage.Interval
		if r.HasLo {
			iv.Lo = storage.Bound{Set: true, I: r.LoI, S: r.LoS}
		}
		if r.HasHi {
			iv.Hi = storage.Bound{Set: true, I: r.HiI, S: r.HiS}
		}
		out[col] = iv
	}
	return out
}

// Open implements Operator. On the serial path, device I/O is charged once
// for the normalized union of all ranges: the scatter scan computes its
// offsets from T_COUNT up front, issues page reads at most once per query
// (buffer-pool semantics), and run boundaries follow the coalesced page runs
// of the union. On the morsel path the charge moves to asynchronous
// submissions, one read per group posted a group ahead of the compute, so
// runs no longer coalesce across group boundaries — the scattered per-group
// requests the paper's storage argument models.
func (s *Scan) Open(ctx *Context) error {
	b, err := bindScan(s.Table, s.Cols, s.Filter)
	if err != nil {
		return err
	}
	s.bind, s.schema, s.ctx = b, b.schema, ctx
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
	if s.Part != nil {
		// Shared-nothing: the units' pages are read on the workers, charged
		// there and reported back per unit. The fragment over this table is
		// what the failover re-scan of a down worker's units runs.
		s.frag = &Fragment{Kind: FragScan, Table: s.Table.Name, Probe: b.schema, Residual: s.Filter,
			Acct: ctx.Acct, scan: b, out: b.schema, prepared: true}
		return nil
	}
	s.groups = s.Groups
	if s.Groups == nil {
		ranges := s.Ranges
		if ranges == nil {
			ranges = storage.FullRange(s.Table.Rows())
		}
		s.groups = []core.ScatterGroup{{Ranges: ranges}}
	}
	if s.Sched != nil && s.Filter != nil {
		var unitRanges []storage.RowRanges
		for _, g := range s.groups {
			ms := g.Ranges.Morsels(morselRows, vector.BatchSize)
			if len(ms) == 0 {
				continue
			}
			for _, m := range ms {
				s.morsels = append(s.morsels, scanMorsel{ranges: m, gid: g.GroupID, unit: len(unitRanges)})
			}
			unitRanges = append(unitRanges, g.Ranges)
		}
		if len(s.morsels) > 1 {
			s.io = newScanIO(ctx.Acct, s.Table, b.idx, s.morsels, unitRanges)
			return nil
		}
		s.morsels = nil
	}
	var union storage.RowRanges
	for _, g := range s.groups {
		union = append(union, g.Ranges...)
	}
	s.Table.ChargeIO(ctx.Acct, b.idx, union.Normalize())
	s.cur.raw = vector.NewBatch(b.schema.Kinds())
	if s.Filter != nil {
		s.out = vector.NewBatch(b.schema.Kinds())
	}
	s.gi = -1
	return nil
}

// Next implements Operator.
func (s *Scan) Next() (*vector.Batch, error) {
	if s.ex == nil {
		switch {
		case s.Part != nil:
			s.ex = s.startPartScan()
		case s.morsels != nil:
			s.ex = s.startMorselScan()
		}
	}
	if s.ex != nil {
		return s.ex.nextBatch()
	}
	for {
		if b, err := s.cur.next(s.out); b != nil || err != nil {
			return b, err
		}
		if s.gi++; s.gi >= len(s.groups) {
			return nil, nil
		}
		// I/O was charged for the union at Open; per-group readers do not
		// charge again.
		g := s.groups[s.gi]
		s.cur = s.bind.cursor(g.Ranges, nil, s.cur.raw, s.Filter, g.GroupID, s.Groups != nil)
	}
}

// startMorselScan starts the morsel pipeline: a feeder claims the morsels in
// order, posting each group's read ahead of its first morsel, and submits
// one task per morsel. Each pool worker owns a raw batch and its own clone
// of the filter (a bound tree is single-goroutine state); its output batch
// is reused until it carries rows, then handed to the consumer.
func (s *Scan) startMorselScan() *exchange {
	workers := s.Sched.Workers()
	kinds := s.schema.Kinds()
	raws := make([]*vector.Batch, workers)
	filters := make([]expr.Expr, workers)
	outs := make([]*vector.Batch, workers)
	for w := range raws {
		raws[w] = vector.NewBatch(kinds)
		filters[w] = expr.Clone(s.Filter)
	}
	grouped := s.Groups != nil
	ex := newExchange(s.ctx.Mem, s.Sched, 2*workers)
	ex.feed(len(s.morsels), func(job int) {
		m := s.morsels[job]
		s.io.release(m.unit)
		ex.submitJob(job, func(w int, emit func(*vector.Batch)) error {
			var err error
			if !ex.isClosed() {
				c := s.bind.cursor(m.ranges, nil, raws[w], filters[w], m.gid, grouped)
				for {
					if outs[w] == nil {
						outs[w] = vector.NewBatch(kinds)
					}
					var b *vector.Batch
					if b, err = c.next(outs[w]); b == nil || err != nil {
						break
					}
					emit(b)
					outs[w] = nil
				}
			}
			s.io.finish(m.unit)
			return err
		})
	})
	return ex
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
// partitioned backend set: the placement-pinned units and the backends
// index-aligned with the units' Slot fields.
type PartScanPlan struct {
	Units    []PartScanUnit
	Backends []Backend
}

// startPartScan starts the shared-nothing pipeline: a feeder ships the
// plan's units to their pinned backends through a merge-only exchange sized
// by the set's total worker parallelism, and nextBatch returns the merged
// stream in unit order — (group, run) order, hence byte-identical to the
// single-box scan.
func (s *Scan) startPartScan() *exchange {
	p := s.Part
	look := 0
	for _, b := range p.Backends {
		look += b.Workers()
	}
	ex := newExchange(s.ctx.Mem, nil, look+1)
	ex.feed(len(p.Units), func(job int) {
		u := &p.Units[job]
		ex.beginJob()
		p.Backends[u.Slot].RunGroup(
			&GroupUnit{GID: u.GID, ScanRanges: u.Ranges}, s.frag,
			func(b *vector.Batch) { ex.post(job, b) },
			func(err error) { ex.finish(job, err) })
	})
	return ex
}

// Close implements Operator.
func (s *Scan) Close() error {
	if s.ex != nil {
		s.ex.close()
		s.ex = nil
	}
	s.io.close()
	return nil
}

// filterInto appends the rows of in that pass pred to out: the predicate
// narrows a selection and the survivors are gathered column-at-a-time. It
// fails where the predicate's arithmetic overflowed (expr.Err).
func filterInto(pred expr.Expr, in *vector.Batch, out *vector.Batch) error {
	sel := expr.Select(pred, in, nil)
	if err := expr.Err(pred); err != nil {
		return err
	}
	if len(sel) == in.Len() {
		out.AppendBatch(in)
	} else {
		out.AppendSelected(in, sel)
	}
	out.GroupID = in.GroupID
	out.Grouped = in.Grouped
	return nil
}
