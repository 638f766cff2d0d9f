package engine

import (
	"fmt"
	"slices"

	"bdcc/internal/expr"
	"bdcc/internal/iosim"
	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// FragKind discriminates what a shipped Fragment executes: the sandwich
// group join (FragJoin, the zero value, so the join operators that build
// fragments name no kind) or a partitioned scatter scan
// (FragScan), where units carry row ranges instead of batches and the
// fragment streams pages from the execution site's local copy of the table.
type FragKind uint8

const (
	// FragJoin runs the sandwich group join over the unit's batches.
	FragJoin FragKind = iota
	// FragScan scans the unit's row ranges from site-local table storage.
	FragScan
)

// ScanTable is an execution site's resolution of a scan fragment's table: the
// local stored copy and, when the copy is a shipped partition rather than the
// full table, the mapping from coordinator row space to local row space. A
// nil Map means identity (the site holds the full table at original offsets —
// the coordinator itself, or its failover re-scan).
type ScanTable struct {
	Tab *storage.Table
	Map func(storage.RowRange) (storage.RowRange, error)
}

// ScanSource resolves a table name to the execution site's local storage.
// Each site installs its own: the planner resolves against the coordinator's
// database, a worker daemon against the partitions shipped to its session.
type ScanSource func(table string) (ScanTable, error)

// Fragment is the shipped plan fragment: the frozen per-operator
// configuration a backend needs to execute GroupUnits of one operator. For
// the sandwich group join (FragJoin) that is input schemas, join keys, join
// type, and the residual predicate; for the partitioned scatter scan
// (FragScan) it is the table name, the output schema (whose column names are
// the physical columns to read), and the scan filter carried in Residual. It
// is the unit of plan shipping: a remote backend receives the fragment once
// at query setup (serialized by internal/shard's fragment codec), Prepares
// it, and then executes every unit of that operator against it, so only
// batch data — or, for scans, only row ranges — crosses the wire per group.
//
// The wire fields (Kind through Residual) fully describe the plan and are
// what the wire codec carries. The remaining fields are execution-site
// state: Prepare derives the bound form (key indexes, output schema, bound
// residual; for a scan, the binding over the site's copy of the table, with
// its pushdown), and the optional hooks meter whichever box the fragment
// runs on — the query's trackers locally, the worker daemon's remotely.
type Fragment struct {
	// Kind selects the execution shape; the zero value is the group join.
	Kind FragKind
	// Table is the scanned base table's name (FragScan only); Prepare
	// resolves it through Src at the execution site.
	Table string
	// Probe and Build are the probe-side (left) and build-side (right) input
	// schemas; unit batches must conform to them. A scan fragment uses Probe
	// as its output schema — the column names are the physical columns read
	// from Table — and leaves Build empty.
	Probe, Build expr.Schema
	// ProbeKeys and BuildKeys are the equated join key columns, by name
	// (FragJoin only).
	ProbeKeys, BuildKeys []string
	// Type is the join type (FragJoin only).
	Type JoinType
	// Residual is the non-equi predicate evaluated over probe+build rows for
	// a join, or the scan filter evaluated over Probe rows for a scan; nil
	// for none. Prepare binds it against the matching schema, so a decoded
	// (unbound) tree and the operator's already-bound tree are
	// interchangeable — binding resolves to the same indexes either way.
	Residual expr.Expr

	// Mem, when set, meters the per-group hash table exactly like the serial
	// operator meters its own.
	Mem *MemTracker

	// Src resolves Table at the execution site (FragScan only; required
	// before Prepare). Acct, when set, is charged the scan's modeled device
	// reads — the coordinator's accountant on a local or fallback run, nil on
	// a worker, where the site instead calls ScanStats per unit and reports
	// the stats in the unit's done frame.
	Src  ScanSource
	Acct *iosim.Accountant

	probeIdx, buildIdx []int
	keyed              bool // the join key is a single Int64: hash tables store it in the slot
	out                expr.Schema
	prepared           bool
	scan               *scanBinding
	scanMap            func(storage.RowRange) (storage.RowRange, error)
}

// Prepare derives the fragment's bound execution state: key indexes, the
// output schema, and the bound residual. It must be called once before Run,
// on the box that will run the fragment.
func (f *Fragment) Prepare() error {
	if f.Kind == FragScan {
		return f.prepareScan()
	}
	if len(f.ProbeKeys) != len(f.BuildKeys) {
		return fmt.Errorf("engine: join fragment: %d probe keys vs %d build keys", len(f.ProbeKeys), len(f.BuildKeys))
	}
	var err error
	f.probeIdx, err = keyIndexes(f.Probe, f.ProbeKeys)
	if err != nil {
		return errOp("fragment probe keys", err)
	}
	f.buildIdx, err = keyIndexes(f.Build, f.BuildKeys)
	if err != nil {
		return errOp("fragment build keys", err)
	}
	kinds := make([]vector.Kind, len(f.probeIdx))
	for c, pi := range f.probeIdx {
		kinds[c] = f.Probe[pi].Kind
		if bk := f.Build[f.buildIdx[c]].Kind; bk != kinds[c] {
			return fmt.Errorf("engine: join fragment: key %s is %v, key %s is %v", f.ProbeKeys[c], kinds[c], f.BuildKeys[c], bk)
		}
	}
	f.keyed = keyedShape(kinds)
	switch f.Type {
	case InnerJoin:
		f.out = append(append(expr.Schema{}, f.Probe...), f.Build...)
	case LeftOuterJoin:
		f.out = append(append(expr.Schema{}, f.Probe...), f.Build...)
		f.out = append(f.out, expr.ColMeta{Name: MatchedColName, Kind: vector.Int64})
	case SemiJoin, AntiJoin:
		f.out = append(expr.Schema{}, f.Probe...)
	default:
		return fmt.Errorf("engine: fragment with unknown join type %d", f.Type)
	}
	if f.Residual != nil {
		combined := append(append(expr.Schema{}, f.Probe...), f.Build...)
		if err := expr.Bind(f.Residual, combined); err != nil {
			return errOp("fragment residual", err)
		}
	}
	f.prepared = true
	return nil
}

// prepareScan binds the scan fragment to the execution site's local copy of
// its table, resolved through Src: the Probe schema's names are the columns,
// Residual the filter, and the binding pushes the filter's intervals when
// that copy is compressed. The resolved kinds must match the shipped schema
// — a partition shipped for a different build of the table would silently
// produce garbage otherwise.
func (f *Fragment) prepareScan() error {
	if f.Src == nil {
		return fmt.Errorf("engine: scan fragment for %q has no table source", f.Table)
	}
	st, err := f.Src(f.Table)
	if err != nil {
		return errOp("fragment scan source", err)
	}
	cols := make([]string, len(f.Probe))
	for i, c := range f.Probe {
		cols[i] = c.Name
	}
	b, err := bindScan(st.Tab, cols, f.Residual)
	if err != nil {
		return errOp("fragment scan", err)
	}
	if !slices.Equal(b.schema, f.Probe) {
		return fmt.Errorf("engine: scan fragment of %q reads %v locally, %v in plan", f.Table, b.schema, f.Probe)
	}
	f.scan, f.scanMap, f.out, f.prepared = b, st.Map, f.Probe, true
	return nil
}

// Pushed returns the intervals a prepared scan fragment pushes into its
// readers: its filter's, when the site's copy of the table is compressed.
func (f *Fragment) Pushed() []storage.PushPred { return f.scan.push }

// OutSchema returns the fragment's output schema. Only valid after Prepare.
func (f *Fragment) OutSchema() expr.Schema { return f.out }

// Run executes one group unit: build the group's private hash table from the
// unit's build batches, then probe the unit's probe batches through the same
// join kernel the serial sandwich join drives — same row order, and output
// batches cut where the serial join returns its reused one (at BatchSize and
// at every probe-batch end) — so the merged output is the serial join's
// batch sequence no matter which box ran the group, which is what lets the
// failover layer's delivered-prefix replay splice a half-joined unit. emit
// borrows each batch until it returns: Run refills one batch per call, so a
// worker encodes it in place and a caller that keeps batches clones them.
// Run touches only the unit, per-call state (the kernel evaluates its own
// clone of the bound residual), and the fragment's frozen configuration
// (read-only after Prepare), so concurrent Runs of one fragment are safe —
// on a local pool task, a simulated remote, or a worker daemon's scheduler
// alike.
func (f *Fragment) Run(g *GroupUnit, emit func(*vector.Batch)) error {
	if !f.prepared {
		return fmt.Errorf("engine: fragment run before Prepare")
	}
	if f.Kind == FragScan {
		return f.runScan(g, emit)
	}
	p := f.newProbe(NewBuffer(f.Build), newPartJoinTable(1, f.keyed))
	for _, b := range g.Build {
		p.insertBatch(b)
	}
	tableBytes := p.buf.Bytes() + p.table.Bytes()
	f.Mem.Grow(tableBytes)
	defer f.Mem.Shrink(tableBytes)
	for _, b := range g.Probe {
		p.emitAll(b, emit)
	}
	return nil
}

// ScanStats returns the modeled device-read stats — runs, pages, bytes —
// one scan unit costs against the site's local copy of the table: the same
// measure ChargeIO charges an accountant, computed without performing the
// scan. A worker daemon calls it per unit and reports the stats in the
// unit's done frame, which is how partitioned scans account device reads on
// the box that actually performed them. Only valid on a prepared FragScan.
func (f *Fragment) ScanStats(g *GroupUnit) (runs, pages, bytes int64, err error) {
	if !f.prepared || f.Kind != FragScan {
		return 0, 0, 0, fmt.Errorf("engine: scan stats on an unprepared or non-scan fragment")
	}
	ranges, err := f.localRanges(g.ScanRanges)
	if err != nil {
		return 0, 0, 0, err
	}
	runs, pages, bytes = f.scan.tab.ReadStats(f.scan.idx, ranges)
	return runs, pages, bytes, nil
}

// localRanges maps a scan unit's coordinator row ranges into the site's
// local row space (identity when the site holds the full table).
func (f *Fragment) localRanges(ranges storage.RowRanges) (storage.RowRanges, error) {
	if f.scanMap == nil {
		return ranges, nil
	}
	mapped := make(storage.RowRanges, len(ranges))
	for i, r := range ranges {
		m, err := f.scanMap(r)
		if err != nil {
			return nil, err
		}
		mapped[i] = m
	}
	return mapped, nil
}

// runScan executes one scan unit: map the unit's ranges into the site's
// local row space and drive the binding's cursor over them, lending emit the
// cursor's group-tagged batches — the same loop the single-box Scan runs.
// Range lengths survive the mapping and the reader cuts batches by ranges
// alone, so a worker's scan of its partition and the coordinator's failover
// re-scan of the unit emit the same batches, which is what lets failover's
// delivered-prefix replay splice a half-scanned unit.
func (f *Fragment) runScan(g *GroupUnit, emit func(*vector.Batch)) error {
	ranges, err := f.localRanges(g.ScanRanges)
	if err != nil {
		return err
	}
	kinds := f.out.Kinds()
	// Concurrent Runs each evaluate their own clone of the filter.
	c := f.scan.cursor(ranges, f.Acct, vector.NewBatch(kinds), expr.Clone(f.scan.filter), g.GID, true)
	var out *vector.Batch
	if c.filter != nil {
		out = vector.NewBatch(kinds)
	}
	for b := c.next(out); b != nil; b = c.next(out) {
		emit(b)
	}
	return nil
}
