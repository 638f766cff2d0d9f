package plan

import (
	"fmt"
	"slices"

	"bdcc/internal/core"
	"bdcc/internal/engine"
	"bdcc/internal/expr"
	"bdcc/internal/shard"
	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// Planner lowers logical plans to physical operator trees for one physical
// database. A planner is single-use per query execution (it owns the
// execution context used for pre-executed subtrees).
type Planner struct {
	DB  *DB
	Ctx *engine.Context
	// Log collects EXPLAIN-style decisions.
	Log []string

	scanChoice map[*Scan]*useChoice
	alignment  map[*Join]*sharedPair
	joinPairs  map[*Join][]sharedPair
	// set is the planner-owned backend set behind Ctx.Backends, kept for the
	// partitioned-scan path (PartitionTable and the per-worker scan
	// accountants live on the set, not on the engine-facing Backend slice).
	// nil when single-box or when the context borrowed a shared set.
	set *shard.Set

	// memo/sites support plan caching (cache.go): an attached incomplete
	// memo records this planner's decisions, a completed one replays them.
	memo  *Memo
	sites *siteIndex
	// audit and yields are set by tests of canPrune only (AuditCanPrune).
	audit  func(why string) string
	yields func(bt *core.BDCCTable, u *core.DimensionUse, bins core.BinSet)
}

// AuditCanPrune is the test entry of canPrune, not a planning option (no
// front end calls it): audit is handed canPrune's verdict at every site ("",
// or why it declines) and returns the one to act on, and yields sees every
// bin set a pre-executed site arrives at, whole-domain ones included.
func (p *Planner) AuditCanPrune(audit func(why string) string, yields func(bt *core.BDCCTable, u *core.DimensionUse, bins core.BinSet)) {
	p.audit, p.yields = audit, yields
}

const (
	// propagationThreshold bounds the base-table size of build subtrees the
	// BDCC planner pre-executes for key-set propagation.
	propagationThreshold = 300_000
	// preExecRowCap bounds the result size usable for key-set restrictions.
	preExecRowCap = 65_536
)

// NewPlanner returns a planner for one query execution, over the version db
// serves now (Snapshot).
func NewPlanner(db *DB, ctx *engine.Context) *Planner {
	return &Planner{
		DB:         db.Snapshot(),
		Ctx:        ctx,
		scanChoice: make(map[*Scan]*useChoice),
		alignment:  make(map[*Join]*sharedPair),
		joinPairs:  make(map[*Join][]sharedPair),
	}
}

func (p *Planner) logf(format string, args ...any) {
	p.Log = append(p.Log, fmt.Sprintf(format, args...))
}

// streamInfo describes what the planner knows about a lowered subtree's
// output stream.
type streamInfo struct {
	// base is the BDCC table at the bottom of the probe pipeline (nil when
	// the pipeline is not BDCC-clustered).
	base *core.BDCCTable
	// groupUse/groupBits describe the stream's group tags (nil/0 when the
	// stream is ungrouped).
	groupUse  *core.DimensionUse
	groupBits int
	// order is the column prefix the stream is sorted on.
	order []string
	// restr are the stream's known dimension restrictions, anchored at base.
	restr restrictions
}

// UseMemo attaches a plan memo (see cache.go). An incomplete memo records
// this planner's decisions during Plan; a completed one replays them onto
// the fresh tree, skipping preanalysis and pre-execution subqueries. The
// caller must present the same logical plan shape, database, and
// plan-shaping knobs the memo was recorded against.
func (p *Planner) UseMemo(m *Memo) { p.memo = m }

// Plan lowers a logical plan into an executable operator tree.
func (p *Planner) Plan(n Node) (engine.Operator, error) {
	if p.memo != nil {
		p.sites = indexSites(n)
	}
	if p.memo.Completed() {
		p.replayAnalysis()
	} else if p.DB.Scheme == BDCC {
		p.preanalyze(n, nil)
	}
	op, _, err := p.lower(n, restrictions{})
	if err == nil && p.memo != nil && !p.memo.Completed() {
		p.recordAnalysis()
	}
	return op, err
}

// Run lowers and executes a logical plan.
func (p *Planner) Run(n Node) (*engine.Result, error) {
	op, err := p.Plan(n)
	if err != nil {
		return nil, err
	}
	return engine.Run(p.Ctx, op)
}

func (p *Planner) lower(n Node, inherited restrictions) (engine.Operator, *streamInfo, error) {
	switch t := n.(type) {
	case *Scan:
		return p.lowerScan(t, inherited)
	case *Materialized:
		return &engine.Values{Rows: t.Res}, &streamInfo{restr: restrictions{}}, nil
	case *Join:
		return p.lowerJoin(t, inherited)
	case *Agg:
		return p.lowerAgg(t, inherited)
	case *Project:
		op, info, err := p.lower(t.Child, inherited)
		if err != nil {
			return nil, nil, err
		}
		out := &engine.Project{Child: op, Cols: t.Cols}
		// A projection keeps group tags but invalidates column-order info
		// unless the sort columns survive; conservatively keep order only
		// for pass-through column references.
		kept := info.withOrder(projectedOrder(info.order, t.Cols))
		return out, kept, nil
	case *FilterNode:
		op, info, err := p.lower(t.Child, inherited)
		if err != nil {
			return nil, nil, err
		}
		return &engine.Filter{Child: op, Pred: t.Pred}, info, nil
	case *OrderBy:
		op, info, err := p.lower(t.Child, inherited)
		if err != nil {
			return nil, nil, err
		}
		out := &engine.Sort{Child: op, By: t.By}
		return out, &streamInfo{order: sortOrder(t.By), restr: info.restr}, nil
	case *LimitNode:
		op, info, err := p.lower(t.Child, inherited)
		if err != nil {
			return nil, nil, err
		}
		return &engine.Limit{Child: op, N: t.N}, info, nil
	case *TopNNode:
		op, info, err := p.lower(t.Child, inherited)
		if err != nil {
			return nil, nil, err
		}
		out := &engine.TopN{Child: op, By: t.By, N: t.N}
		return out, &streamInfo{order: sortOrder(t.By), restr: info.restr}, nil
	default:
		return nil, nil, fmt.Errorf("plan: cannot lower %T", n)
	}
}

func (s *streamInfo) withOrder(order []string) *streamInfo {
	c := *s
	c.order = order
	return &c
}

func sortOrder(by []engine.SortSpec) []string {
	var out []string
	for _, b := range by {
		if b.Desc {
			break
		}
		out = append(out, b.Col)
	}
	return out
}

// projectedOrder keeps the order prefix as long as its columns pass through
// the projection under the same name.
func projectedOrder(order []string, cols []engine.ProjCol) []string {
	var out []string
	for _, o := range order {
		if !passesThrough(cols, o) {
			break
		}
		out = append(out, o)
	}
	return out
}

// passesThrough reports whether a projection outputs column name as it is.
func passesThrough(cols []engine.ProjCol, name string) bool {
	return slices.ContainsFunc(cols, func(c engine.ProjCol) bool {
		ref, ok := c.Expr.(*expr.Col)
		return ok && c.Name == name && ref.Name == name
	})
}

// lowerScan plans a base-table access.
func (p *Planner) lowerScan(s *Scan, inherited restrictions) (engine.Operator, *streamInfo, error) {
	stored, err := p.DB.StoredTable(s.Table)
	if err != nil {
		return nil, nil, err
	}
	info := &streamInfo{restr: restrictions{}, order: p.DB.SortedBy[s.Table]}
	var rename []string
	if s.Alias != "" {
		info.order = nil // it names the table's columns, not the alias's
		rename = make([]string, len(s.Cols))
		for i, c := range s.Cols {
			rename[i] = s.Alias + "_" + c
		}
	}
	op := &engine.Scan{Table: stored, Cols: s.Cols, Filter: s.Filter, Rename: rename, Sched: p.sched()}
	bt := p.DB.BDCCTable(s.Table)
	if bt == nil || (s.Alias != "" && p.scanChoice[s] == nil) {
		all := storage.FullRange(stored.Rows())
		if bt != nil {
			// The stored table ends in copies (the relocation area): the
			// count entries cover every row once.
			all = core.EntriesRanges(bt.Count)
		}
		op.Ranges = p.zonemapPrune(stored, s.Filter, all)
		if rows := op.Ranges.Rows(); rows < all.Rows() {
			p.logf("scan %s%s: minmax pruned to %d of %d rows", s.Table, aliasSuffix(s.Alias), rows, all.Rows())
		}
		return op, info, nil
	}
	info.base = bt
	// Count-table restriction: local pushdown plus inherited propagation.
	// Aliased scans participate in sandwich alignment but not in restriction
	// propagation (their renamed columns are invisible to the rewriter).
	restr := restrictions{}
	if s.Alias == "" {
		restr = localScanRestrictions(bt, s.Filter)
		restr.intersectInto(inherited)
	}
	entries := bt.Count
	for _, u := range bt.Uses {
		bins, ok := restr[useKey(u)]
		if !ok {
			continue
		}
		entries = core.IntersectEntries(entries, bt.SelectBinSet(u, bins))
	}
	if len(entries) < len(bt.Count) {
		p.logf("scan %s: bdcc pushdown to %d of %d groups (%d of %d rows)",
			s.Table, len(entries), len(bt.Count), core.TotalRows(entries), bt.Rows())
	}
	info.restr = restr
	choice := p.scanChoice[s]
	if choice == nil {
		op.Ranges = p.zonemapPrune(stored, s.Filter, core.EntriesRanges(entries))
		return op, info, nil
	}
	idx := slices.Index(bt.Uses, choice.use)
	if idx < 0 {
		return nil, nil, fmt.Errorf("plan: scatter use %s not found on %s", useKey(choice.use), s.Table)
	}
	groups, err := bt.ScatterPlan([]int{idx}, []int{choice.bits}, entries)
	if err != nil {
		return nil, nil, err
	}
	op.Groups = p.pruneGroups(stored, s.Filter, groups)
	p.logf("scan %s%s: scatter scan on %s (%d bits, %d groups)",
		s.Table, aliasSuffix(s.Alias), choice.use.Dim.Name, choice.bits, len(op.Groups))
	info.groupUse = choice.use
	info.groupBits = choice.bits
	if err := p.partitionScan(s, bt, stored, op); err != nil {
		return nil, nil, err
	}
	return op, info, nil
}

// sched returns the one scheduler handle of this query — the shared
// worker pool owned by the execution context — injected into every operator
// the planner permits to parallelize. nil (Workers below 2) keeps every
// operator on its serial path, preserving the paper's single-threaded
// measurement setup.
func (p *Planner) sched() *engine.Sched {
	if p.Ctx == nil {
		return nil
	}
	return p.Ctx.Scheduler()
}

// backends returns the query's backend set — one set per query, installed
// lazily on the execution context the first time a plan places an operator
// that can shard its group stream. nil (Shards below 2 and no Remotes)
// keeps execution single-box, preserving the paper's measurement setup.
// With Remotes configured, the set dials one TCP backend per bdccworker
// address — a worker down at dial time joins the set down and the health
// prober re-admits it when it answers, so only an empty address list fails
// the query; otherwise the set's simulated remotes each run max(1, Workers)
// pool goroutines. Either set is installed as the context's engine.Cluster:
// it shares one network accountant, records per-backend routed loads and
// failover health, and places groups by group-id hash. The query owner
// closes the set via
// Context.CloseBackends after execution.
func (p *Planner) backends() ([]engine.Backend, error) {
	if p.Ctx == nil || (p.Ctx.Shards < 2 && len(p.Ctx.Remotes) == 0) {
		return nil, nil
	}
	if p.Ctx.Backends == nil {
		var set *shard.Set
		if len(p.Ctx.Remotes) > 0 {
			var err error
			set, err = shard.DialSetConfig(p.Ctx.Remotes, shard.PaperNet(), shard.SetConfig{
				Probe:     shard.ProbeConfig{Base: p.Ctx.ProbeBase, Max: p.Ctx.ProbeMax},
				AuthToken: p.Ctx.AuthToken,
			})
			if err != nil {
				return nil, err
			}
		} else {
			workers := p.Ctx.Workers
			workers = max(workers, 1)
			set = shard.NewSet(p.Ctx.Shards, workers, shard.PaperNet())
		}
		p.set = set
		p.Ctx.Backends, p.Ctx.Cluster = set.Backends(), set
	}
	return p.Ctx.Backends, nil
}

// partitionScan moves a scatter scan onto the shared-nothing path when the
// Partition knob is set: the base table is partitioned across the query's
// workers by BDCC cell blocks (see internal/shard's Partitioning and
// docs/PARTITIONING.md), each worker binds its blocks at query setup —
// received once per worker and table version, and held resident across
// queries — and the scan lowers to a PartScanPlan whose units ship row
// ranges to the worker owning them instead of reading pages locally.
//
// The path requires a planner-owned backend set — a shared set (the bdccd
// daemon's) stays on the ordinary scatter scan, as does a single-box
// context; both leave the operator untouched.
func (p *Planner) partitionScan(s *Scan, bt *core.BDCCTable, stored *storage.Table, op *engine.Scan) error {
	if p.Ctx == nil || !p.Ctx.Partition {
		return nil
	}
	bks, err := p.backends()
	if err != nil {
		return err
	}
	if len(bks) == 0 || p.set == nil {
		return nil
	}
	part := p.set.PartitionTable(bt.Name, stored, bt.Count)
	p.set.EnableScanIO(p.DB.Device)
	var units []engine.PartScanUnit
	for _, g := range op.Groups {
		runs, err := part.SplitGroup(g.Ranges)
		if err != nil {
			return err
		}
		for _, r := range runs {
			units = append(units, engine.PartScanUnit{GID: g.GroupID, Slot: r.Worker, Ranges: r.Ranges})
		}
	}
	op.Part = &engine.PartScanPlan{Units: units, Backends: bks}
	p.logf("scan %s%s: partitioned over %d workers (%d scan units)",
		s.Table, aliasSuffix(s.Alias), len(bks), len(units))
	return nil
}

func aliasSuffix(alias string) string {
	if alias == "" {
		return ""
	}
	return " (" + alias + ")"
}

// zonemapPrune intersects row ranges with the MinMax-qualified pages for
// every analyzable conjunct of the filter.
func (p *Planner) zonemapPrune(t *storage.Table, filter expr.Expr, in storage.RowRanges) storage.RowRanges {
	for col, iv := range engine.FilterIntervals(filter) {
		in = t.PruneZonemap(col, iv, in)
	}
	return in
}

// pruneGroups applies zonemap pruning inside every scatter group.
func (p *Planner) pruneGroups(t *storage.Table, filter expr.Expr, groups []core.ScatterGroup) []core.ScatterGroup {
	if filter == nil {
		return groups
	}
	out := groups[:0]
	for _, g := range groups {
		ranges := p.zonemapPrune(t, filter, g.Ranges)
		if len(ranges) == 0 {
			continue
		}
		g.Ranges = ranges
		out = append(out, g)
	}
	return out
}

// lowerJoin plans a join: sandwich where the chain analysis aligned it,
// merge join under PK where both inputs share the key order, hash join
// otherwise. Build sides are lowered (and possibly pre-executed) first so
// their selections propagate into the probe side's scans.
func (p *Planner) lowerJoin(j *Join, inherited restrictions) (engine.Operator, *streamInfo, error) {
	al := p.alignment[j]
	buildOp, buildInfo, err := p.lower(j.Right, restrictions{})
	if err != nil {
		return nil, nil, err
	}
	sandwich := al != nil &&
		buildInfo.groupUse == al.uR && buildInfo.groupBits > 0
	// Restriction transfer (selection propagation) across matched uses,
	// valid for inner and semi joins only.
	transferred := restrictions{}
	if j.Type == engine.InnerJoin || j.Type == engine.SemiJoin {
		for _, pr := range p.joinPairs[j] {
			if bins, ok := buildInfo.restr[useKey(pr.uR)]; ok {
				transferred[useKey(pr.uP)] = bins
				p.logf("join: propagate %s restriction (%d bins) from %s to probe",
					pr.uR.Dim.Name, bins.Count(), pr.uR.Dim.Table)
			}
		}
		// Key-set propagation from small build sides (pre-execution).
		if p.DB.Scheme == BDCC && len(j.LeftKeys) == 1 {
			buildOp, err = p.preExecPropagate(j, sandwich, buildOp, transferred)
			if err != nil {
				return nil, nil, err
			}
		}
	}
	probeIn := inherited.clone()
	probeIn.intersectInto(transferred)
	probeOp, probeInfo, err := p.lower(j.Left, probeIn)
	if err != nil {
		return nil, nil, err
	}
	outInfo := &streamInfo{
		base:      probeInfo.base,
		groupUse:  probeInfo.groupUse,
		groupBits: probeInfo.groupBits,
		order:     probeInfo.order,
		restr:     probeInfo.restr.clone(),
	}
	outInfo.restr.intersectInto(transferred)
	if sandwich && probeInfo.groupUse == al.uP && probeInfo.groupBits > 0 {
		g := probeInfo.groupBits
		g = min(g, buildInfo.groupBits)
		op := &engine.SandwichHashJoin{
			Left: probeOp, Right: buildOp,
			LeftKeys: j.LeftKeys, RightKeys: j.RightKeys,
			Type: j.Type, Residual: j.Residual,
			ProbeShift: uint(probeInfo.groupBits - g),
			BuildShift: uint(buildInfo.groupBits - g),
			Sched:      p.sched(),
		}
		bks, err := p.backends()
		if err != nil {
			return nil, nil, err
		}
		if bks != nil {
			// Scale-out seam: ship the aligned group stream across the
			// query's backend set (simulated remotes, or dialed bdccworker
			// daemons when Remotes is configured), placed by the router. The
			// group join runs wherever the router says — and wherever
			// failover reroutes it; the exchange's group-order merge keeps
			// results byte-identical to the single-box run.
			op.Backends = bks
			op.Route = p.Ctx.Cluster.Route
			p.logf("join: sandwich hash join on %s (%d group bits, groups sharded over %d backends, %d workers each)",
				al.uP.Dim.Name, g, len(bks), bks[0].Workers())
		} else if p.sched() != nil {
			p.logf("join: sandwich hash join on %s (%d group bits, group-pipelined over %d workers)",
				al.uP.Dim.Name, g, p.Ctx.Workers)
		} else {
			p.logf("join: sandwich hash join on %s (%d group bits)", al.uP.Dim.Name, g)
		}
		return op, outInfo, nil
	}
	if j.Type == engine.InnerJoin && j.Residual == nil &&
		len(j.LeftKeys) == 1 &&
		hasOrderPrefix(probeInfo.order, j.LeftKeys[0]) &&
		hasOrderPrefix(buildInfo.order, j.RightKeys[0]) {
		p.logf("join: merge join on %s = %s", j.LeftKeys[0], j.RightKeys[0])
		return &engine.MergeJoin{
			Left: probeOp, Right: buildOp,
			LeftKey: j.LeftKeys[0], RightKey: j.RightKeys[0],
		}, outInfo, nil
	}
	if p.sched() != nil {
		p.logf("join: hash join on %v morsel-parallel (%d workers)", j.LeftKeys, p.Ctx.Workers)
	}
	return &engine.HashJoin{
		Left: probeOp, Right: buildOp,
		LeftKeys: j.LeftKeys, RightKeys: j.RightKeys,
		Type: j.Type, Residual: j.Residual,
		Sched: p.sched(),
	}, outInfo, nil
}

func hasOrderPrefix(order []string, col string) bool {
	return len(order) > 0 && order[0] == col
}

// preExecPropagate executes a small build subtree to convert its join-key
// set into probe-side bin restrictions, where canPrune says the set can
// restrict anything. For sandwich joins the subtree runs once more in
// grouped form, so the planning run is charged to neither the I/O nor the
// memory meter (the rewriter-style lookup), stops at the row cap, and is
// skipped where canPrune declines. For plain hash joins the materialized
// rows feed the real join (and the memo's replays) and the run is charged
// normally, so canPrune gates only the binning of their keys.
//
// Under a completed memo the subtree does not run at all: the recorded raw
// bin sets replay through the same merge as recording used, and a recorded
// materialized build result substitutes for re-executing the build.
func (p *Planner) preExecPropagate(j *Join, sandwich bool, buildOp engine.Operator, transferred restrictions) (engine.Operator, error) {
	if p.memo.Completed() {
		pe := p.memo.preExec[p.sites.joinOf[j]]
		if pe == nil {
			return buildOp, nil
		}
		for k, bins := range pe.raw {
			transferred.and(k, bins)
			p.logf("join: replayed pre-executed build restriction %s (%d bins)", k, bins.Count())
		}
		if pe.res != nil {
			return &engine.Values{Rows: pe.res}, nil
		}
		return buildOp, nil
	}
	probeBase := baseScan(j.Left)
	if probeBase == nil || probeBase.Alias != "" {
		return buildOp, nil
	}
	bt := p.DB.BDCCTable(probeBase.Table)
	if bt == nil || !p.subtreeSmall(j.Right) {
		return buildOp, nil
	}
	uses, why := p.canPrune(j, bt)
	if p.audit != nil {
		why = p.audit(why)
	}
	var res *engine.Result
	var err error
	rec, said := &preExecMemo{}, "not pre-executed"
	if !sandwich {
		said = "materialized, keys not binned"
		if res, err = engine.Run(p.Ctx, buildOp); err != nil {
			return buildOp, err
		}
		rec.res, buildOp = res, &engine.Values{Rows: res}
		if why == "" && res.Rows() > preExecRowCap {
			why = fmt.Sprintf("over %d rows", preExecRowCap)
		}
	} else if why == "" {
		// Plan-time lookup: re-lower ungrouped with free meters, and stop
		// pulling one row past the cap — a larger key set is not binned.
		scratch := NewPlanner(p.DB, &engine.Context{})
		op, _, err := scratch.lower(j.Right, restrictions{})
		if err != nil {
			return buildOp, err
		}
		if res, err = engine.Run(scratch.Ctx, &engine.Limit{Child: op, N: preExecRowCap + 1}); err != nil {
			return buildOp, err
		}
		if res.Rows() > preExecRowCap {
			why = fmt.Sprintf("stopped at %d rows", preExecRowCap)
		}
	}
	if res != nil && p.memo != nil && p.sites != nil {
		p.memo.preExec[p.sites.joinOf[j]] = rec
	}
	if why != "" {
		name := "a subquery"
		if s := baseScan(j.Right); s != nil {
			name = s.Table
		}
		p.logf("join: build on %s %s (%s)", name, said, why)
		return buildOp, nil
	}
	if ci := res.Schema.IndexOf(j.RightKeys[0]); ci >= 0 && res.Schema[ci].Kind == vector.Int64 {
		rec.raw = p.binKeys(uses, res.Cols[ci].I64, bt, transferred)
	}
	return buildOp, nil
}

// canPrune is asked before a build subtree's key set is computed at plan
// time: it returns the uses of probe base bt the set could restrict, or why
// it cannot restrict any — no use maps the probe column (keyUses), or the
// subtree holds every key the column can carry (holdsEveryKey), so its
// restriction would be the identity under restrictions.and.
func (p *Planner) canPrune(j *Join, bt *core.BDCCTable) ([]keyUse, string) {
	uses := p.keyUses(bt, j.LeftKeys[0], j.Left)
	if len(uses) == 0 {
		return nil, fmt.Sprintf("no dimension use of %s maps %s", bt.Name, j.LeftKeys[0])
	}
	if holdsEveryKey(j.Right, j.RightKeys[0], bt.Name, j.LeftKeys[0], uses) {
		return uses, fmt.Sprintf("unfiltered key set cannot restrict %s", bt.Name)
	}
	return uses, ""
}

// holdsEveryKey reports whether column key of build subtree n holds every
// value probeCol of probeTable can carry: n is an unfiltered scan — seen
// through projections, sorts and aggregations grouping by the key, nothing
// that can drop a row — of probeTable on that column, or of the table a
// use's foreign key references, keyed by the referenced column (referential
// integrity).
func holdsEveryKey(n Node, key, probeTable, probeCol string, uses []keyUse) bool {
	for {
		switch t := n.(type) {
		case *Project:
			if !passesThrough(t.Cols, key) {
				return false
			}
			n = t.Child
		case *OrderBy:
			n = t.Child
		case *Agg:
			if !slices.Contains(t.GroupBy, key) {
				return false
			}
			n = t.Child
		case *Scan:
			if t.Alias != "" {
				key = stripAlias(t.Alias, []string{key})[0]
			}
			own := t.Table == probeTable && key == probeCol
			return t.Filter == nil && (own || slices.ContainsFunc(uses, func(ku keyUse) bool {
				return ku.fk != nil && t.Table == ku.fk.RefTable && key == ku.fk.RefCols[0]
			}))
		default:
			return false
		}
	}
}

// binChunk is how many keys a use is binned by between two checks of whether
// it can still learn anything.
const binChunk = 1024

// binKeys merges the bins of a pre-executed key column into transferred, use
// by use, and returns what it merged (the memo's record). A use stops being
// binned once it fills the restriction already transferred for it (the
// build's own, which holds every key-derived bin) or the whole domain, and a
// whole-domain set, saying nothing, is dropped.
func (p *Planner) binKeys(uses []keyUse, keys []int64, bt *core.BDCCTable, transferred restrictions) map[string]core.BinSet {
	vals := distinctInt64(keys)
	raw := make(map[string]core.BinSet)
	for _, ku := range uses {
		k, full := useKey(ku.u), ku.u.Dim.NumBins()
		known, want := transferred[k], full
		if known != nil {
			want = known.Count()
		}
		bins := core.NewBinSet(full)
		i := 0
		for ; i < len(vals) && bins.Count() < want; i += binChunk {
			ku.addBins(bins, vals[i:min(i+binChunk, len(vals))])
		}
		if i < len(vals) && known != nil {
			bins = known // filled: and-ing it in is a no-op whatever the keys left hold
		}
		if p.yields != nil {
			p.yields(bt, ku.u, bins)
		}
		n := bins.Count()
		if n == full {
			continue
		}
		raw[k] = bins
		transferred.and(k, bins)
		p.logf("join: pre-executed build (%d keys) restricts %s via %s to %d bins", len(vals), bt.Name, k, n)
	}
	return raw
}

// subtreeSmall reports whether every base table of a subtree is under the
// propagation threshold.
func (p *Planner) subtreeSmall(n Node) bool {
	if s, ok := n.(*Scan); ok {
		return p.DB.Rows(s.Table) <= propagationThreshold
	}
	for _, c := range n.children() {
		if !p.subtreeSmall(c) {
			return false
		}
	}
	return true
}

// distinctInt64 returns the distinct values in ascending order: read off a
// bitmap of [min, max] where that is no longer than the input (surrogate
// keys are dense), sorted otherwise.
func distinctInt64(vals []int64) []int64 {
	if len(vals) == 0 {
		return nil
	}
	lo, hi := slices.Min(vals), slices.Max(vals)
	if span := uint64(hi - lo); span/64 < uint64(len(vals)) {
		seen := core.NewBinSet(int(span) + 1)
		for _, v := range vals {
			seen.Add(uint64(v - lo))
		}
		out := make([]int64, 0, seen.Count())
		seen.Each(func(b uint64) { out = append(out, lo+int64(b)) })
		return out
	}
	out := slices.Clone(vals)
	slices.Sort(out)
	return slices.Compact(out)
}

// lowerAgg plans an aggregation: sandwich (flush-per-group) when the stream
// is grouped and the grouping keys determine the group dimension, streaming
// when the input already arrives in group-key order, hash otherwise.
func (p *Planner) lowerAgg(a *Agg, inherited restrictions) (engine.Operator, *streamInfo, error) {
	childOp, info, err := p.lower(a.Child, inherited)
	if err != nil {
		return nil, nil, err
	}
	if info.groupUse != nil && p.keysDetermineUse(a.GroupBy, info.groupUse) {
		p.logf("agg: sandwich aggregation on %s (flush per %s group)",
			fmt.Sprint(a.GroupBy), info.groupUse.Dim.Name)
		op := &engine.HashAggregate{Child: childOp, GroupBy: a.GroupBy, Aggs: a.Aggs, FlushOnGroup: true}
		out := &streamInfo{
			base:      info.base,
			groupUse:  info.groupUse,
			groupBits: info.groupBits,
			restr:     info.restr,
		}
		return op, out, nil
	}
	if orderCovers(info.order, a.GroupBy) {
		p.logf("agg: streaming aggregation on %v", a.GroupBy)
		op := &engine.StreamAggregate{Child: childOp, GroupBy: a.GroupBy, Aggs: a.Aggs}
		return op, &streamInfo{order: a.GroupBy, restr: info.restr, base: info.base}, nil
	}
	if p.sched() != nil {
		p.logf("agg: hash aggregation on %v partition-parallel (%d workers)", a.GroupBy, p.Ctx.Workers)
	}
	op := &engine.HashAggregate{Child: childOp, GroupBy: a.GroupBy, Aggs: a.Aggs, Sched: p.sched()}
	return op, &streamInfo{restr: info.restr, base: info.base}, nil
}

// keysDetermineUse reports whether the grouping keys functionally determine
// the group dimension: a local dimension's key columns, or the columns of
// the first foreign-key hop of the use's path, are all grouping keys.
func (p *Planner) keysDetermineUse(groupBy []string, u *core.DimensionUse) bool {
	contains := func(col string) bool {
		for _, g := range groupBy {
			if g == col {
				return true
			}
		}
		return false
	}
	if len(u.Path) == 0 {
		for _, k := range u.Dim.Key {
			if !contains(k) {
				return false
			}
		}
		return true
	}
	fk := p.DB.Schema.FK(u.Path[0])
	if fk == nil {
		return false
	}
	for _, c := range fk.Cols {
		if !contains(c) {
			return false
		}
	}
	return true
}

// orderCovers reports whether the stream order prefix covers all grouping
// keys (so equal keys are adjacent).
func orderCovers(order []string, groupBy []string) bool {
	if len(groupBy) == 0 || len(order) < len(groupBy) {
		return false
	}
	prefix := make(map[string]bool, len(groupBy))
	for _, o := range order[:len(groupBy)] {
		prefix[o] = true
	}
	for _, g := range groupBy {
		if !prefix[g] {
			return false
		}
	}
	return true
}
