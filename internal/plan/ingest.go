package plan

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"bdcc/internal/core"
	"bdcc/internal/storage"
)

// Ingest attaches an append path to a DB. Every append checks its batch
// against the table's schema (storage.Delta) and publishes a fresh immutable
// view of the affected table — base plus the visible delta, in the scheme's
// own layout — behind an atomic pointer, built from the previous view and the
// batch at the cost of the batch (BDCC: plus the splice's merge order; PK:
// plus a re-sort of the table). Queries pin one such version at plan time
// (DB.Snapshot) and never block on writers; writers serialize on a mutex and
// never mutate a published version, so a pinned snapshot stays valid across
// any number of later appends and merges.
// The views an append publishes are already re-sorted (PK) or re-clustered
// by the incremental core.MergeBDCCTable splice (BDCC); what they lack is
// compression, and a BDCC view holds its rows as runs over the merged base
// and the batches (storage.Splice). A merge gathers such a view once,
// re-encodes it where the base was compressed and publishes that version the
// same way. The published versions are the one record of what is
// un-merged: a table's un-merged rows are those its current insertion-order
// view holds beyond the last merged version's.
type Ingest struct {
	db  *DB
	opt IngestOptions

	mu sync.Mutex
	// base is the last merged version — the loaded state until a merge
	// commits — that un-merged rows are counted and drift measured against.
	base       *snapState
	compressed map[string]bool
	merges     int64
	mergedRows int64

	cur atomic.Pointer[snapState]
}

// IngestOptions configure EnableIngest.
type IngestOptions struct {
	// Limit bounds a table's un-merged rows: the append that reaches it
	// merges before it returns. 0 means merges are only run explicitly (or
	// by drift).
	Limit int
	// DriftThreshold merges, inside the append, when a table's un-merged
	// rows' cell distribution diverges from the base clustering by at least
	// this total-variation distance (see core.DriftReport). 0 disables the
	// trigger; only BDCC-clustered tables are measured.
	DriftThreshold float64
}

// snapState is one immutable published version: the insertion-order view
// of every table, the scheme's layout of it, and the rows it holds beyond
// the last merged version.
type snapState struct {
	epoch      int64
	raw        map[string]*storage.Table
	tables     map[string]*storage.Table
	clustered  *core.Database
	totalDelta int64
}

// EnableIngest attaches an empty ingest state to the DB and returns it.
func (db *DB) EnableIngest(opt IngestOptions) (*Ingest, error) {
	if db.ing != nil {
		return nil, fmt.Errorf("plan: ingest already enabled on this %s database", db.Scheme)
	}
	if db.snap != nil {
		return nil, fmt.Errorf("plan: cannot enable ingest on a pinned snapshot")
	}
	raw := db.raw
	if raw == nil {
		raw = db.Tables
	}
	ing := &Ingest{
		db:         db,
		opt:        opt,
		base:       &snapState{raw: raw, tables: db.Tables, clustered: db.Clustered},
		compressed: make(map[string]bool),
	}
	for name := range db.Tables {
		t, err := db.StoredTable(name)
		if err != nil {
			return nil, err
		}
		ing.compressed[name] = t.Compressed()
	}
	// The loaded base is version 0: from here on a Snapshot is always pinned,
	// never the live DB whose views the next append replaces.
	ing.cur.Store(ing.base)
	db.ing = ing
	return ing, nil
}

// Ingest returns the DB's ingest state, or nil when writes were never
// enabled. Pinned snapshots share their origin's state.
func (db *DB) Ingest() *Ingest { return db.ing }

// Snapshot pins the current version: the returned DB serves the base plus
// every delta row visible now, forever, regardless of concurrent appends and
// merges. Without ingest state (or on an already-pinned snapshot) it returns
// the receiver unchanged, so read-only databases pay nothing.
func (db *DB) Snapshot() *DB {
	if db.ing == nil || db.snap != nil {
		return db
	}
	s := db.ing.cur.Load()
	c := *db
	c.Tables = s.tables
	c.Clustered = s.clustered
	c.snap = s
	return &c
}

// Epoch returns the version this DB serves: 0 for the loaded base, counting
// up once per append or merge commit.
func (db *DB) Epoch() int64 {
	if db.snap != nil {
		return db.snap.epoch
	}
	if db.ing != nil {
		return db.ing.cur.Load().epoch
	}
	return 0
}

// PendingDeltaRows returns the un-merged rows visible at this DB's version.
func (db *DB) PendingDeltaRows() int64 {
	if db.snap != nil {
		return db.snap.totalDelta
	}
	if db.ing != nil {
		return db.ing.cur.Load().totalDelta
	}
	return 0
}

// Append ingests rows into one table and publishes the version making them
// visible; when the table's un-merged rows reach Limit or drift past
// DriftThreshold, it merges before it returns. Rows must arrive
// referential-parents-first: a batch may reference keys appended earlier,
// but not keys of another table's future batch — the BDCC scheme bins a
// batch through the key→bin indexes its parents' appends extended, and a key
// they do not hold is a dangling reference. An append is atomic: the batch
// is checked before anything is built from it, and the next version is
// built before it is published, so a rejected batch leaves the published
// version exactly as it found it.
func (ing *Ingest) Append(table string, rows *storage.Table) error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	base, ok := ing.base.raw[table]
	if !ok {
		return fmt.Errorf("plan: ingest into unknown table %q", table)
	}
	if _, err := storage.NewDelta(base).Append(rows); err != nil {
		return err
	}
	next, err := ing.nextViews(table, rows)
	if err != nil {
		return err
	}
	ing.cur.Store(next)
	limit := ing.opt.Limit > 0 && ing.unmerged(next, table) >= ing.opt.Limit
	if limit || ing.opt.DriftThreshold > 0 && ing.drift(next, table).Drifted(ing.opt.DriftThreshold) {
		ing.merge()
	}
	return nil
}

// unmerged returns how many rows of table version v holds beyond the last
// merged version. Caller holds mu.
func (ing *Ingest) unmerged(v *snapState, table string) int {
	return v.raw[table].Rows() - ing.base.raw[table].Rows()
}

// drift measures table's un-merged rows in version v against the merged
// clustering: v's count table is the merged one plus their per-cell counts.
// It is the zero report where the table is not clustered or holds no
// un-merged row. Caller holds mu.
func (ing *Ingest) drift(v *snapState, table string) core.DriftReport {
	bt := clusteredTable(ing.base.clustered, table)
	if bt == nil || ing.unmerged(v, table) == 0 {
		return core.DriftReport{}
	}
	return v.clustered.Tables[table].DriftSince(bt)
}

// nextViews builds the version that additionally holds batch at the end of
// table: every view of the other tables is shared with the current version,
// the table's insertion-order view grows in place by the batch, and the
// scheme's own layout follows — PK re-sorts, BDCC splices the batch into the
// previous clustered view (which already holds the older delta rows) as runs,
// copying no row. Nothing is published or stored.
// Caller holds mu.
func (ing *Ingest) nextViews(table string, batch *storage.Table) (*snapState, error) {
	prev := ing.cur.Load()
	next := &snapState{
		epoch:      prev.epoch + 1,
		raw:        maps.Clone(prev.raw),
		tables:     maps.Clone(prev.tables),
		clustered:  prev.clustered,
		totalDelta: prev.totalDelta + int64(batch.Rows()),
	}
	from := prev.raw[table].Rows()
	combined, err := storage.Concat(prev.raw[table], from, batch)
	if err != nil {
		return nil, err
	}
	next.raw[table] = combined
	next.tables[table] = combined
	db := ing.db
	switch db.Scheme {
	case PK:
		next.tables[table], err = pkSort(db, table, combined)
	case BDCC:
		if next.clustered != nil {
			next.clustered, err = next.clustered.AppendRows(db.Schema, next.raw, table, from, batch, core.BuildOptions{Device: db.Device})
		}
	}
	if err != nil {
		return nil, err
	}
	return next, nil
}

// Merge publishes the current version with the views of every table holding
// un-merged rows re-encoded where the base was compressed. The appends
// already built those views in the scheme's own layout — PK re-sorted, BDCC
// spliced into the clustering — so a merge re-bins and re-sorts nothing: it
// encodes a BDCC view from its runs where the base was compressed
// (storage.Table.Encoded), else gathers them once (Table.Materialized).
// Readers keep whatever version they pinned. A merge cannot fail: the error
// is always nil.
func (ing *Ingest) Merge() error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	ing.merge()
	return nil
}

// merge is Merge under mu, which Append already holds.
func (ing *Ingest) merge() {
	cur := ing.cur.Load()
	if cur.totalDelta == 0 {
		return
	}
	next := &snapState{epoch: cur.epoch + 1, raw: cur.raw, tables: maps.Clone(cur.tables), clustered: cur.clustered}
	var clustered map[string]*core.BDCCTable
	for table := range cur.raw {
		if ing.unmerged(cur, table) == 0 {
			continue
		}
		bt := clusteredTable(cur.clustered, table)
		if bt == nil {
			if ing.compressed[table] {
				next.tables[table] = cur.tables[table].Encoded()
			}
			continue
		}
		if clustered == nil {
			clustered = maps.Clone(cur.clustered.Tables)
		}
		data := bt.Data.Materialized
		if ing.compressed[table] {
			data = bt.Data.Encoded
		}
		clustered[table] = bt.Consolidated(data())
	}
	if clustered != nil {
		c := *cur.clustered
		c.Tables = clustered
		next.clustered = &c
	}
	ing.merges++
	ing.mergedRows += cur.totalDelta
	ing.base = next
	ing.cur.Store(next)
}

// IngestStats is a point-in-time summary of the ingest state.
type IngestStats struct {
	// Epoch is the currently published version.
	Epoch int64
	// DeltaRows counts visible un-merged rows across tables.
	DeltaRows int64
	// Merges counts committed consolidations; MergedRows the rows they
	// folded into the base.
	Merges     int64
	MergedRows int64
	// Drift holds the drift report of every clustered table with
	// un-merged rows (none right after a merge).
	Drift map[string]core.DriftReport
}

// Stats reports the current ingest counters.
func (ing *Ingest) Stats() IngestStats {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	cur := ing.cur.Load()
	s := IngestStats{
		Epoch:      cur.epoch,
		DeltaRows:  cur.totalDelta,
		Merges:     ing.merges,
		MergedRows: ing.mergedRows,
		Drift:      make(map[string]core.DriftReport),
	}
	for t := range cur.raw {
		if r := ing.drift(cur, t); r.DeltaRows > 0 {
			s.Drift[t] = r
		}
	}
	return s
}

// pkSort lays a combined table out in the PK scheme's order: a stable sort
// on the primary key, identical to what NewPKDB does at load.
func pkSort(db *DB, name string, t *storage.Table) (*storage.Table, error) {
	def := db.Schema.Table(name)
	if def == nil || len(def.PrimaryKey) == 0 {
		return t, nil
	}
	keys, err := core.KeyValues(t, def.PrimaryKey)
	if err != nil {
		return nil, fmt.Errorf("plan: pk sort of %s: %w", name, err)
	}
	return t.Permute(sortPermByKeys(keys))
}

func clusteredTable(db *core.Database, name string) *core.BDCCTable {
	if db == nil {
		return nil
	}
	return db.Tables[name]
}
