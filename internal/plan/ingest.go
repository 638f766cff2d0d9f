package plan

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"bdcc/internal/core"
	"bdcc/internal/storage"
)

// Ingest attaches an append path to a DB. Each table gets an append ledger
// (storage.Delta); every append publishes a fresh immutable view
// of the affected table — base plus the visible delta, in the scheme's own
// layout — behind an atomic pointer, built from the previous view and the
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
// same way.
type Ingest struct {
	db  *DB
	opt IngestOptions

	mu     sync.Mutex
	deltas map[string]*storage.Delta
	// base is the last merged version — the loaded state until a merge
	// commits — that drift is measured against.
	base       *snapState
	compressed map[string]bool
	merging    bool
	mergeErr   error
	wg         sync.WaitGroup
	merges     int64
	mergedRows int64
	drift      map[string]core.DriftReport

	cur atomic.Pointer[snapState]
}

// IngestOptions configure EnableIngest.
type IngestOptions struct {
	// Raw holds the insertion-order base tables the DB was built from. nil
	// uses DB.Tables, which is correct for Plain and BDCC; the PK scheme
	// stores its tables re-sorted and must be given the originals.
	Raw map[string]*storage.Table
	// Limit bounds the per-table delta: reaching it triggers a background
	// merge. 0 means merges are only started explicitly (or by drift).
	Limit int
	// DriftThreshold triggers a background merge when the un-merged delta's
	// cell distribution diverges from the base clustering by at least this
	// total-variation distance (see core.DriftReport). 0 disables the
	// trigger; only BDCC-clustered tables are measured.
	DriftThreshold float64
}

// snapState is one immutable published version.
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
	raw := opt.Raw
	if raw == nil {
		if db.Scheme == PK {
			return nil, fmt.Errorf("plan: ingest on a pk database needs the insertion-order tables")
		}
		raw = db.Tables
	}
	ing := &Ingest{
		db:         db,
		opt:        opt,
		deltas:     make(map[string]*storage.Delta),
		base:       &snapState{raw: raw, tables: db.Tables, clustered: db.Clustered},
		compressed: make(map[string]bool),
		drift:      make(map[string]core.DriftReport),
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
// visible. Rows must arrive referential-parents-first: a batch may reference
// keys appended earlier, but not keys of another table's future batch — the
// BDCC scheme bins a batch through the key→bin indexes its parents' appends
// extended, and a key they do not hold is a dangling reference. An append is
// atomic: the next version is built before the batch is counted, so a
// rejected batch leaves the ledger, the counters and the published version
// exactly as it found them.
func (ing *Ingest) Append(table string, rows *storage.Table) error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	base, ok := ing.base.raw[table]
	if !ok {
		return fmt.Errorf("plan: ingest into unknown table %q", table)
	}
	delta := ing.deltas[table]
	if delta == nil {
		delta = storage.NewDelta(base)
		ing.deltas[table] = delta
	}
	next, err := ing.nextViews(table, rows)
	if err != nil {
		return err
	}
	visible, err := delta.Append(rows)
	if err != nil {
		return err
	}
	ing.cur.Store(next)
	trigger := ing.opt.Limit > 0 && visible >= ing.opt.Limit
	if baseBT := clusteredTable(ing.base.clustered, table); baseBT != nil {
		// Drift measures all visible delta rows against the merged
		// clustering: the view's count table is the merged one plus their
		// per-cell counts.
		r := next.clustered.Tables[table].DriftSince(baseBT)
		ing.drift[table] = r
		if ing.opt.DriftThreshold > 0 && r.Drifted(ing.opt.DriftThreshold) {
			trigger = true
		}
	}
	if trigger && !ing.merging {
		ing.merging = true
		ing.wg.Add(1)
		go func() {
			defer ing.wg.Done()
			ing.Merge()
		}()
	}
	return nil
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
// un-merged rows re-encoded where the base was compressed, and clears the
// ledgers. The appends already built those views in the scheme's own layout
// — PK re-sorted, BDCC spliced into the clustering — so a merge re-bins and
// re-sorts nothing: it gathers a BDCC view's runs into arrays once
// (storage.Table.Materialized), and a re-encoded table shares those arrays
// (storage.Table.Encoded). Readers keep whatever version they pinned.
// A merge fails, publishing nothing, only if the ledgers and the published
// version disagree on how many rows are un-merged.
func (ing *Ingest) Merge() error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	defer func() { ing.merging = false }()
	cur := ing.cur.Load()
	var total int64
	for _, d := range ing.deltas {
		total += int64(d.Rows())
	}
	if total != cur.totalDelta {
		ing.mergeErr = fmt.Errorf("plan: merge: the ledgers hold %d un-merged rows, version %d shows %d", total, cur.epoch, cur.totalDelta)
		return ing.mergeErr
	}
	if total == 0 {
		return nil
	}
	next := &snapState{epoch: cur.epoch + 1, raw: cur.raw, tables: maps.Clone(cur.tables), clustered: cur.clustered}
	var clustered map[string]*core.BDCCTable
	for table, d := range ing.deltas {
		if d.Rows() == 0 {
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
		data := bt.Data.Materialized()
		if ing.compressed[table] {
			data = data.Encoded()
		}
		clustered[table] = bt.Consolidated(data)
	}
	if clustered != nil {
		c := *cur.clustered
		c.Tables = clustered
		next.clustered = &c
	}
	for _, d := range ing.deltas {
		d.Clear()
	}
	ing.merges++
	ing.mergedRows += total
	clear(ing.drift)
	ing.base = next
	ing.cur.Store(next)
	return nil
}

// Wait drains any background merge in flight.
func (ing *Ingest) Wait() { ing.wg.Wait() }

// IngestStats is a point-in-time summary of the ingest state.
type IngestStats struct {
	// Epoch is the currently published version.
	Epoch int64
	// DeltaRows counts visible un-merged rows across tables; AppendedRows is
	// the lifetime total.
	DeltaRows    int64
	AppendedRows int64
	// Merges counts committed consolidations; MergedRows the rows they
	// folded into the base.
	Merges     int64
	MergedRows int64
	// Drift holds the latest per-table drift reports (cleared on merge).
	Drift map[string]core.DriftReport
	// Err is the last merge failure, if any.
	Err error
}

// Stats reports the current ingest counters.
func (ing *Ingest) Stats() IngestStats {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	s := IngestStats{
		Epoch:      ing.cur.Load().epoch,
		Merges:     ing.merges,
		MergedRows: ing.mergedRows,
		Drift:      make(map[string]core.DriftReport, len(ing.drift)),
		Err:        ing.mergeErr,
	}
	for _, d := range ing.deltas {
		s.DeltaRows += int64(d.Rows())
		s.AppendedRows += d.AppendedRows()
	}
	for t, r := range ing.drift {
		s.Drift[t] = r
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
