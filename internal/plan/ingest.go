package plan

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bdcc/internal/core"
	"bdcc/internal/storage"
)

// Ingest attaches an append path to a DB. Each table gets a row-oriented
// delta store (storage.Delta); every append publishes a fresh immutable view
// of the affected table — base plus the visible delta prefix, in the scheme's
// own layout — behind an atomic pointer. Queries pin one such version at plan
// time (DB.Snapshot) and never block on writers; writers serialize on a
// mutex and never mutate a published version, so a pinned snapshot stays
// valid across any number of later appends and merges. A background merge
// consolidates the delta into the base layout (re-sorting, re-clustering via
// the incremental core.MergeBDCCTable splice, and re-compressing when the
// base was compressed) and publishes the consolidated version the same way.
type Ingest struct {
	db  *DB
	opt IngestOptions

	mu     sync.Mutex
	deltas map[string]*storage.Delta
	// cons* describe the consolidated base: the insertion-order raw tables
	// and the scheme views every un-merged delta layers on top of. They
	// start as the DB's loaded state and advance only when a merge commits.
	consRaw       map[string]*storage.Table
	consTables    map[string]*storage.Table
	consClustered *core.Database
	compressed    map[string]bool
	epoch         int64
	merging       bool
	mergeErr      error
	wg            sync.WaitGroup
	merges        int64
	mergedRows    int64
	drift         map[string]core.DriftReport

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
	// Build controls merge-time re-clustering; its zero Device defaults to
	// the DB's device.
	Build core.BuildOptions
}

// snapState is one immutable published version.
type snapState struct {
	epoch      int64
	raw        map[string]*storage.Table
	tables     map[string]*storage.Table
	clustered  *core.Database
	deltaRows  map[string]int
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
	if opt.Build.Device.PageSize == 0 {
		opt.Build.Device = db.Device
	}
	ing := &Ingest{
		db:         db,
		opt:        opt,
		deltas:     make(map[string]*storage.Delta),
		consRaw:    raw,
		consTables: db.Tables,
		compressed: make(map[string]bool),
		drift:      make(map[string]core.DriftReport),
	}
	ing.consClustered = db.Clustered
	for name := range db.Tables {
		t, err := db.StoredTable(name)
		if err != nil {
			return nil, err
		}
		ing.compressed[name] = t.Compressed()
	}
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
	if s == nil {
		return db
	}
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
		if s := db.ing.cur.Load(); s != nil {
			return s.epoch
		}
	}
	return 0
}

// PendingDeltaRows returns the un-merged rows visible at this DB's version.
func (db *DB) PendingDeltaRows() int64 {
	if db.snap != nil {
		return db.snap.totalDelta
	}
	if db.ing != nil {
		if s := db.ing.cur.Load(); s != nil {
			return s.totalDelta
		}
	}
	return 0
}

// Append ingests rows into one table and publishes the version making them
// visible. Rows must arrive referential-parents-first: a batch may reference
// keys appended earlier or in the same call's table, but not keys of another
// table's future batch (foreign-key resolution over base + visible delta
// fails on dangling references).
func (ing *Ingest) Append(table string, rows *storage.Table) error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	base, ok := ing.consRaw[table]
	if !ok {
		return fmt.Errorf("plan: ingest into unknown table %q", table)
	}
	delta := ing.deltas[table]
	if delta == nil {
		delta = storage.NewDelta(base)
		ing.deltas[table] = delta
	}
	visible, err := delta.Append(rows)
	if err != nil {
		return err
	}
	if err := ing.publishViews(table, rows); err != nil {
		return err
	}
	trigger := ing.opt.Limit > 0 && visible >= ing.opt.Limit
	if r, ok := ing.drift[table]; ok && ing.opt.DriftThreshold > 0 && r.Drifted(ing.opt.DriftThreshold) {
		trigger = true
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

// publishViews rebuilds the affected table's views over the consolidated
// base plus its whole visible delta and publishes the next version; batch is
// the newly appended tail. Caller holds mu.
func (ing *Ingest) publishViews(table string, batch *storage.Table) error {
	delta := ing.deltas[table]
	k := delta.Rows()
	dtab, err := delta.Prefix(k)
	if err != nil {
		return err
	}
	combined, err := storage.Concat(ing.consRaw[table], ing.consRaw[table].Rows(), dtab)
	if err != nil {
		return err
	}
	prev := ing.cur.Load()
	next := &snapState{
		epoch:     ing.epoch + 1,
		raw:       make(map[string]*storage.Table),
		tables:    make(map[string]*storage.Table),
		deltaRows: make(map[string]int),
		clustered: ing.consClustered,
	}
	if prev != nil {
		for n, t := range prev.raw {
			next.raw[n] = t
		}
		for n, t := range prev.tables {
			next.tables[n] = t
		}
		for n, r := range prev.deltaRows {
			next.deltaRows[n] = r
		}
		next.clustered = prev.clustered
	} else {
		for n, t := range ing.consRaw {
			next.raw[n] = t
		}
		for n, t := range ing.consTables {
			next.tables[n] = t
		}
	}
	next.raw[table] = combined
	next.deltaRows[table] = k
	for _, r := range next.deltaRows {
		next.totalDelta += int64(r)
	}
	db := ing.db
	switch db.Scheme {
	case Plain:
		next.tables[table] = combined
	case PK:
		sorted, err := pkSort(db, table, combined)
		if err != nil {
			return err
		}
		next.tables[table] = sorted
	case BDCC:
		next.tables[table] = combined
		if next.clustered != nil {
			// Splice only the newest batch into the previous view — it
			// already holds the older delta rows. Bindings resolve over the
			// combined raw tables so fresh rows may reference fresh parents.
			from := combined.Rows() - batch.Rows()
			next.clustered, err = next.clustered.AppendRows(db.Schema, next.raw, table, from, batch, ing.opt.Build)
			if err != nil {
				return err
			}
		}
		if consBT := clusteredTable(ing.consClustered, table); consBT != nil {
			// Drift measures all visible delta rows against the consolidated
			// clustering, whose count table has not absorbed them yet.
			r, err := core.DriftFor(ing.consClustered, db.Schema, next.raw, table, ing.consRaw[table].Rows())
			if err != nil {
				return err
			}
			ing.drift[table] = r
		}
	}
	ing.epoch = next.epoch
	ing.cur.Store(next)
	return nil
}

// Merge consolidates every table's visible delta into the base layout and
// publishes the merged version: combined insertion-order raw tables become
// the new base, scheme views are rebuilt fresh (so no published table is ever
// mutated) and re-compressed when the base was compressed, and the merged
// delta prefix is truncated. Readers keep whatever version they pinned.
func (ing *Ingest) Merge() error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	defer func() { ing.merging = false }()
	db := ing.db
	newRaw := make(map[string]*storage.Table, len(ing.consRaw))
	newTables := make(map[string]*storage.Table, len(ing.consTables))
	for n, t := range ing.consRaw {
		newRaw[n] = t
	}
	for n, t := range ing.consTables {
		newTables[n] = t
	}
	newClustered := ing.consClustered
	var total int64
	merged := make(map[string]int)
	for table, delta := range ing.deltas {
		k := delta.Rows()
		if k == 0 {
			continue
		}
		dtab, err := delta.Prefix(k)
		if err != nil {
			return ing.failMerge(err)
		}
		combined, err := storage.Concat(ing.consRaw[table], ing.consRaw[table].Rows(), dtab)
		if err != nil {
			return ing.failMerge(err)
		}
		newRaw[table] = combined
		merged[table] = k
		total += int64(k)
	}
	for table, k := range merged {
		combined := newRaw[table]
		switch db.Scheme {
		case Plain:
			newTables[table] = combined
			if ing.compressed[table] {
				combined.Compress()
			}
		case PK:
			sorted, err := pkSort(db, table, combined)
			if err != nil {
				return ing.failMerge(err)
			}
			if ing.compressed[table] {
				sorted.Compress()
			}
			newTables[table] = sorted
		case BDCC:
			newTables[table] = combined
			if newClustered == nil {
				continue
			}
			dtab, err := ing.deltas[table].Prefix(k)
			if err != nil {
				return ing.failMerge(err)
			}
			newClustered, err = newClustered.AppendRows(db.Schema, newRaw, table, combined.Rows()-k, dtab, ing.opt.Build)
			if err != nil {
				return ing.failMerge(err)
			}
			if bt := newClustered.Tables[table]; bt != nil && ing.compressed[table] {
				bt.Data.Compress()
			}
		}
	}
	for table, k := range merged {
		if err := ing.deltas[table].TruncatePrefix(k); err != nil {
			return ing.failMerge(err)
		}
	}
	ing.consRaw = newRaw
	ing.consTables = newTables
	ing.consClustered = newClustered
	if total > 0 {
		ing.merges++
		ing.mergedRows += total
		ing.epoch++
		for t := range ing.drift {
			delete(ing.drift, t)
		}
		ing.cur.Store(&snapState{
			epoch:     ing.epoch,
			raw:       newRaw,
			tables:    newTables,
			clustered: newClustered,
			deltaRows: make(map[string]int),
		})
	}
	return nil
}

// failMerge records a merge failure; a half-built consolidation is simply
// dropped — the published version and the delta stores are untouched, so
// readers and writers continue on the pre-merge state.
func (ing *Ingest) failMerge(err error) error {
	ing.mergeErr = err
	return err
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
		Epoch:      ing.epoch,
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
