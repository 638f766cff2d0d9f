package plan

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"bdcc/internal/core"
	"bdcc/internal/storage"
)

// Ingest attaches an append path to a DB. Each table gets a delta store
// (storage.Delta); every append publishes a fresh immutable view
// of the affected table — base plus the visible delta, in the scheme's own
// layout — behind an atomic pointer, built from the previous view and the
// batch at the cost of the batch and one copy of that table's views. Queries
// pin one such version at plan time (DB.Snapshot) and never block on writers;
// writers serialize on a mutex and never mutate a published version, so a
// pinned snapshot stays valid across any number of later appends and merges.
// A background merge consolidates the delta into the base layout (re-sorting,
// re-clustering via the incremental core.MergeBDCCTable splice, and
// re-compressing when the base was compressed) and publishes the consolidated
// version the same way.
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
	// The loaded base is version 0: from here on a Snapshot is always pinned,
	// never the live DB whose views the next append replaces.
	ing.cur.Store(&snapState{raw: raw, tables: db.Tables, clustered: db.Clustered, deltaRows: map[string]int{}})
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
// atomic: the next version is built before the batch is stored, so a rejected
// batch leaves the delta store, the counters and the published version
// exactly as it found them.
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
	next, err := ing.nextViews(table, rows)
	if err != nil {
		return err
	}
	visible, err := delta.Append(rows)
	if err != nil {
		return err
	}
	ing.epoch = next.epoch
	ing.cur.Store(next)
	trigger := ing.opt.Limit > 0 && visible >= ing.opt.Limit
	if consBT := clusteredTable(ing.consClustered, table); consBT != nil {
		// Drift measures all visible delta rows against the consolidated
		// clustering: the view's count table is the consolidated one plus
		// their per-cell counts.
		r := next.clustered.Tables[table].DriftSince(consBT)
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
// the table's insertion-order view is extended by the batch, and the scheme's
// own layout follows — PK re-sorts, BDCC splices the batch into the previous
// clustered view (which already holds the older delta rows) at the cost of
// the batch and one copy of that view. Nothing is published or stored.
// Caller holds mu.
func (ing *Ingest) nextViews(table string, batch *storage.Table) (*snapState, error) {
	prev := ing.cur.Load()
	next := &snapState{
		epoch:      ing.epoch + 1,
		raw:        maps.Clone(prev.raw),
		tables:     maps.Clone(prev.tables),
		clustered:  prev.clustered,
		deltaRows:  maps.Clone(prev.deltaRows),
		totalDelta: prev.totalDelta + int64(batch.Rows()),
	}
	next.deltaRows[table] += batch.Rows()
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
			next.clustered, err = next.clustered.AppendRows(db.Schema, next.raw, table, from, batch, ing.opt.Build)
		}
	}
	if err != nil {
		return nil, err
	}
	return next, nil
}

// mergeOrder lists the tables holding un-merged rows, every table after the
// tables it references: consolidating a child bins its delta through the
// indexes its parents' consolidation extended.
func (ing *Ingest) mergeOrder() ([]string, error) {
	topo, err := ing.db.Schema.TopoOrder()
	if err != nil && ing.consClustered != nil {
		return nil, err // without a clustering nothing is binned and any order will do
	}
	pos := make(map[string]int, len(topo))
	for i, n := range topo {
		pos[n] = i + 1
	}
	var order []string
	for table, delta := range ing.deltas {
		if delta.Rows() > 0 {
			order = append(order, table)
		}
	}
	// Tables the schema does not know reference nothing: any place will do.
	slices.SortFunc(order, func(a, b string) int {
		return cmp.Or(cmp.Compare(pos[a], pos[b]), cmp.Compare(a, b))
	})
	return order, nil
}

// Merge consolidates every table's visible delta into the base layout and
// publishes the merged version: combined insertion-order raw tables become
// the new base, scheme views are rebuilt fresh (so no published table is ever
// mutated) and re-compressed when the base was compressed, and the merged
// delta prefix is truncated. Tables consolidate parents first, as they were
// appended. Readers keep whatever version they pinned.
func (ing *Ingest) Merge() error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	defer func() { ing.merging = false }()
	db := ing.db
	newRaw := maps.Clone(ing.consRaw)
	newTables := maps.Clone(ing.consTables)
	newClustered := ing.consClustered
	order, err := ing.mergeOrder()
	if err != nil {
		return ing.failMerge(err)
	}
	var total int64
	merged := make(map[string]int)
	for _, table := range order {
		k := ing.deltas[table].Rows()
		dtab, err := ing.deltas[table].Prefix(k)
		if err != nil {
			return ing.failMerge(err)
		}
		from := ing.consRaw[table].Rows()
		combined, err := storage.Concat(ing.consRaw[table], from, dtab)
		if err != nil {
			return ing.failMerge(err)
		}
		newRaw[table] = combined
		newTables[table] = combined
		merged[table] = k
		total += int64(k)
		// stored is the scheme's own layout of the table, re-compressed when
		// the base was.
		stored := combined
		switch db.Scheme {
		case PK:
			if stored, err = pkSort(db, table, combined); err != nil {
				return ing.failMerge(err)
			}
			newTables[table] = stored
		case BDCC:
			stored = nil
			if newClustered != nil {
				newClustered, err = newClustered.AppendRows(db.Schema, newRaw, table, from, dtab, ing.opt.Build)
				if err != nil {
					return ing.failMerge(err)
				}
				if bt := newClustered.Tables[table]; bt != nil {
					stored = bt.Data
				}
			}
		}
		if stored != nil && ing.compressed[table] {
			stored.Compress()
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
		clear(ing.drift)
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
