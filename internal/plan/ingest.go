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
// version of the affected table — base plus the visible delta, in the
// scheme's own layout — behind an atomic pointer, built from the previous
// version and the batch at the cost of the batch (BDCC: plus the splice's
// merge order; PK: plus a re-sort of the table). Queries pin one such version
// at plan time (DB.Snapshot) and never block on writers; writers serialize on
// a mutex and never mutate a published version, so a pinned snapshot stays
// valid across any number of later appends and merges.
// A table is held in one form: Plain's insertion order, PK's sort (beside
// the insertion order it re-sorts), and under BDCC a designed table's
// clustering alone, spliced by the incremental core.MergeBDCCTable; what an
// appended version lacks is compression, and a BDCC clustering holds its
// rows as runs over the merged base and the batches (storage.Splice). A
// merge encodes or gathers such a version once and publishes it the same
// way, and the version it replaces — the loaded one included — is let go
// once no reader pins it. The published versions are the one record of what
// is un-merged: a table's un-merged rows are the logical rows its current
// version holds beyond the last merged version's.
type Ingest struct {
	db *DB
	// limit bounds a table's un-merged rows: the append that reaches it
	// merges before it returns. 0 means merges are only run explicitly.
	limit int

	mu sync.Mutex
	// base is the last merged version — the loaded state until a merge
	// commits — that un-merged rows are counted against.
	base       *snapState
	compressed map[string]bool
	merges     int64
	mergedRows int64

	cur atomic.Pointer[snapState]
}

// snapState is one immutable published version: every table in the
// scheme's layout (under BDCC a designed table's entry stays its load
// source; its clustering is what is scanned), PK's sort sources, the
// clustering, and the rows it holds beyond the last merged version.
type snapState struct {
	epoch  int64
	tables map[string]*storage.Table
	// raw holds, under PK, the insertion-order tables pkSort re-sorts; nil
	// under the other schemes, whose layout is that order or the clustering.
	raw        map[string]*storage.Table
	clustered  *core.Database
	totalDelta int64
}

// rows returns table's logical rows in v.
func (v *snapState) rows(table string) int {
	return logicalRows(v.tables, v.clustered, table)
}

// EnableIngest attaches an empty ingest state to the DB and returns it: the
// append that brings a table's un-merged rows to limit merges before it
// returns, and 0 leaves merges to Merge. The loaded layout becomes version
// 0, and the DB keeps no version of its own: its Tables, Clustered and PK
// sources move into that version, which the first merge replaces and lets
// go, and every read of the DB answers for the current version (Snapshot).
func (db *DB) EnableIngest(limit int) (*Ingest, error) {
	if db.ing != nil {
		return nil, fmt.Errorf("plan: ingest already enabled on this %s database", db.Scheme)
	}
	if db.snap != nil {
		return nil, fmt.Errorf("plan: cannot enable ingest on a pinned snapshot")
	}
	ing := &Ingest{
		db:         db,
		limit:      limit,
		base:       &snapState{raw: db.raw, tables: db.Tables, clustered: db.Clustered},
		compressed: make(map[string]bool),
	}
	for name := range db.Tables {
		t, err := db.StoredTable(name)
		if err != nil {
			return nil, err
		}
		ing.compressed[name] = t.Compressed()
	}
	ing.cur.Store(ing.base)
	db.Tables, db.Clustered, db.raw, db.ing = nil, nil, nil, ing
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
	if s := db.Snapshot().snap; s != nil {
		return s.epoch
	}
	return 0
}

// PendingDeltaRows returns the un-merged rows visible at this DB's version.
func (db *DB) PendingDeltaRows() int64 {
	if s := db.Snapshot().snap; s != nil {
		return s.totalDelta
	}
	return 0
}

// Append ingests rows into one table and publishes the version making them
// visible; when the table's un-merged rows reach the limit, it merges before
// it returns. Rows must arrive referential-parents-first: a batch may
// reference keys appended earlier, but not keys of another table's future
// batch — the BDCC scheme bins a batch through the key→bin indexes its
// parents' appends extended, and a key they do not hold is a dangling
// reference. An append is atomic: the batch is checked before anything is
// built from it, and the next version is built before it is published, so a
// rejected batch leaves the published version exactly as it found it.
func (ing *Ingest) Append(table string, rows *storage.Table) error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	base, ok := ing.base.tables[table]
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
	if ing.limit > 0 && ing.unmerged(next, table) >= ing.limit {
		ing.merge()
	}
	return nil
}

// unmerged returns how many logical rows of table version v holds beyond
// the last merged version. Caller holds mu.
func (ing *Ingest) unmerged(v *snapState, table string) int {
	return v.rows(table) - ing.base.rows(table)
}

// nextViews builds the version that additionally holds batch at the end of
// table: every other table is shared with the current version. A designed
// table under BDCC takes the batch into its clustering only, spliced into the
// previous clustered view (which already holds the older delta rows) as runs,
// copying no row; any other table's layout grows in place by the batch, and
// PK re-sorts its grown insertion order. Under BDCC every append also extends
// the key→bin indexes of the hops that reference table, and that comes
// first, so a rejected batch has claimed nothing. Nothing is published or
// stored. Caller holds mu.
func (ing *Ingest) nextViews(table string, batch *storage.Table) (*snapState, error) {
	prev, db := ing.cur.Load(), ing.db
	next := &snapState{
		epoch:      prev.epoch + 1,
		raw:        prev.raw,
		tables:     prev.tables,
		clustered:  prev.clustered,
		totalDelta: prev.totalDelta + int64(batch.Rows()),
	}
	var err error
	if prev.clustered != nil {
		if next.clustered, err = prev.clustered.AppendRows(db.Schema, prev.tables, table, batch, core.BuildOptions{Device: db.Device}); err != nil {
			return nil, err
		}
		if clusteredTable(prev.clustered, table) != nil {
			return next, nil
		}
	}
	src := prev.tables
	if prev.raw != nil {
		src, next.raw = prev.raw, maps.Clone(prev.raw)
	}
	combined, err := storage.Concat(src[table], src[table].Rows(), batch)
	if err != nil {
		return nil, err
	}
	next.tables = maps.Clone(prev.tables)
	next.tables[table] = combined
	if next.raw != nil {
		next.raw[table] = combined
		if next.tables[table], err = pkSort(db, table, combined); err != nil {
			return nil, err
		}
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
	for table := range cur.tables {
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
}

// Stats reports the current ingest counters.
func (ing *Ingest) Stats() IngestStats {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	cur := ing.cur.Load()
	return IngestStats{
		Epoch:      cur.epoch,
		DeltaRows:  cur.totalDelta,
		Merges:     ing.merges,
		MergedRows: ing.mergedRows,
	}
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
