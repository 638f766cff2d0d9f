package plan

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"bdcc/internal/core"
	"bdcc/internal/storage"
)

// Ingest attaches an append path to a DB. Every append checks its batch
// against the table's schema (storage.Delta) and publishes a fresh immutable
// version of the affected table — base plus the visible delta, in the
// scheme's own layout — behind an atomic pointer, built from the previous
// version and the batch at the cost of the batch (plus, under BDCC and PK,
// the search that places it). Queries pin one such version at plan time
// (DB.Snapshot) and never block on writers; writers serialize on a mutex and
// never mutate a published version, so a pinned snapshot stays valid across
// any number of later appends and merges.
// A table is held in one form: Plain's insertion order, PK's sort, and under
// BDCC a designed table's clustering alone, spliced by the incremental
// core.MergeBDCCTable. Every scheme takes a batch the same way: an appended
// version holds its rows as runs over the merged base and the batches
// (storage.Splice), and lacks only compression. A merge encodes or gathers
// such a version once and publishes it the same way, and the version it
// replaces — the loaded one included — is let go once no reader pins it. The
// published versions are the one record of what is un-merged: a table's
// un-merged rows are the logical rows its current version holds beyond the
// last merged version's.
type Ingest struct {
	db *DB
	// limit bounds a table's un-merged rows: the append that reaches it
	// merges before it returns. 0 means merges are only run explicitly.
	limit int

	mu sync.Mutex
	// base is the last merged version — the loaded state until a merge
	// commits — that un-merged rows are counted against.
	base       *snapState
	merges     int64
	mergedRows int64

	cur atomic.Pointer[snapState]
}

// snapState is one immutable published version: every table in the
// scheme's layout (under BDCC a designed table's entry stays its load
// source; its clustering is what is scanned), the clustering, and the rows
// it holds beyond the last merged version.
type snapState struct {
	epoch      int64
	tables     map[string]*storage.Table
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
// 0, and the DB keeps no version of its own: its Tables and Clustered move
// into that version, which the first merge replaces and lets go, and every
// read of the DB answers for the current version (Snapshot).
func (db *DB) EnableIngest(limit int) (*Ingest, error) {
	if db.ing != nil {
		return nil, fmt.Errorf("plan: ingest already enabled on this %s database", db.Scheme)
	}
	if db.snap != nil {
		return nil, fmt.Errorf("plan: cannot enable ingest on a pinned snapshot")
	}
	ing := &Ingest{db: db, limit: limit, base: &snapState{tables: db.Tables, clustered: db.Clustered}}
	ing.cur.Store(ing.base)
	db.Tables, db.Clustered, db.ing = nil, nil, ing
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

// nextViews builds the version that additionally holds batch in table:
// every other table is shared with the current version. The table's previous
// view (which already holds the older delta rows) and the batch are spliced
// as runs, copying no row: a designed table's clustering under BDCC by
// core.MergeBDCCTable, any other table's layout by placeBatch's runs. Under
// BDCC every append also extends the key→bin indexes of the hops that
// reference table, and that comes first, so a rejected batch has claimed
// nothing. Nothing is published or stored. Caller holds mu.
func (ing *Ingest) nextViews(table string, batch *storage.Table) (*snapState, error) {
	prev, db := ing.cur.Load(), ing.db
	next := &snapState{
		epoch:      prev.epoch + 1,
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
	t := prev.tables[table]
	step, err := placeBatch(t, batch, db.SortedBy[table])
	if err != nil {
		return nil, err
	}
	next.tables = maps.Clone(prev.tables)
	if next.tables[table], err = storage.Splice(t, t.Rows(), batch, step); err != nil {
		return nil, err
	}
	return next, nil
}

// placeBatch returns the runs over t's rows (source 0) and batch's (source 1)
// that lay them out in t's order. With no sort columns the batch goes behind
// every row. Otherwise t is sorted on keys: each batch row, in the stable
// order of its keys, lands behind t's rows whose keys are at or below its own,
// found by binary search reading one of t's rows at a time. That is the order
// a stable re-sort of t's insertion order and the batch gives, since every
// row of t arrived before the batch.
func placeBatch(t, batch *storage.Table, keys []string) ([]storage.Run, error) {
	n := t.Rows()
	if len(keys) == 0 {
		return storage.AppendRun(storage.AppendRun(nil, 0, 0, int32(n)), 1, 0, int32(batch.Rows())), nil
	}
	batchKeys, err := core.KeyValues(batch, keys, 0, batch.Rows())
	if err != nil {
		return nil, fmt.Errorf("plan: pk sort of %s: %w", t.Name, err)
	}
	var step []storage.Run
	prev := 0
	for _, d := range sortPermByKeys(batchKeys) {
		at := prev + sort.Search(n-prev, func(i int) bool {
			// t has batch's columns (storage.Delta), so t's keys read as batch's did.
			k, _ := core.KeyValues(t, keys, prev+i, prev+i+1)
			return k[0].Compare(batchKeys[d]) > 0
		})
		step = storage.AppendRun(storage.AppendRun(step, 0, int32(prev), int32(at-prev)), 1, d, 1)
		prev = at
	}
	return storage.AppendRun(step, 0, int32(prev), int32(n-prev)), nil
}

// Merge publishes the current version with every table holding un-merged
// rows re-encoded where its view's root is compressed and gathered where it
// is not (storage.Table.Merged). The appends already built those views in the
// scheme's own layout — PK sorted, BDCC spliced into the clustering — so a
// merge re-bins and re-sorts nothing. Readers keep whatever version they
// pinned. A merge cannot fail: the error is always nil.
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
	next := &snapState{epoch: cur.epoch + 1, tables: maps.Clone(cur.tables), clustered: cur.clustered}
	var clustered map[string]*core.BDCCTable
	for table := range cur.tables {
		if ing.unmerged(cur, table) == 0 {
			continue
		}
		bt := clusteredTable(cur.clustered, table)
		if bt == nil {
			next.tables[table] = cur.tables[table].Merged()
			continue
		}
		if clustered == nil {
			clustered = maps.Clone(cur.clustered.Tables)
		}
		clustered[table] = bt.Consolidated(bt.Data.Merged())
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

func clusteredTable(db *core.Database, name string) *core.BDCCTable {
	if db == nil {
		return nil
	}
	return db.Tables[name]
}
