package plan

import (
	"fmt"
	"sort"

	"bdcc/internal/catalog"
	"bdcc/internal/core"
	"bdcc/internal/iosim"
	"bdcc/internal/storage"
)

// Scheme identifies a physical storage scheme.
type Scheme int

const (
	// Plain is the unindexed baseline: tables in insertion order.
	Plain Scheme = iota
	// PK sorts every table on its primary key (the paper's second baseline).
	PK
	// BDCC is the paper's co-clustered scheme.
	BDCC
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case Plain:
		return "plain"
	case PK:
		return "pk"
	case BDCC:
		return "bdcc"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// DB is one physical database the planner lowers against: the stored tables
// in the scheme's layout plus scheme-specific metadata. Once EnableIngest was
// called the DB holds no version of its own: its tables live in the ingest
// state's versions, a query reads one through Snapshot, and StoredTable,
// BDCCTable, CompressionStats and Rows answer for the current one.
type DB struct {
	Scheme Scheme
	Schema *catalog.Schema
	// Tables holds the scheme's layout of every table. Under BDCC, a table
	// with a design is held by Clustered, whose Data is what gets scanned;
	// its entry here is the source the load built it from, which appends do
	// not reach. Tables without a design (REGION) are scanned from this map.
	// Schemes share a table their layouts agree on: none changes in place.
	Tables map[string]*storage.Table
	// SortedBy lists the sort columns per table (nil except under PK). It is
	// the one place the planner reads a stored table's order from.
	SortedBy map[string][]string
	// Clustered is the materialized BDCC design (nil except under BDCC).
	Clustered *core.Database
	// Device is the modeled storage device.
	Device iosim.Device
	// ing is the ingest state once EnableIngest was called.
	ing *Ingest
	// snap marks a pinned snapshot copy and carries its version metadata.
	snap *snapState
}

// NewPlainDB wraps insertion-order tables as the plain scheme.
func NewPlainDB(schema *catalog.Schema, tables map[string]*storage.Table, dev iosim.Device) *DB {
	return &DB{Scheme: Plain, Schema: schema, Tables: tables, Device: dev}
}

// NewPKDB sorts every table on its primary key (composite keys
// lexicographically) and returns the PK scheme database. A table already in
// key order (every TPC-H table but partsupp) is held as given, not copied.
func NewPKDB(schema *catalog.Schema, tables map[string]*storage.Table, dev iosim.Device) (*DB, error) {
	out := make(map[string]*storage.Table, len(tables))
	sortedBy := make(map[string][]string)
	for name, t := range tables {
		def := schema.Table(name)
		if def == nil || len(def.PrimaryKey) == 0 {
			out[name] = t
			continue
		}
		keys, err := core.KeyValues(t, def.PrimaryKey, 0, t.Rows())
		if err != nil {
			return nil, fmt.Errorf("plan: pk sort of %s: %w", name, err)
		}
		perm := sortPermByKeys(keys)
		st, err := t.Permute(perm)
		if err != nil {
			return nil, err
		}
		out[name] = st
		sortedBy[name] = append([]string(nil), def.PrimaryKey...)
	}
	return &DB{Scheme: PK, Schema: schema, Tables: out, SortedBy: sortedBy, Device: dev}, nil
}

// NewBDCCDB materializes the BDCC design over the given tables using the
// advisor (Algorithm 2) and builder (Algorithm 1).
func NewBDCCDB(schema *catalog.Schema, tables map[string]*storage.Table, dev iosim.Device, opt core.BuildOptions) (*DB, error) {
	adv := &core.Advisor{Schema: schema}
	design, err := adv.Design()
	if err != nil {
		return nil, err
	}
	if opt.Device.PageSize == 0 {
		opt.Device = dev
	}
	b := &core.Builder{Schema: schema, Tables: tables, Options: opt}
	db, err := b.Build(design)
	if err != nil {
		return nil, err
	}
	return &DB{Scheme: BDCC, Schema: schema, Tables: tables, Clustered: db, Device: dev}, nil
}

// sortPermByKeys returns the stable sort permutation of composite keys.
func sortPermByKeys(keys []core.KeyVal) []int32 {
	perm := make([]int32, len(keys))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool { return keys[perm[a]].Compare(keys[perm[b]]) < 0 })
	return perm
}

// StoredTable returns the scannable layout of a table under this scheme:
// the BDCC-clustered data when available, the scheme layout otherwise.
func (db *DB) StoredTable(name string) (*storage.Table, error) {
	db = db.Snapshot()
	if bt := db.BDCCTable(name); bt != nil {
		return bt.Data, nil
	}
	t, ok := db.Tables[name]
	if !ok {
		return nil, fmt.Errorf("plan: unknown table %q", name)
	}
	return t, nil
}

// Rows returns the logical rows of a table, 0 for an unknown one: its
// clustering's under BDCC (whose Data also holds relocated duplicates), its
// layout's otherwise.
func (db *DB) Rows(name string) int {
	db = db.Snapshot()
	return logicalRows(db.Tables, db.Clustered, name)
}

// logicalRows returns the logical rows of a table held by tables and, where
// it has a design, by clustered; 0 when neither holds it.
func logicalRows(tables map[string]*storage.Table, clustered *core.Database, name string) int {
	if bt := clusteredTable(clustered, name); bt != nil {
		return int(bt.Rows())
	}
	if t, ok := tables[name]; ok {
		return t.Rows()
	}
	return 0
}

// CompressionStats sums the compression outcome over every scannable table
// of the scheme (the layout StoredTable serves — under BDCC the clustered
// data where a design exists, the plain layout otherwise). Zero-valued when
// the tables are uncompressed.
func (db *DB) CompressionStats() storage.CompressionStats {
	db = db.Snapshot()
	var s storage.CompressionStats
	for name := range db.Tables {
		t, err := db.StoredTable(name)
		if err != nil {
			continue
		}
		s.Add(t.CompressionStats())
	}
	return s
}

// BDCCTable returns a table's clustering: nil without a design, as outside BDCC.
func (db *DB) BDCCTable(name string) *core.BDCCTable {
	return clusteredTable(db.Snapshot().Clustered, name)
}
