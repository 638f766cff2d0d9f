package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync/atomic"

	"bdcc/internal/catalog"
	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// KeyBins is the key→bin index of one hop of a dimension path: it maps the
// single int64 key of the table the hop's foreign key references to the
// full-granularity bin reached over the rest of the path. Keys ascend and
// are distinct. The value→bin mapping is a property of the materialized
// design, not of a query: indexes are built with the design, extended when
// the referenced table takes an append, and immutable per version, so every
// snapshot, planner and session reads them without a lock.
type KeyBins struct {
	Keys []int64
	Bins []uint64
	tip  atomic.Bool // no extension has appended past Keys and Bins yet
}

// AddBins adds the bins of the given keys to set. Keys must ascend; keys
// the index does not hold are skipped.
func (x *KeyBins) AddBins(set BinSet, keys []int64) {
	n := len(x.Keys)
	pos := 0 // every index key before pos is below the current probe key
	for _, k := range keys {
		// Gallop: probe at doubling distances until an index key reaches k,
		// then search the last window. A probe set as dense as the index
		// costs a step or two per key, a sparse one log(gap).
		hi := pos
		for step := 1; hi < n && x.Keys[hi] < k; step *= 2 {
			pos = hi + 1
			hi += step
		}
		i, _ := slices.BinarySearch(x.Keys[pos:min(hi, n)], k)
		pos += i
		if pos < n && x.Keys[pos] == k {
			set.Add(x.Bins[pos])
		}
	}
}

// extended returns the index that additionally maps keys[i] to bins[i]; on
// a repeated key the later row wins, as in the foreign-key maps. x may be
// nil (a fresh index) and is not modified. The first extension of x whose
// keys all lie above its last appends past x's arrays, so ascending keys
// (TPC-H's arrivals) cost the batch; any other copies x with room for half
// as many keys again, so a key is copied O(1) times over a chain.
func (x *KeyBins) extended(keys []int64, bins []uint64) *KeyBins {
	type pair struct {
		k int64
		b uint64
	}
	add := make([]pair, len(keys))
	for i, k := range keys {
		add[i] = pair{k, bins[i]}
	}
	slices.SortStableFunc(add, func(a, b pair) int { return cmp.Compare(a.k, b.k) })
	old, out, i := x, &KeyBins{}, 0
	if old == nil {
		old = &KeyBins{}
	}
	if n := len(old.Keys); (len(add) == 0 || n == 0 || add[0].k > old.Keys[n-1]) && old.tip.CompareAndSwap(true, false) {
		out.Keys, out.Bins, i = old.Keys, old.Bins, n // add goes past them
	} else {
		n += len(add)
		out.Keys, out.Bins = make([]int64, 0, n+n/2), make([]uint64, 0, n+n/2)
	}
	out.tip.Store(true)
	put := func(k int64, b uint64) {
		if n := len(out.Keys); n > 0 && out.Keys[n-1] == k {
			out.Bins[n-1] = b
			return
		}
		out.Keys = append(out.Keys, k)
		out.Bins = append(out.Bins, b)
	}
	for _, p := range add {
		for ; i < len(old.Keys) && old.Keys[i] <= p.k; i++ {
			put(old.Keys[i], old.Bins[i])
		}
		put(p.k, p.b)
	}
	for ; i < len(old.Keys); i++ {
		put(old.Keys[i], old.Bins[i])
	}
	return out
}

// KeyBins returns the index of the hop that leaves over path[0] and reaches
// dimension dim over the rest of path, or nil when the design has no such
// hop or its foreign key is not a single int64 column. Two uses that share a
// first foreign key and then diverge have different paths, hence different
// indexes.
func (db *Database) KeyBins(dim string, path []string) *KeyBins {
	return db.keyBins[keyBinsKey(dim, path)]
}

func keyBinsKey(dim string, path []string) string {
	return dim + "|" + strings.Join(path, ".")
}

// bin returns the bin of key k.
func (x *KeyBins) bin(k int64) (uint64, bool) {
	i, ok := slices.BinarySearch(x.Keys, k)
	if !ok {
		return 0, false
	}
	return x.Bins[i], true
}

// useBins resolves per-row dimension bins with the database's dimensions,
// once per (table, dimension, path). Over whole stored tables (batch nil)
// it walks the foreign-key paths with a Resolver, and the key→bin indexes
// are assembled from the bins the table bindings already computed. Over a
// freshly appended batch it reads those indexes instead, so binding costs
// the batch and not the tables its paths cross.
type useBins struct {
	schema *catalog.Schema
	db     *Database
	memo   map[string][]uint64
	res    *Resolver

	// batch, when set, is the one table the binder covers the rows of: the
	// resolver holds it in place of its table.
	batch *storage.Table
}

func newUseBins(schema *catalog.Schema, tables map[string]*storage.Table, db *Database) *useBins {
	return &useBins{schema: schema, db: db, memo: make(map[string][]uint64), res: NewResolver(schema, tables)}
}

// newBatchBins returns the binder of batch, rows appended to table, over
// the stored form of every other table: its clustering's rows where db has
// one, its entry in tables otherwise.
func newBatchBins(schema *catalog.Schema, tables map[string]*storage.Table, db *Database, table string, batch *storage.Table) *useBins {
	stored := make(map[string]*storage.Table, len(tables)+len(db.Tables))
	maps.Copy(stored, tables)
	for name, bt := range db.Tables {
		stored[name] = bt.Data
	}
	stored[table] = batch
	b := newUseBins(schema, stored, db)
	b.batch = batch
	return b
}

// of returns, for every covered row of table, the bin of dimension us.Dim
// reached over us.Path.
func (b *useBins) of(table string, us UseSpec) ([]uint64, error) {
	k := table + "|" + keyBinsKey(us.Dim, us.Path)
	if bins, ok := b.memo[k]; ok {
		return bins, nil
	}
	var bins []uint64
	var err error
	if b.batch == nil {
		bins, err = binsForUse(b.res, b.db, table, us)
	} else {
		bins, err = b.batchBins(table, us)
	}
	if err != nil {
		return nil, err
	}
	b.memo[k] = bins
	return bins, nil
}

// batchBins bins the batch's rows, those of table, for one use: a local
// dimension bins the batch's own key columns, a path leaves over its first
// foreign key through the key→bin index of that hop. A key the index does not
// hold is a dangling reference — parents arrive, and extend the index, before
// their children. Only a hop without an index (a composite or non-int64
// foreign key) walks the stored tables, resolving the batch's keys by value.
func (b *useBins) batchBins(table string, us UseSpec) ([]uint64, error) {
	dim := b.db.Dimensions[us.Dim]
	if len(us.Path) == 0 {
		keys, err := KeyValues(b.batch, dim.Key, 0, b.batch.Rows())
		if err != nil {
			return nil, err
		}
		bins := make([]uint64, len(keys))
		for i, k := range keys {
			bins[i] = dim.BinOf(k)
		}
		return bins, nil
	}
	idx := b.db.KeyBins(us.Dim, us.Path)
	if idx == nil {
		return binsForUse(b.res, b.db, table, us)
	}
	fk := b.schema.FK(us.Path[0]) // the index was built over it
	col, err := b.batch.Column(fk.Cols[0])
	if err != nil {
		return nil, err
	}
	if col.Kind != vector.Int64 {
		return nil, fmt.Errorf("core: foreign key %s: only int64 single-column keys supported, got %s", fk.Name, col.Kind)
	}
	keys := col.Values().I64
	bins := make([]uint64, len(keys))
	for i, v := range keys {
		bin, ok := idx.bin(v)
		if !ok {
			return nil, fmt.Errorf("core: foreign key %s: value %d of %s.%s has no match in %s.%s",
				fk.Name, v, fk.Table, fk.Cols[0], fk.RefTable, fk.RefCols[0])
		}
		bins[i] = bin
	}
	return bins, nil
}

// bind returns the use bindings of one designed table for its covered rows.
func (b *useBins) bind(table string) ([]UseBinding, error) {
	td := b.db.Design.Table(table)
	if td == nil {
		return nil, fmt.Errorf("core: table %s has no BDCC design", table)
	}
	uses := make([]UseBinding, len(td.Uses))
	for i, us := range td.Uses {
		dim := b.db.Dimensions[us.Dim]
		if dim == nil {
			return nil, fmt.Errorf("core: table %s uses unknown dimension %s", table, us.Dim)
		}
		bins, err := b.of(table, us)
		if err != nil {
			return nil, err
		}
		uses[i] = UseBinding{Dim: dim, Path: us.Path, BinNos: bins}
	}
	return uses, nil
}

// keyBins returns, for every hop of the design whose foreign key references
// refTable ("" means any table) by a single int64 column, the database's
// index extended by the keys and bins of the referenced table's covered rows.
func (b *useBins) keyBins(refTable string) (map[string]*KeyBins, error) {
	out := make(map[string]*KeyBins)
	for _, td := range b.db.Design.Tables {
		for _, us := range td.Uses {
			for h, fkName := range us.Path {
				fk := b.schema.FK(fkName)
				if fk == nil || len(fk.RefCols) != 1 || (refTable != "" && fk.RefTable != refTable) {
					continue
				}
				k := keyBinsKey(us.Dim, us.Path[h:])
				if out[k] != nil {
					continue
				}
				ref, err := b.res.Table(fk.RefTable)
				if err != nil {
					return nil, err
				}
				keys, err := ref.Column(fk.RefCols[0])
				if err != nil {
					return nil, err
				}
				if keys.Kind != vector.Int64 {
					continue
				}
				bins, err := b.of(fk.RefTable, UseSpec{Dim: us.Dim, Path: us.Path[h+1:]})
				if err != nil {
					return nil, err
				}
				out[k] = b.db.keyBins[k].extended(keys.Values().I64, bins)
			}
		}
	}
	return out, nil
}

// AppendRows returns the database that additionally holds batch, rows
// appended to table: the table's clustering takes them by the MergeBDCCTable
// splice (when the table has a design) and every key→bin index whose hop
// references the table gains their keys. This is the one place an append is
// priced: the batch, the runs of the table's clustered view and its keys
// appended since the last merge, no row copied and nothing of a table's
// length built. The batch's bins come from its own key columns and from the
// indexes (see batchBins), so no other table is read: only a hop that has no
// index reads the clusterings, and tables for a table without a design.
// Parents must be appended before the children that reference them.
// Everything else is shared with db, which is not modified.
func (db *Database) AppendRows(schema *catalog.Schema, tables map[string]*storage.Table, table string, batch *storage.Table, opt BuildOptions) (*Database, error) {
	b := newBatchBins(schema, tables, db, table, batch)
	out := *db
	if bt := db.Tables[table]; bt != nil {
		uses, err := b.bind(table)
		if err != nil {
			return nil, err
		}
		merged, err := MergeBDCCTable(bt, batch, uses, opt)
		if err != nil {
			return nil, err
		}
		if err := merged.Validate(); err != nil {
			return nil, err
		}
		out.Tables = maps.Clone(db.Tables)
		out.Tables[table] = merged
	}
	ext, err := b.keyBins(table)
	if err != nil {
		return nil, err
	}
	if len(ext) > 0 {
		out.keyBins = make(map[string]*KeyBins, len(db.keyBins))
		maps.Copy(out.keyBins, db.keyBins)
		maps.Copy(out.keyBins, ext)
	}
	return &out, nil
}
