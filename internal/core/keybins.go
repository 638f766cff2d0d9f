package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"

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
// nil (a fresh index) and is not modified.
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
	var old KeyBins
	if x != nil {
		old = *x
	}
	out := &KeyBins{
		Keys: make([]int64, 0, len(old.Keys)+len(add)),
		Bins: make([]uint64, 0, len(old.Keys)+len(add)),
	}
	put := func(k int64, b uint64) {
		if n := len(out.Keys); n > 0 && out.Keys[n-1] == k {
			out.Bins[n-1] = b
			return
		}
		out.Keys = append(out.Keys, k)
		out.Bins = append(out.Bins, b)
	}
	i := 0
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

// useBins resolves per-row dimension bins over one set of stored tables with
// the database's dimensions, once per (table, dimension, path): the key→bin
// indexes are assembled from the bins the table bindings already computed.
type useBins struct {
	res  *Resolver
	db   *Database
	memo map[string][]uint64
}

func newUseBins(res *Resolver, db *Database) *useBins {
	return &useBins{res: res, db: db, memo: make(map[string][]uint64)}
}

// of returns, for every row of table, the bin of dimension us.Dim reached
// over us.Path.
func (b *useBins) of(table string, us UseSpec) ([]uint64, error) {
	k := table + "|" + keyBinsKey(us.Dim, us.Path)
	if bins, ok := b.memo[k]; ok {
		return bins, nil
	}
	bins, err := binsForUse(b.res, b.db, table, us)
	if err != nil {
		return nil, err
	}
	b.memo[k] = bins
	return bins, nil
}

// bind returns the use bindings of one designed table for its rows from row
// `from` on.
func (b *useBins) bind(table string, from int) ([]UseBinding, error) {
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
		uses[i] = UseBinding{Dim: dim, Path: us.Path, BinNos: bins[from:]}
	}
	return uses, nil
}

// keyBins returns, for every hop of the design whose foreign key references
// refTable ("" means any table) by a single int64 column, the database's
// index extended by the referenced table's rows from row `from` on.
func (b *useBins) keyBins(refTable string, from int) (map[string]*KeyBins, error) {
	out := make(map[string]*KeyBins)
	for _, td := range b.db.Design.Tables {
		for _, us := range td.Uses {
			for h, fkName := range us.Path {
				fk := b.res.schema.FK(fkName)
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
				out[k] = b.db.keyBins[k].extended(keys.I64[from:], bins[from:])
			}
		}
	}
	return out, nil
}

// AppendRows returns the database that additionally holds rows [from, n) of
// tables[table], which delta carries: the table's clustering takes them by
// the MergeBDCCTable splice (when the table has a design) and every key→bin
// index whose hop references the table gains their keys. tables are the
// combined stored tables, so fresh rows may reference fresh parents.
// Everything else is shared with db, which is not modified.
func (db *Database) AppendRows(schema *catalog.Schema, tables map[string]*storage.Table, table string, from int, delta *storage.Table, opt BuildOptions) (*Database, error) {
	b := newUseBins(NewResolver(schema, tables), db)
	out := *db
	if bt := db.Tables[table]; bt != nil {
		if int(bt.Rows()) != from {
			return nil, fmt.Errorf("core: clustered %s holds %d rows, append starts at row %d", table, bt.Rows(), from)
		}
		uses, err := b.bind(table, from)
		if err != nil {
			return nil, err
		}
		merged, err := MergeBDCCTable(bt, delta, uses, opt)
		if err != nil {
			return nil, err
		}
		if err := merged.Validate(); err != nil {
			return nil, err
		}
		out.Tables = maps.Clone(db.Tables)
		out.Tables[table] = merged
	}
	ext, err := b.keyBins(table, from)
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
