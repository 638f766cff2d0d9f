package core

import (
	"fmt"
	"strings"

	"bdcc/internal/catalog"
	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// Resolver resolves foreign-key paths between stored tables: for a child
// table row it finds the matching row of the referenced table, following a
// dimension path edge by edge. Lookup tables are built once per foreign key
// and cached.
type Resolver struct {
	schema *catalog.Schema
	tables map[string]*storage.Table
	fkMaps map[string][]int32
}

// NewResolver returns a resolver over the stored tables of a schema.
func NewResolver(schema *catalog.Schema, tables map[string]*storage.Table) *Resolver {
	return &Resolver{schema: schema, tables: tables, fkMaps: make(map[string][]int32)}
}

// Table returns the stored table registered under name.
func (r *Resolver) Table(name string) (*storage.Table, error) {
	t, ok := r.tables[name]
	if !ok {
		return nil, fmt.Errorf("core: no stored table %q", name)
	}
	return t, nil
}

// FKMap returns, for the named foreign key, the parent row index of every
// child row. It errors on dangling references.
func (r *Resolver) FKMap(fkName string) ([]int32, error) {
	if m, ok := r.fkMaps[fkName]; ok {
		return m, nil
	}
	fk := r.schema.FK(fkName)
	if fk == nil {
		return nil, fmt.Errorf("core: unknown foreign key %q", fkName)
	}
	child, err := r.Table(fk.Table)
	if err != nil {
		return nil, err
	}
	parent, err := r.Table(fk.RefTable)
	if err != nil {
		return nil, err
	}
	m, err := buildFKMap(child, parent, fk)
	if err != nil {
		return nil, err
	}
	r.fkMaps[fkName] = m
	return m, nil
}

func buildFKMap(child, parent *storage.Table, fk *catalog.ForeignKey) ([]int32, error) {
	if len(fk.Cols) == 1 {
		pc, err := parent.Column(fk.RefCols[0])
		if err != nil {
			return nil, err
		}
		cc, err := child.Column(fk.Cols[0])
		if err != nil {
			return nil, err
		}
		if pc.Kind != vector.Int64 || cc.Kind != vector.Int64 {
			return nil, fmt.Errorf("core: foreign key %s: only int64 single-column keys supported, got %s/%s",
				fk.Name, cc.Kind, pc.Kind)
		}
		idx := make(map[int64]int32, len(pc.I64))
		for i, v := range pc.I64 {
			idx[v] = int32(i)
		}
		out := make([]int32, len(cc.I64))
		for i, v := range cc.I64 {
			p, ok := idx[v]
			if !ok {
				return nil, fmt.Errorf("core: foreign key %s: value %d of %s.%s has no match in %s.%s",
					fk.Name, v, fk.Table, fk.Cols[0], fk.RefTable, fk.RefCols[0])
			}
			out[i] = p
		}
		return out, nil
	}
	// Composite key: encode parts into a string key.
	pidx := make(map[string]int32, parent.Rows())
	penc, err := rowEncoder(parent, fk.RefCols)
	if err != nil {
		return nil, err
	}
	for i := 0; i < parent.Rows(); i++ {
		pidx[penc(i)] = int32(i)
	}
	cenc, err := rowEncoder(child, fk.Cols)
	if err != nil {
		return nil, err
	}
	out := make([]int32, child.Rows())
	for i := range out {
		p, ok := pidx[cenc(i)]
		if !ok {
			return nil, fmt.Errorf("core: foreign key %s: row %d of %s has no match in %s",
				fk.Name, i, fk.Table, fk.RefTable)
		}
		out[i] = p
	}
	return out, nil
}

// rowEncoder returns a function encoding the named columns of row i into a
// map key.
func rowEncoder(t *storage.Table, cols []string) (func(int) string, error) {
	cs := make([]*storage.Column, len(cols))
	for i, name := range cols {
		c, err := t.Column(name)
		if err != nil {
			return nil, err
		}
		cs[i] = c
	}
	return func(row int) string {
		var b strings.Builder
		for _, c := range cs {
			switch c.Kind {
			case vector.Int64:
				fmt.Fprintf(&b, "%d|", c.I64[row])
			case vector.Float64:
				fmt.Fprintf(&b, "%g|", c.F64[row])
			case vector.String:
				fmt.Fprintf(&b, "%s|", c.Str.At(row))
			}
		}
		return b.String()
	}, nil
}

// HostRows composes the foreign-key maps along a dimension path: the result
// maps each row of the using table to its row in the path's target (host)
// table. An empty path is the identity.
func (r *Resolver) HostRows(table string, path []string) ([]int32, error) {
	t, err := r.Table(table)
	if err != nil {
		return nil, err
	}
	cur := make([]int32, t.Rows())
	for i := range cur {
		cur[i] = int32(i)
	}
	for _, fkName := range path {
		m, err := r.FKMap(fkName)
		if err != nil {
			return nil, err
		}
		for i, p := range cur {
			cur[i] = m[p]
		}
	}
	return cur, nil
}

// KeyValues extracts the key value of every row of a stored table.
func KeyValues(t *storage.Table, key []string) ([]KeyVal, error) {
	kc := keyCols{}
	for _, name := range key {
		c, err := t.Column(name)
		if err != nil {
			return nil, err
		}
		kc.kinds = append(kc.kinds, c.Kind)
		switch c.Kind {
		case vector.Int64:
			kc.i64 = append(kc.i64, c.I64)
			kc.str = append(kc.str, vector.Heap{})
		case vector.String:
			kc.i64 = append(kc.i64, nil)
			kc.str = append(kc.str, c.Str)
		default:
			return nil, fmt.Errorf("core: dimension key column %q has unsupported kind %s", name, c.Kind)
		}
	}
	out := make([]KeyVal, t.Rows())
	for i := range out {
		out[i] = kc.at(i)
	}
	return out, nil
}
