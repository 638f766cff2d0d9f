// Package catalog holds logical schema metadata: table and column
// definitions, primary keys, declared foreign keys and CREATE INDEX
// declarations. The paper's Algorithm 2 consumes exactly this information —
// "our approach is based on the assumption that initially foreign key
// relationships and a set of dimensions are defined based on classic DDL" —
// so the catalog also ships a small DDL parser (ddl.go) covering the subset
// the paper relies on.
package catalog

import (
	"fmt"
	"strings"

	"bdcc/internal/vector"
)

// Column is a named, typed column of a table definition. A DECIMAL column
// is Int64 at its declared scale.
type Column struct {
	Name  string
	Kind  vector.Kind
	Scale uint8
}

// ForeignKey is a declared foreign key edge of the schema graph. Name is the
// identifier used in dimension paths (the paper's FK_T1_T2 notation).
type ForeignKey struct {
	Name     string
	Table    string
	Cols     []string
	RefTable string
	RefCols  []string
}

// String implements fmt.Stringer.
func (fk *ForeignKey) String() string { return fk.Name }

// Index is a CREATE INDEX declaration. Algorithm 2 treats these purely as
// schema-design hints: an index whose columns equal a foreign key means
// "inherit the referenced table's dimensions"; any other index introduces a
// new dimension on its key.
type Index struct {
	Name  string
	Table string
	Cols  []string
}

// TableDef is the logical definition of one table.
type TableDef struct {
	Name        string
	Columns     []Column
	PrimaryKey  []string
	ForeignKeys []*ForeignKey
	Indexes     []*Index
}

// Column returns the named column definition, or nil.
func (t *TableDef) Column(name string) *Column {
	for i := range t.Columns {
		if t.Columns[i].Name == name {
			return &t.Columns[i]
		}
	}
	return nil
}

// Schema is a set of table definitions plus the foreign-key graph over them.
type Schema struct {
	tables map[string]*TableDef
	order  []string // declaration order
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{tables: make(map[string]*TableDef)}
}

// AddTable registers a table definition. Table names are case-insensitive
// and stored lower-case.
func (s *Schema) AddTable(t *TableDef) error {
	t.Name = strings.ToLower(t.Name)
	if _, dup := s.tables[t.Name]; dup {
		return fmt.Errorf("catalog: duplicate table %q", t.Name)
	}
	seen := make(map[string]bool, len(t.Columns))
	for i := range t.Columns {
		t.Columns[i].Name = strings.ToLower(t.Columns[i].Name)
		if seen[t.Columns[i].Name] {
			return fmt.Errorf("catalog: table %q: duplicate column %q", t.Name, t.Columns[i].Name)
		}
		seen[t.Columns[i].Name] = true
	}
	for _, pk := range t.PrimaryKey {
		if t.Column(strings.ToLower(pk)) == nil {
			return fmt.Errorf("catalog: table %q: primary key column %q undefined", t.Name, pk)
		}
	}
	s.tables[t.Name] = t
	s.order = append(s.order, t.Name)
	return nil
}

// Table returns the named table definition or nil.
func (s *Schema) Table(name string) *TableDef {
	return s.tables[strings.ToLower(name)]
}

// Tables returns all table definitions in declaration order.
func (s *Schema) Tables() []*TableDef {
	out := make([]*TableDef, len(s.order))
	for i, n := range s.order {
		out[i] = s.tables[n]
	}
	return out
}

// AddForeignKey attaches a validated foreign key to its source table. An
// empty name is defaulted to fk_<table>_<reftable>.
func (s *Schema) AddForeignKey(fk *ForeignKey) error {
	fk.Table = strings.ToLower(fk.Table)
	fk.RefTable = strings.ToLower(fk.RefTable)
	lower(fk.Cols)
	lower(fk.RefCols)
	src := s.tables[fk.Table]
	if src == nil {
		return fmt.Errorf("catalog: foreign key on unknown table %q", fk.Table)
	}
	ref := s.tables[fk.RefTable]
	if ref == nil {
		return fmt.Errorf("catalog: foreign key references unknown table %q", fk.RefTable)
	}
	if len(fk.Cols) == 0 || len(fk.Cols) != len(fk.RefCols) {
		return fmt.Errorf("catalog: foreign key %s(%v) -> %s(%v): column count mismatch",
			fk.Table, fk.Cols, fk.RefTable, fk.RefCols)
	}
	for _, c := range fk.Cols {
		if src.Column(c) == nil {
			return fmt.Errorf("catalog: foreign key column %q undefined in %q", c, fk.Table)
		}
	}
	for _, c := range fk.RefCols {
		if ref.Column(c) == nil {
			return fmt.Errorf("catalog: referenced column %q undefined in %q", c, fk.RefTable)
		}
	}
	if fk.Name == "" {
		fk.Name = fmt.Sprintf("fk_%s_%s", fk.Table, fk.RefTable)
	}
	fk.Name = strings.ToLower(fk.Name)
	for _, other := range src.ForeignKeys {
		if other.Name == fk.Name {
			return fmt.Errorf("catalog: duplicate foreign key name %q on %q", fk.Name, fk.Table)
		}
	}
	src.ForeignKeys = append(src.ForeignKeys, fk)
	return nil
}

// AddIndex attaches a CREATE INDEX declaration to its table.
func (s *Schema) AddIndex(ix *Index) error {
	ix.Table = strings.ToLower(ix.Table)
	ix.Name = strings.ToLower(ix.Name)
	lower(ix.Cols)
	t := s.tables[ix.Table]
	if t == nil {
		return fmt.Errorf("catalog: index %q on unknown table %q", ix.Name, ix.Table)
	}
	for _, c := range ix.Cols {
		if t.Column(c) == nil {
			return fmt.Errorf("catalog: index %q: column %q undefined in %q", ix.Name, c, ix.Table)
		}
	}
	t.Indexes = append(t.Indexes, ix)
	return nil
}

// FK returns the foreign key with the given name anywhere in the schema,
// or nil.
func (s *Schema) FK(name string) *ForeignKey {
	name = strings.ToLower(name)
	for _, t := range s.tables {
		for _, fk := range t.ForeignKeys {
			if fk.Name == name {
				return fk
			}
		}
	}
	return nil
}

// TopoOrder returns table names ordered so that every table appears after
// all tables it references ("traverse the schema DAG from the leaves"). It
// returns an error if the foreign-key graph has a cycle.
func (s *Schema) TopoOrder() ([]string, error) {
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var out []string
	var visit func(name string) error
	visit = func(name string) error {
		switch state[name] {
		case 1:
			return fmt.Errorf("catalog: foreign-key cycle through %q", name)
		case 2:
			return nil
		}
		state[name] = 1
		for _, fk := range s.tables[name].ForeignKeys {
			if fk.RefTable != name { // tolerate self-references
				if err := visit(fk.RefTable); err != nil {
					return err
				}
			}
		}
		state[name] = 2
		out = append(out, name)
		return nil
	}
	for _, n := range s.order {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// IndexMatchesFK reports whether the index column set equals the foreign
// key's column set (order-insensitive), the condition under which Algorithm 2
// inherits the referenced table's dimension uses.
func IndexMatchesFK(ix *Index, fk *ForeignKey) bool {
	if len(ix.Cols) != len(fk.Cols) {
		return false
	}
	m := make(map[string]bool, len(fk.Cols))
	for _, c := range fk.Cols {
		m[c] = true
	}
	for _, c := range ix.Cols {
		if !m[c] {
			return false
		}
	}
	return true
}

func lower(ss []string) {
	for i := range ss {
		ss[i] = strings.ToLower(ss[i])
	}
}
