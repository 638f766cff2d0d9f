package catalog_test

import (
	"testing"

	"bdcc/internal/catalog"
	"bdcc/internal/tpch"
)

// FuzzParseDDL feeds ParseDDL arbitrary scripts, seeded with the TPC-H
// schema and its BDCC hints and with truncations of them. Damage must stay
// an error, never a panic, and a script that parses must yield a schema
// whose keys, foreign keys and indexes all name columns that exist and
// whose foreign-key graph TopoOrder can walk.
func FuzzParseDDL(f *testing.F) {
	src := tpch.DDL + tpch.HintDDL
	f.Add(src)
	for i := 1; i < 16; i++ {
		f.Add(src[:len(src)*i/16])
	}
	f.Fuzz(func(t *testing.T, script string) {
		s, err := catalog.ParseDDL(script)
		if err != nil {
			return
		}
		for _, tab := range s.Tables() {
			if s.Table(tab.Name) != tab {
				t.Fatalf("table %q is not found under its own name", tab.Name)
			}
			has := func(what string, owner *catalog.TableDef, cols []string) {
				for _, c := range cols {
					if owner.Column(c) == nil {
						t.Fatalf("%s names column %q missing from %q", what, c, owner.Name)
					}
				}
			}
			has("primary key", tab, tab.PrimaryKey)
			for _, fk := range tab.ForeignKeys {
				ref := s.Table(fk.RefTable)
				if ref == nil || len(fk.Cols) == 0 || len(fk.Cols) != len(fk.RefCols) {
					t.Fatalf("foreign key %s: %v -> %q %v does not resolve", fk.Name, fk.Cols, fk.RefTable, fk.RefCols)
				}
				has("foreign key "+fk.Name, tab, fk.Cols)
				has("foreign key "+fk.Name, ref, fk.RefCols)
			}
			for _, ix := range tab.Indexes {
				has("index "+ix.Name, tab, ix.Cols)
			}
		}
		s.TopoOrder() // a cycle is an error, not a failure
	})
}
