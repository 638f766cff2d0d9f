package catalog

import (
	"strings"
	"testing"

	"bdcc/internal/vector"
)

const testDDL = `
-- comment line
CREATE TABLE region (r_regionkey INT, r_name VARCHAR(25), PRIMARY KEY (r_regionkey));
CREATE TABLE nation (
    n_nationkey INT NOT NULL,
    n_name      CHAR(25),
    n_regionkey INT,
    n_weight    DECIMAL(12,2),
    PRIMARY KEY (n_nationkey),
    CONSTRAINT fk_n_r FOREIGN KEY (n_regionkey) REFERENCES region);
CREATE INDEX nation_idx ON nation (n_regionkey, n_nationkey);
ALTER TABLE nation ADD CONSTRAINT fk_n_r2 FOREIGN KEY (n_regionkey) REFERENCES region (r_regionkey);
`

func TestParseDDL(t *testing.T) {
	s, err := ParseDDL(testDDL)
	if err != nil {
		t.Fatalf("ParseDDL: %v", err)
	}
	nation := s.Table("NATION") // case-insensitive lookup
	if nation == nil {
		t.Fatal("nation missing")
	}
	if len(nation.Columns) != 4 {
		t.Fatalf("nation has %d columns", len(nation.Columns))
	}
	if nation.Column("n_name").Kind != vector.String {
		t.Error("CHAR should map to string")
	}
	if nation.Column("n_weight").Kind != vector.Float64 {
		t.Error("DECIMAL should map to float64")
	}
	if nation.Column("n_nationkey").Kind != vector.Int64 {
		t.Error("INT should map to int64")
	}
	if len(nation.ForeignKeys) != 2 {
		t.Fatalf("nation has %d foreign keys, want 2 (inline + ALTER)", len(nation.ForeignKeys))
	}
	fk := s.FK("fk_n_r")
	if fk == nil || fk.RefTable != "region" || fk.RefCols[0] != "r_regionkey" {
		t.Errorf("fk_n_r = %+v (referenced columns default to the primary key)", fk)
	}
	if len(nation.Indexes) != 1 || len(nation.Indexes[0].Cols) != 2 {
		t.Errorf("nation indexes = %+v", nation.Indexes)
	}
}

func TestParseDDLErrors(t *testing.T) {
	cases := []string{
		"CREATE TABLE t (a NOSUCHTYPE)",
		"CREATE TABLE t (a INT, a INT)",
		"CREATE INDEX i ON missing (a)",
		"CREATE TABLE t (a INT, PRIMARY KEY (b))",
		"CREATE TABLE t (a INT, FOREIGN KEY (a) REFERENCES missing)",
		"CREATE TABLE t (a INT); CREATE TABLE t (b INT)",
		"DROP TABLE t",
		"CREATE TABLE t (a INT, FOREIGN KEY (a) REFERENCES t)", // no PK to default to
	}
	for _, ddl := range cases {
		if _, err := ParseDDL(ddl); err == nil {
			t.Errorf("ParseDDL(%q) should fail", ddl)
		}
	}
}

func TestTopoOrder(t *testing.T) {
	s, err := ParseDDL(`
CREATE TABLE a (ak INT, PRIMARY KEY (ak));
CREATE TABLE c (ck INT, ak INT, PRIMARY KEY (ck), CONSTRAINT fk_c_a FOREIGN KEY (ak) REFERENCES a);
CREATE TABLE b (bk INT, ck INT, PRIMARY KEY (bk), CONSTRAINT fk_b_c FOREIGN KEY (ck) REFERENCES c);
`)
	if err != nil {
		t.Fatal(err)
	}
	order, err := s.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if !(pos["a"] < pos["c"] && pos["c"] < pos["b"]) {
		t.Errorf("topo order = %v", order)
	}
}

func TestTopoOrderCycle(t *testing.T) {
	s := NewSchema()
	for _, n := range []string{"x", "y"} {
		if err := s.AddTable(&TableDef{Name: n, Columns: []Column{{Name: "k", Kind: vector.Int64}, {Name: "r", Kind: vector.Int64}}, PrimaryKey: []string{"k"}}); err != nil {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.AddForeignKey(&ForeignKey{Table: "x", Cols: []string{"r"}, RefTable: "y", RefCols: []string{"k"}}))
	must(s.AddForeignKey(&ForeignKey{Table: "y", Cols: []string{"r"}, RefTable: "x", RefCols: []string{"k"}}))
	if _, err := s.TopoOrder(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not detected: %v", err)
	}
}

func TestIndexMatchesFK(t *testing.T) {
	fk := &ForeignKey{Cols: []string{"a", "b"}}
	if !IndexMatchesFK(&Index{Cols: []string{"b", "a"}}, fk) {
		t.Error("order-insensitive match failed")
	}
	if IndexMatchesFK(&Index{Cols: []string{"a"}}, fk) {
		t.Error("subset should not match")
	}
	if IndexMatchesFK(&Index{Cols: []string{"a", "c"}}, fk) {
		t.Error("different set should not match")
	}
}
