package core

import (
	"fmt"
	"math/rand"
	"testing"

	"bdcc/internal/catalog"
	"bdcc/internal/storage"
)

// figure1DDL is the schema of the paper's Figure 1: three dimension tables
// D1 (geography), D2 (time), D3 (range-binned values); fact tables A (uses
// D1, D2), C (uses D1, D3) and B, foreign-key connected to both A and C and
// therefore co-clustered on all their dimensions.
const figure1DDL = `
CREATE TABLE d1 (d1key INT, continent VARCHAR(16), PRIMARY KEY (d1key));
CREATE TABLE d2 (d2key INT, year INT, PRIMARY KEY (d2key));
CREATE TABLE d3 (d3key INT, val INT, PRIMARY KEY (d3key));
CREATE TABLE a (akey INT, a_d1 INT, a_d2 INT, x VARCHAR(8), PRIMARY KEY (akey),
    CONSTRAINT fk_a_d1 FOREIGN KEY (a_d1) REFERENCES d1,
    CONSTRAINT fk_a_d2 FOREIGN KEY (a_d2) REFERENCES d2);
CREATE TABLE c (ckey INT, c_d1 INT, c_d3 INT, y VARCHAR(8), PRIMARY KEY (ckey),
    CONSTRAINT fk_c_d1 FOREIGN KEY (c_d1) REFERENCES d1,
    CONSTRAINT fk_c_d3 FOREIGN KEY (c_d3) REFERENCES d3);
CREATE TABLE b (bkey INT, b_a INT, b_c INT, z VARCHAR(8), PRIMARY KEY (bkey),
    CONSTRAINT fk_b_a FOREIGN KEY (b_a) REFERENCES a,
    CONSTRAINT fk_b_c FOREIGN KEY (b_c) REFERENCES c);
CREATE INDEX cont_idx ON d1 (continent);
CREATE INDEX year_idx ON d2 (year);
CREATE INDEX val_idx ON d3 (val);
CREATE INDEX a1_idx ON a (a_d1);
CREATE INDEX a2_idx ON a (a_d2);
CREATE INDEX c1_idx ON c (c_d1);
CREATE INDEX c3_idx ON c (c_d3);
CREATE INDEX ba_idx ON b (b_a);
CREATE INDEX bc_idx ON b (b_c);
`

// TestFigure1Schema checks that Algorithm 2 derives the co-clustering of the
// paper's Figure 1: B inherits D1 and D2 over A, and D1 and D3 over C, with
// the two D1 uses kept distinct because their paths differ ("each use can
// logically be a different dimension").
func TestFigure1Schema(t *testing.T) {
	schema := catalog.MustParseDDL(figure1DDL)
	adv := &Advisor{Schema: schema}
	design, err := adv.Design()
	if err != nil {
		t.Fatalf("Design: %v", err)
	}
	if len(design.Dimensions) != 3 {
		t.Fatalf("dimensions = %d, want 3", len(design.Dimensions))
	}
	wantUses := map[string][]string{
		"d1": {"d_cont|-"},
		"d2": {"d_year|-"},
		"d3": {"d_val|-"},
		"a":  {"d_cont|fk_a_d1", "d_year|fk_a_d2"},
		"c":  {"d_cont|fk_c_d1", "d_val|fk_c_d3"},
		"b": {
			"d_cont|fk_b_a.fk_a_d1", "d_year|fk_b_a.fk_a_d2",
			"d_cont|fk_b_c.fk_c_d1", "d_val|fk_b_c.fk_c_d3",
		},
	}
	for table, want := range wantUses {
		td := design.Table(table)
		if td == nil {
			t.Errorf("table %s has no design", table)
			continue
		}
		var got []string
		for _, u := range td.Uses {
			got = append(got, u.Dim+"|"+u.PathString())
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("table %s uses = %v, want %v", table, got, want)
		}
	}
	// A and C are co-clustered on D1 although not foreign-key connected.
	if design.Table("a").Uses[0].Dim != design.Table("c").Uses[0].Dim {
		t.Error("A and C do not share dimension d_cont")
	}
}

// figure1Data generates small stored tables for the Figure 1 schema.
func figure1Data(t *testing.T, nA, nB, nC int) map[string]*storage.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	continents := []string{"Africa", "America", "Asia", "Europe"}
	years := []int64{1997, 1998, 1999, 2000}
	mk := func(name string, cols ...*storage.Column) *storage.Table {
		return storage.MustNewTable(name, 4096, cols...)
	}
	d1k := []int64{0, 1, 2, 3}
	d2k := []int64{0, 1, 2, 3}
	d3k := make([]int64, 16)
	d3v := make([]int64, 16)
	for i := range d3k {
		d3k[i] = int64(i)
		d3v[i] = int64(i * 3)
	}
	tabs := map[string]*storage.Table{
		"d1": mk("d1", storage.NewInt64Column("d1key", d1k), storage.NewStringColumn("continent", continents)),
		"d2": mk("d2", storage.NewInt64Column("d2key", d2k), storage.NewInt64Column("year", years)),
		"d3": mk("d3", storage.NewInt64Column("d3key", d3k), storage.NewInt64Column("val", d3v)),
	}
	akey := make([]int64, nA)
	ad1 := make([]int64, nA)
	ad2 := make([]int64, nA)
	ax := make([]string, nA)
	for i := 0; i < nA; i++ {
		akey[i] = int64(i)
		ad1[i] = rng.Int63n(4)
		ad2[i] = rng.Int63n(4)
		ax[i] = fmt.Sprintf("a%03d", i)
	}
	tabs["a"] = mk("a",
		storage.NewInt64Column("akey", akey), storage.NewInt64Column("a_d1", ad1),
		storage.NewInt64Column("a_d2", ad2), storage.NewStringColumn("x", ax))
	ckey := make([]int64, nC)
	cd1 := make([]int64, nC)
	cd3 := make([]int64, nC)
	cy := make([]string, nC)
	for i := 0; i < nC; i++ {
		ckey[i] = int64(i)
		cd1[i] = rng.Int63n(4)
		cd3[i] = rng.Int63n(16)
		cy[i] = fmt.Sprintf("c%03d", i)
	}
	tabs["c"] = mk("c",
		storage.NewInt64Column("ckey", ckey), storage.NewInt64Column("c_d1", cd1),
		storage.NewInt64Column("c_d3", cd3), storage.NewStringColumn("y", cy))
	bkey := make([]int64, nB)
	ba := make([]int64, nB)
	bc := make([]int64, nB)
	bz := make([]string, nB)
	for i := 0; i < nB; i++ {
		bkey[i] = int64(i)
		ba[i] = rng.Int63n(int64(nA))
		bc[i] = rng.Int63n(int64(nC))
		bz[i] = fmt.Sprintf("b%03d", i)
	}
	tabs["b"] = mk("b",
		storage.NewInt64Column("bkey", bkey), storage.NewInt64Column("b_a", ba),
		storage.NewInt64Column("b_c", bc), storage.NewStringColumn("z", bz))
	return tabs
}

// TestFigure1Build materializes the Figure 1 design and checks the central
// co-clustering invariants end to end.
func TestFigure1Build(t *testing.T) {
	schema := catalog.MustParseDDL(figure1DDL)
	tabs := figure1Data(t, 40, 400, 30)
	design, err := (&Advisor{Schema: schema}).Design()
	if err != nil {
		t.Fatalf("Design: %v", err)
	}
	db, err := (&Builder{Schema: schema, Tables: tabs}).Build(design)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	dCont := db.Dimensions["d_cont"]
	if dCont == nil || dCont.NumBins() != 4 || dCont.Bits() != 2 {
		t.Fatalf("d_cont = %v, want 4 bins / 2 bits", dCont)
	}
	bt := db.Tables["b"]
	if bt == nil {
		t.Fatal("table b not clustered")
	}
	if len(bt.Uses) != 4 {
		t.Fatalf("b has %d uses, want 4", len(bt.Uses))
	}
	// Selection propagation: restricting B to the Asia bin of its
	// A-side D1 use must return exactly the B rows whose A parent points at
	// Asia (continent bins are unique, so the rewrite is exact here).
	asiaBin := dCont.BinOf(StrKey("Asia"))
	entries := bt.SelectBins(bt.Uses[0], asiaBin, asiaBin)
	got := make(map[int64]bool)
	baCol := bt.Data.MustColumn("b_a")
	for _, r := range EntriesRanges(entries) {
		for i := r.Start; i < r.End; i++ {
			got[baCol.I64[i]] = true
		}
	}
	aD1 := tabs["a"].MustColumn("a_d1")
	cont := tabs["d1"].MustColumn("continent")
	// Every selected B row's parent must be Asia, and every Asia parent's
	// B row must be selected.
	orig := tabs["b"].MustColumn("b_a")
	for i := 0; i < tabs["b"].Rows(); i++ {
		parent := orig.I64[i]
		isAsia := cont.Str.At(int(aD1.I64[parent])) == "Asia"
		if isAsia && !got[parent] {
			t.Fatalf("b row %d (parent %d, Asia) missed by bin selection", i, parent)
		}
	}
	for parent := range got {
		if cont.Str.At(int(aD1.I64[parent])) != "Asia" {
			t.Fatalf("bin selection returned non-Asia parent %d", parent)
		}
	}
	// Co-clustering of A and B on the shared dimensions: every B group's
	// gathered D1 bits must equal the D1 bin of its parent row in A.
	use := bt.Uses[0]
	avail := Ones(use.Mask)
	d1OfA := make([]uint64, tabs["a"].Rows())
	for i := 0; i < tabs["a"].Rows(); i++ {
		d1OfA[i] = dCont.BinOf(StrKey(cont.Str.At(int(aD1.I64[i]))))
	}
	for _, e := range bt.Count {
		gbits := GatherBits(e.Key, use.Mask, bt.Bits)
		for i := e.Offset; i < e.Offset+e.Count; i++ {
			want := d1OfA[baCol.I64[i]] >> uint(dCont.Bits()-avail)
			if gbits != want {
				t.Fatalf("b row %d: group D1 bits %b, parent bin prefix %b", i, gbits, want)
			}
		}
	}
}

// TestAdvisorNoHintsNoDesign checks that tables without index declarations
// stay unclustered (the paper's REGION).
func TestAdvisorNoHintsNoDesign(t *testing.T) {
	schema := catalog.MustParseDDL(`
CREATE TABLE r (rk INT, PRIMARY KEY (rk));
CREATE TABLE n (nk INT, rk INT, PRIMARY KEY (nk),
  CONSTRAINT fk_n_r FOREIGN KEY (rk) REFERENCES r);
`)
	design, err := (&Advisor{Schema: schema}).Design()
	if err != nil {
		t.Fatalf("Design: %v", err)
	}
	if len(design.Tables) != 0 || len(design.Dimensions) != 0 {
		t.Errorf("design not empty: %d tables, %d dimensions", len(design.Tables), len(design.Dimensions))
	}
}

// TestAdvisorFKIndexWithoutRefDesign checks that an FK-matching index whose
// referenced table carries no dimensions contributes nothing.
func TestAdvisorFKIndexWithoutRefDesign(t *testing.T) {
	schema := catalog.MustParseDDL(`
CREATE TABLE r (rk INT, PRIMARY KEY (rk));
CREATE TABLE n (nk INT, rk INT, PRIMARY KEY (nk),
  CONSTRAINT fk_n_r FOREIGN KEY (rk) REFERENCES r);
CREATE INDEX nr_idx ON n (rk);
`)
	design, err := (&Advisor{Schema: schema}).Design()
	if err != nil {
		t.Fatalf("Design: %v", err)
	}
	if len(design.Tables) != 0 {
		t.Errorf("unexpected designs: %+v", design.Tables[0])
	}
}

// TestAdvisorDedupSamePath checks that the same dimension arriving twice
// over the same path is used only once.
func TestAdvisorDedupSamePath(t *testing.T) {
	schema := catalog.MustParseDDL(`
CREATE TABLE d (dk INT, v INT, PRIMARY KEY (dk));
CREATE TABLE f (fk INT, dk INT, PRIMARY KEY (fk),
  CONSTRAINT fk_f_d FOREIGN KEY (dk) REFERENCES d);
CREATE INDEX v_idx ON d (v);
CREATE INDEX fd_idx ON f (dk);
CREATE INDEX fd2_idx ON f (dk);
`)
	design, err := (&Advisor{Schema: schema}).Design()
	if err != nil {
		t.Fatalf("Design: %v", err)
	}
	td := design.Table("f")
	if td == nil || len(td.Uses) != 1 {
		t.Fatalf("f uses = %+v, want exactly 1", td)
	}
}
