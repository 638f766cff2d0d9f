// Co-clustering walkthrough of the paper's Figure 1: three dimensions — D1
// (geography), D2 (time), D3 (range-binned values) — and three fact tables
// A (D1, D2), C (D1, D3) and B, foreign-key connected to both A and C and
// therefore co-clustered on all their dimensions. The example prints the
// derived dimension uses, the bit-interleaved count-table keys, and the
// scatter-scan orders each table supports ("for table A this scan can
// retrieve data in the orders (D1), (D2), (D1,D2), (D2,D1)").
package main

import (
	"fmt"
	"log"
	"math/rand"
	"slices"

	"bdcc/internal/catalog"
	"bdcc/internal/core"
	"bdcc/internal/storage"
)

const ddl = `
CREATE TABLE d1 (d1key INT, continent VARCHAR(16), PRIMARY KEY (d1key));
CREATE TABLE d2 (d2key INT, year INT, PRIMARY KEY (d2key));
CREATE TABLE d3 (d3key INT, val INT, PRIMARY KEY (d3key));
CREATE TABLE a (akey INT, a_d1 INT, a_d2 INT, PRIMARY KEY (akey),
    CONSTRAINT fk_a_d1 FOREIGN KEY (a_d1) REFERENCES d1,
    CONSTRAINT fk_a_d2 FOREIGN KEY (a_d2) REFERENCES d2);
CREATE TABLE c (ckey INT, c_d1 INT, c_d3 INT, PRIMARY KEY (ckey),
    CONSTRAINT fk_c_d1 FOREIGN KEY (c_d1) REFERENCES d1,
    CONSTRAINT fk_c_d3 FOREIGN KEY (c_d3) REFERENCES d3);
CREATE TABLE b (bkey INT, b_a INT, b_c INT, PRIMARY KEY (bkey),
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

func main() {
	schema, err := catalog.ParseDDL(ddl)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	tables := map[string]*storage.Table{
		"d1": storage.MustNewTable("d1", 4096,
			storage.NewInt64Column("d1key", []int64{0, 1, 2, 3}),
			storage.NewStringColumn("continent", []string{"Africa", "America", "Asia", "Europe"})),
		"d2": storage.MustNewTable("d2", 4096,
			storage.NewInt64Column("d2key", []int64{0, 1, 2, 3}),
			storage.NewInt64Column("year", []int64{1997, 1998, 1999, 2000})),
		"d3": storage.MustNewTable("d3", 4096,
			storage.NewInt64Column("d3key", seq(16)),
			storage.NewInt64Column("val", seqScaled(16, 3))),
	}
	nA, nB, nC := 64, 4096, 48
	tables["a"] = storage.MustNewTable("a", 4096,
		storage.NewInt64Column("akey", seq(nA)),
		storage.NewInt64Column("a_d1", randIn(rng, nA, 4)),
		storage.NewInt64Column("a_d2", randIn(rng, nA, 4)))
	tables["c"] = storage.MustNewTable("c", 4096,
		storage.NewInt64Column("ckey", seq(nC)),
		storage.NewInt64Column("c_d1", randIn(rng, nC, 4)),
		storage.NewInt64Column("c_d3", randIn(rng, nC, 16)))
	tables["b"] = storage.MustNewTable("b", 4096,
		storage.NewInt64Column("bkey", seq(nB)),
		storage.NewInt64Column("b_a", randIn(rng, nB, int64(nA))),
		storage.NewInt64Column("b_c", randIn(rng, nB, int64(nC))))

	design, err := (&core.Advisor{Schema: schema}).Design()
	if err != nil {
		log.Fatal(err)
	}
	db, err := (&core.Builder{Schema: schema, Tables: tables}).Build(design)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Figure 1 co-clustered schema:")
	for _, name := range []string{"a", "b", "c"} {
		bt := db.Tables[name]
		fmt.Printf("\nBDCC table %s — %d bits, %d groups:\n", name, bt.Bits, len(bt.Count))
		for _, u := range bt.Uses {
			fmt.Printf("  %-8s via %-24s mask %s\n", u.Dim.Name, u.PathString(), core.MaskString(u.Mask))
		}
	}

	// B is co-clustered with A on (D1 via A, D2) and with C on (D1 via C,
	// D3); and A and C, though not foreign-key connected, still share D1 —
	// "useful in situations when we are looking for tuples in A and C from
	// matching nations".
	b := db.Tables["b"]
	fmt.Println("\nScatter-scan orders of B (major dimension first):")
	for i, u := range b.Uses {
		groups, err := b.ScatterPlan([]int{i}, []int{core.Ones(u.Mask)}, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  major %-8s via %-24s → %d groups\n", u.Dim.Name, u.PathString(), len(groups))
	}

	// Selection propagation: Asia on D1 restricts all three fact tables.
	asia := db.Dimensions["d_cont"].BinOf(core.StrKey("Asia"))
	for _, name := range []string{"a", "b", "c"} {
		bt := db.Tables[name]
		u := bt.Uses[slices.IndexFunc(bt.Uses, func(u *core.DimensionUse) bool { return u.Dim.Name == "d_cont" })]
		set := core.NewBinSet(u.Dim.NumBins())
		set.Add(asia)
		entries := bt.SelectBinSet(u, set)
		fmt.Printf("Asia restriction on %s: %d of %d rows\n",
			name, core.TotalRows(entries), bt.Rows())
	}
}

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func seqScaled(n int, k int64) []int64 {
	out := seq(n)
	for i := range out {
		out[i] *= k
	}
	return out
}

func randIn(rng *rand.Rand, n int, domain int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(domain)
	}
	return out
}
