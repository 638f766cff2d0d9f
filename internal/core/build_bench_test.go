package core_test

import (
	"testing"

	"bdcc/internal/core"
	"bdcc/internal/iosim"
	"bdcc/internal/tpch"
)

// BenchmarkBuildBDCCTable times Algorithm 1 on the compressed lineitem of
// SF 0.01, from bound dimension uses to the finished table: the _bdcc_ keys,
// the sort, the permuted re-encode and the small-group relocation. It
// reports ns per base row.
func BenchmarkBuildBDCCTable(b *testing.B) {
	schema := tpch.Schema()
	data := tpch.Generate(0.01)
	for _, t := range data.Tables {
		t.Compress()
	}
	design, err := (&core.Advisor{Schema: schema}).Design()
	if err != nil {
		b.Fatal(err)
	}
	opt := core.BuildOptions{Device: iosim.PaperSSD()}
	db, err := (&core.Builder{Schema: schema, Tables: data.Tables, Options: opt}).Build(design)
	if err != nil {
		b.Fatal(err)
	}
	uses, err := core.BindUses(db, schema, data.Tables, "lineitem", 0)
	if err != nil {
		b.Fatal(err)
	}
	li := data.Tables["lineitem"]
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := core.BuildBDCCTable("lineitem", li, uses, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*li.Rows()), "ns/row")
}
