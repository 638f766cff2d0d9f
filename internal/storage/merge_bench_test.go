package storage_test

import (
	"testing"

	"bdcc/internal/plan"
	"bdcc/internal/storage"
	"bdcc/internal/tpch"
)

// BenchmarkMergeEncode times what a merge does to a compressed table: Encoded
// of the BDCC lineitem view at SF 0.01 after eight appends of 30 orders.
// Each iteration encodes a fresh view of the same rows (a splice that adds
// none), so that nothing an earlier iteration gathered is reused.
func BenchmarkMergeEncode(b *testing.B) {
	bench, err := tpch.NewBenchmarkCompressed(0.01, true, plan.BDCC)
	if err != nil {
		b.Fatal(err)
	}
	if err := bench.EnableIngest(0, 0); err != nil {
		b.Fatal(err)
	}
	g := tpch.NewDeltaGen(bench.Data, 1)
	for range 8 {
		if err := bench.AppendBatch(g.Next(30)); err != nil {
			b.Fatal(err)
		}
	}
	view := bench.DBs[plan.BDCC].Snapshot().BDCCTable("lineitem").Data
	none, n := g.Next(0).Lineitem, int32(view.Rows())
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		fresh, err := storage.Splice(view, view.Rows(), none, []storage.Run{{At: 0, Src: 0, N: n, Source: 0}})
		if err != nil {
			b.Fatal(err)
		}
		if fresh.Encoded().Rows() != view.Rows() {
			b.Fatal("rows lost")
		}
	}
}
