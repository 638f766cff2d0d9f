package storage_test

import (
	"testing"

	"bdcc/internal/plan"
	"bdcc/internal/storage"
	"bdcc/internal/tpch"
)

// BenchmarkMergeEncode times what a merge does to a compressed table: Encoded
// of the BDCC lineitem and orders views at SF 0.01 after eight appends of 30
// orders (orders' o_clerk has a dictionary of 1 000 entries). Each iteration
// encodes a fresh view of the same rows (a splice that adds none), so that
// nothing an earlier iteration gathered is reused.
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
	none := g.Next(0)
	for _, table := range []struct {
		name string
		none *storage.Table
	}{{"lineitem", none.Lineitem}, {"orders", none.Orders}} {
		view := bench.DBs[plan.BDCC].Snapshot().BDCCTable(table.name).Data
		n := int32(view.Rows())
		b.Run(table.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				fresh, err := storage.Splice(view, view.Rows(), table.none, []storage.Run{{At: 0, Src: 0, N: n, Source: 0}})
				if err != nil {
					b.Fatal(err)
				}
				if fresh.Encoded().Rows() != view.Rows() {
					b.Fatal("rows lost")
				}
			}
		})
	}
}
