package storage_test

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"bdcc/internal/core"
	"bdcc/internal/plan"
	"bdcc/internal/storage"
	"bdcc/internal/tpch"
	"bdcc/internal/vector"
)

// scatterFixture is the compressed BDCC lineitem at SF 0.01 and the scatter
// plan over all its dimension uses at all their count-table bits: the finest
// groups a scatter scan on it reads, most of them cutting chunks mid-way.
var scatterFixture = sync.OnceValues(func() (*storage.Table, []core.ScatterGroup) {
	b, err := tpch.NewBenchmarkCompressed(0.01, true, plan.BDCC)
	if err != nil {
		panic(err)
	}
	db := b.DBs[plan.BDCC]
	bt := db.BDCCTable("lineitem")
	var order, bits []int
	for i, u := range bt.Uses {
		order, bits = append(order, i), append(bits, core.Ones(u.Mask))
	}
	groups, err := bt.ScatterPlan(order, bits, nil)
	if err != nil {
		panic(err)
	}
	tab, err := db.StoredTable("lineitem")
	if err != nil {
		panic(err)
	}
	return tab, groups
})

// readAll reads every row a reader yields into one vector per column.
func readAll(r *storage.Reader, out []*vector.Vector) {
	b := vector.NewBatch(r.Kinds())
	for r.Next(b) {
		for i, c := range b.Cols {
			out[i].AppendVector(c)
		}
	}
}

// TestScatterReadsMatchOneReader reads every column of the compressed
// lineitem through one reader per group of a real scatter plan — the way a
// scatter scan opens them — and requires, row for row, the rows of one
// reader over the whole table taken in the plan's order: all of them, and
// with pushed intervals (on two string columns and an integer one) the rows
// pushdown keeps. Pushdown keeps a row of a run-length or dictionary chunk
// of a string or integer column when its value lies in the interval, and
// every row of any other chunk.
func TestScatterReadsMatchOneReader(t *testing.T) {
	tab, groups := scatterFixture()
	if len(groups) < 16 {
		t.Fatalf("scatter plan has %d groups; the test wants many", len(groups))
	}
	cols := make([]int, len(tab.Cols))
	encoded := map[storage.Encoding]bool{}
	for i, c := range tab.Cols {
		cols[i] = i
		if c.Enc == nil {
			t.Fatalf("column %s is not compressed", c.Name)
		}
		for _, ch := range c.Enc.Chunks {
			encoded[ch.Enc] = true
		}
	}
	if len(encoded) != int(vector.NumEncodings) {
		t.Fatalf("lineitem's chunks use %d of the %d encodings", len(encoded), vector.NumEncodings)
	}
	newVecs := func() []*vector.Vector {
		vs := make([]*vector.Vector, len(cols))
		for i, c := range tab.Cols {
			vs[i] = &vector.Vector{Kind: c.Kind}
		}
		return vs
	}
	whole := newVecs()
	readAll(storage.NewReader(tab, cols, nil, nil), whole)
	if whole[0].Len() != int(tab.Rows()) {
		t.Fatalf("one reader read %d of %d rows", whole[0].Len(), tab.Rows())
	}
	col := func(name string) int {
		return slices.IndexFunc(tab.Cols, func(c *storage.Column) bool { return c.Name == name })
	}
	pushes := map[string][]storage.PushPred{
		"none": nil,
		"shipmode": {{Col: col("l_shipmode"), Iv: storage.Interval{
			Lo: storage.Bound{Set: true, S: "MAIL"}, Hi: storage.Bound{Set: true, S: "SHIP"}}}},
		"returnflag and linenumber": {
			{Col: col("l_returnflag"), Iv: storage.Interval{Hi: storage.Bound{Set: true, S: "N"}}},
			{Col: col("l_linenumber"), Iv: storage.Interval{Lo: storage.Bound{Set: true, I: 2}, Hi: storage.Bound{Set: true, I: 4}}},
		},
	}
	keeps := func(push []storage.PushPred, r int) bool {
		for _, p := range push {
			c, iv := tab.Cols[p.Col], p.Iv
			if enc := c.Enc.Chunks[r/c.Enc.ChunkRows].Enc; enc != storage.EncRLE && enc != storage.EncDict {
				continue
			}
			v := whole[p.Col]
			switch c.Kind {
			case vector.Int64:
				if iv.Lo.Set && v.I64[r] < iv.Lo.I || iv.Hi.Set && v.I64[r] > iv.Hi.I {
					return false
				}
			case vector.String:
				if iv.Lo.Set && v.Str[r] < iv.Lo.S || iv.Hi.Set && v.Str[r] > iv.Hi.S {
					return false
				}
			}
		}
		return true
	}
	for name, push := range pushes {
		want, got := newVecs(), newVecs()
		for _, g := range groups {
			for _, rr := range g.Ranges {
				for r := rr.Start; r < rr.End; r++ {
					if keeps(push, r) {
						for i := range want {
							want[i].AppendFrom(whole[i], r)
						}
					}
				}
			}
			readAll(storage.NewReaderPush(tab, cols, g.Ranges, nil, push), got)
		}
		if (push != nil) != (want[0].Len() < int(tab.Rows())) {
			t.Fatalf("%s: pushdown keeps %d of %d rows", name, want[0].Len(), tab.Rows())
		}
		for i, c := range tab.Cols {
			w, g := want[i], got[i]
			if g.Len() != w.Len() {
				t.Fatalf("%s: column %s: groups read %d rows, want %d", name, c.Name, g.Len(), w.Len())
			}
			for r := range w.Len() {
				if c.Kind == vector.Float64 && math.Float64bits(g.F64[r]) != math.Float64bits(w.F64[r]) ||
					c.Kind != vector.Float64 && g.Compare(r, w, r) != 0 {
					t.Fatalf("%s: column %s row %d: groups read another value than one reader", name, c.Name, r)
				}
			}
		}
	}
}

// BenchmarkReaderGroups times the scatter scan's read pattern: every column
// of the compressed lineitem, one reader per group of the scatter plan.
// ns/row is per row emitted, allocs/op per whole pass over the groups.
func BenchmarkReaderGroups(b *testing.B) {
	tab, groups := scatterFixture()
	cols := make([]int, len(tab.Cols))
	for i := range cols {
		cols[i] = i
	}
	out := vector.NewBatch(storage.NewReader(tab, cols, nil, nil).Kinds())
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for range b.N {
		for _, g := range groups {
			r := storage.NewReader(tab, cols, g.Ranges, nil)
			for r.Next(out) {
				rows += out.Len()
			}
		}
	}
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(rows), "ns/row")
	b.ReportMetric(float64(len(groups)), "groups")
}
