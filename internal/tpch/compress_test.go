package tpch

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"bdcc/internal/engine"
	"bdcc/internal/expr"
	"bdcc/internal/plan"
	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// The compressed benchmark is built once per binary, like the raw one in
// tpch_test.go. Generation is deterministically seeded, so it holds exactly
// the data of benchmarkFixture and the two are comparable byte for byte.
var (
	ctbOnce sync.Once
	ctb     *Benchmark
	ctbErr  error
)

func compressedFixture(t *testing.T) *Benchmark {
	t.Helper()
	ctbOnce.Do(func() {
		ctb, ctbErr = NewBenchmarkCompressed(0.05, true)
	})
	if ctbErr != nil {
		t.Fatalf("NewBenchmarkCompressed: %v", ctbErr)
	}
	if !ctb.Compressed {
		t.Fatal("compressed benchmark does not report Compressed")
	}
	return ctb
}

// TestCompressionWinsOnClustered checks the paper-motivated payoff: BDCC
// co-clustering makes columns locally homogeneous, so the chunk encoder must
// beat the raw representation on the clustered layout (encoded bytes
// strictly below storage bytes, with RLE/dict/FOR chunks actually chosen),
// and the modeled scan volume of the full query suite must shrink against
// the same queries on the raw database.
func TestCompressionWinsOnClustered(t *testing.T) {
	raw := benchmarkFixture(t)
	comp := compressedFixture(t)
	for _, scheme := range []plan.Scheme{plan.Plain, plan.PK, plan.BDCC} {
		cs := comp.DBs[scheme].CompressionStats()
		if cs.RawBytes == 0 || cs.EncodedBytes == 0 {
			t.Fatalf("%s: compressed database reports no bytes: %+v", scheme, cs)
		}
		if cs.EncodedBytes >= cs.RawBytes {
			t.Errorf("%s: encoded %d bytes not below raw %d — compression stopped winning", scheme, cs.EncodedBytes, cs.RawBytes)
		}
		if cs.Chunks[storage.EncRLE]+cs.Chunks[storage.EncDict]+cs.Chunks[storage.EncFOR] == 0 {
			t.Errorf("%s: every chunk fell back to raw: %+v", scheme, cs)
		}
		if rs := raw.DBs[scheme].CompressionStats(); rs != (storage.CompressionStats{}) {
			t.Errorf("%s: raw database reports compression activity: %+v", scheme, rs)
		}
	}
	var rawRead, compRead int64
	for _, q := range Queries {
		_, rst, _, err := RunQueryOpts(raw.DBs[plan.BDCC], q, RunOptions{Workers: 1, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, cst, _, err := RunQueryOpts(comp.DBs[plan.BDCC], q, RunOptions{Workers: 1, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		rawRead += rst.IO.Bytes
		compRead += cst.IO.Bytes
	}
	if compRead >= rawRead {
		t.Errorf("BDCC suite reads %d bytes compressed, %d raw — compression did not shrink modeled I/O", compRead, rawRead)
	}
}

// TestCompressionWireSavings checks the transport meter: a sharded BDCC run
// over the compressed database must record wire bytes saved by the tagged
// batch codec (the shipped group units shrank against their raw form), and
// the savings must never be negative anywhere in the grid.
func TestCompressionWireSavings(t *testing.T) {
	comp := compressedFixture(t)
	var saved int64
	for _, q := range Queries {
		_, st, _, err := RunQueryOpts(comp.DBs[plan.BDCC], q, RunOptions{Workers: 2, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if st.Net.Saved < 0 {
			t.Fatalf("%s: negative wire savings %d", q.Name, st.Net.Saved)
		}
		saved += st.Net.Saved
	}
	if saved == 0 {
		t.Fatal("no wire bytes saved across any sharded BDCC query — the batch codec stopped winning on shipped units")
	}
}

// TestPushdownKeepsBatchCuts: a scan's batches depend on its ranges and
// filter alone. Plain lineitem (SF 0.01) generated twice holds the same rows
// in the same order; compressed, a scan pushes its filter's intervals into
// its readers, which drop rows inside batch windows, and raw it pushes
// nothing. A serial engine.Scan of each must emit the same batch sequence,
// row for row.
func TestPushdownKeepsBatchCuts(t *testing.T) {
	raw, comp := Generate(0.01).Tables["lineitem"], Generate(0.01).Tables["lineitem"]
	comp.Compress()
	eq := func(col, v string) expr.Expr { return expr.Eq(expr.C(col), expr.Str(v)) }
	cols := []string{"l_orderkey", "l_linenumber", "l_extendedprice", "l_returnflag", "l_shipmode", "l_shipinstruct"}
	for _, fl := range []struct {
		name string
		mk   func() expr.Expr
	}{
		{"returnflag-shipmode", func() expr.Expr { return expr.NewAnd(eq("l_returnflag", "R"), eq("l_shipmode", "AIR")) }},
		{"shipinstruct", func() expr.Expr { return eq("l_shipinstruct", "DELIVER IN PERSON") }},
	} {
		t.Run(fl.name, func(t *testing.T) {
			// The pushed intervals must prune rows, or the case is vacuous.
			var push []storage.PushPred
			for i, c := range cols {
				if iv, ok := engine.FilterIntervals(fl.mk(), comp.Scale)[c]; ok {
					push = append(push, storage.PushPred{Col: i, Iv: iv})
				}
			}
			idx := make([]int, len(cols))
			for i, c := range cols {
				idx[i] = comp.ColumnIndex(c)
			}
			materialized := 0
			r := storage.NewReaderPush(comp, idx, nil, nil, push)
			for b := vector.NewBatch(r.Kinds()); r.Next(b); {
				materialized += b.Len()
			}
			if materialized*2 > comp.Rows() {
				t.Fatalf("pushdown materializes %d of %d rows — vacuous", materialized, comp.Rows())
			}

			var seqs [2][]string
			for i, tab := range []*storage.Table{raw, comp} {
				s := &engine.Scan{Table: tab, Cols: cols, Filter: fl.mk()}
				res, err := engine.Run(&engine.Context{Mem: &engine.MemTracker{}}, &batchCuts{Operator: s, cuts: &seqs[i]})
				if err != nil {
					t.Fatal(err)
				}
				if res.Rows() == 0 {
					t.Fatal("the filter keeps no row — vacuous")
				}
			}
			if len(seqs[0]) != len(seqs[1]) {
				t.Fatalf("raw table: %d batches, compressed: %d", len(seqs[0]), len(seqs[1]))
			}
			for i := range seqs[0] {
				if seqs[0][i] != seqs[1][i] {
					t.Fatalf("batch %d: raw\n%.300s\ncompressed\n%.300s", i, seqs[0][i], seqs[1][i])
				}
			}
		})
	}
}

// batchCuts records, per batch its child emits, the batch's rows.
type batchCuts struct {
	engine.Operator
	cuts *[]string
}

func (o *batchCuts) Next() (*vector.Batch, error) {
	b, err := o.Operator.Next()
	if b != nil {
		var sb strings.Builder
		for r := 0; r < b.Len(); r++ {
			for _, c := range b.Cols {
				switch c.Kind {
				case vector.Int64:
					fmt.Fprint(&sb, c.I64[r], " ")
				case vector.Float64:
					fmt.Fprint(&sb, c.F64[r], " ")
				default:
					fmt.Fprint(&sb, c.Str[r], " ")
				}
			}
			sb.WriteByte('\n')
		}
		*o.cuts = append(*o.cuts, sb.String())
	}
	return b, err
}
