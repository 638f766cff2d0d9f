package storage_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"bdcc/internal/storage"
	"bdcc/internal/tpch"
	"bdcc/internal/vector"
)

// tpchSF01 is the SF 0.01 data set under Plain, PK and BDCC, compressed,
// shared by the tests that walk every stored table.
var tpchSF01 = sync.OnceValues(func() (*tpch.Benchmark, error) {
	return tpch.NewBenchmarkCompressed(0.01, true)
})

// compressedTable builds and compresses a table of the given columns.
func compressedTable(t *testing.T, pageSize int64, cols ...*storage.Column) *storage.Table {
	t.Helper()
	tab, err := storage.NewTable("x", pageSize, cols...)
	if err != nil {
		t.Fatal(err)
	}
	tab.Compress()
	return tab
}

// sharesArrays reports whether two run-length, frame-of-reference or
// dictionary chunks hold the same encoded arrays, not equal copies.
func sharesArrays(a, b storage.Chunk) bool {
	switch a.Enc {
	case storage.EncRLE:
		return b.Enc == a.Enc && &a.RunN[0] == &b.RunN[0]
	case storage.EncFOR, storage.EncDict:
		return b.Enc == a.Enc && &a.Packed[0] == &b.Packed[0]
	}
	return false
}

// TestAppendRowsMatchesReencode holds Extract and AppendRows of compressed
// tables — which keep the parent's chunks over the rows they leave in place
// — to NewTable and Compress over the same rows (storage.CheckExtract): on
// columns whose chunks are kept, whose dictionary is viable but unused,
// whose dictionary appears only with the appended rows, which have more
// distinct values than a dictionary holds, and whose chunk length shifts
// with the tail; over empty, repeated and overlapping ranges; and on every
// SF 0.01 TPC-H table under the three schemes.
func TestAppendRowsMatchesReencode(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 150 * 136 // whole chunks of 30-byte strings in 4 KB pages
	runs, ids := make([]int64, n), make([]int64, n)
	prices, steps := make([]float64, n), make([]float64, n)
	dict, dropped := make([]string, n), make([]string, n)
	var words, longs []string
	for i := range 16 {
		words = append(words, fmt.Sprintf("%0*d", 6+i%7, i))
	}
	for i := range 100 { // 7-bit codes: a chunk's two runs cost less than its codes
		longs = append(longs, fmt.Sprintf("%030d", i))
	}
	for i := range n {
		runs[i], ids[i] = int64(i/37), rng.Int63n(1<<40)
		prices[i], steps[i] = float64(rng.Intn(4000))/4, float64(i/500)
		dict[i], dropped[i] = words[rng.Intn(len(words))], longs[i*len(longs)/n]
	}
	mixed := compressedTable(t, 4096,
		storage.NewInt64Column("runs", runs), storage.NewInt64Column("ids", ids),
		storage.NewFloat64Column("prices", prices), storage.NewFloat64Column("steps", steps),
		storage.NewStringColumn("dict", dict), storage.NewStringColumn("dropped", dropped))
	var sd vector.StrDict
	if viable, _, _, _ := sd.ColumnDict(vector.HeapOf(dropped)); mixed.MustColumn("dropped").Enc.Dict != nil || viable == nil {
		t.Fatal("fixture: column dropped should have a viable dictionary that no chunk uses")
	}
	if mixed.MustColumn("dict").Enc.Dict == nil {
		t.Fatal("fixture: column dict should keep a dictionary")
	}

	unique, shifting, wide := make([]string, 3000), make([]string, 5000), make([]string, vector.MaxDictEntries+1000)
	for i := range unique {
		unique[i] = fmt.Sprintf("u%011d", i)
	}
	for i := range shifting {
		shifting[i] = "a"
		if i >= 4500 {
			shifting[i] = fmt.Sprintf("%0100d", i)
		}
	}
	for i := range wide {
		wide[i] = fmt.Sprintf("w%07d", i)
	}
	rng.Shuffle(len(wide), func(i, j int) { wide[i], wide[j] = wide[j], wide[i] })
	flip := compressedTable(t, 4096, storage.NewStringColumn("unique", unique))
	over := compressedTable(t, 4096, storage.NewStringColumn("wide", wide))
	shift := compressedTable(t, 1024, storage.NewStringColumn("shifting", shifting))

	for _, tc := range []struct {
		name       string
		tab        *storage.Table
		ranges     storage.RowRanges
		appendRows bool
	}{
		{"relocate", mixed, storage.RowRanges{{100, 130}, {5000, 5100}, {n - 10, n}}, true},
		{"append-nothing", mixed, nil, true},
		{"extract-nothing", mixed, nil, false},
		{"empty-repeated-overlapping", mixed, storage.RowRanges{{5, 5}, {0, 4096}, {0, 4096}, {10, 50}, {30, 80}, {n - 1000, n}}, false},
		{"offset", mixed, storage.RowRanges{{123, 15000}}, false},
		{"whole", mixed, storage.FullRange(n), false},
		{"dictionary-appears", flip, storage.RowRanges{{0, 3000}, {0, 3000}}, true},
		{"over-max-dict-entries", over, storage.RowRanges{{0, len(wide)}, {10, 20}}, true},
		{"chunk-rows-shift", shift, storage.RowRanges{{4500, 5000}, {4500, 5000}}, true},
	} {
		got, err := storage.CheckExtract(tc.tab, tc.ranges, tc.appendRows)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		switch tc.name {
		case "relocate":
			// Kept chunks share the parent's encoded bytes; a raw chunk is
			// encoded again, a window of the new column's values.
			for _, name := range []string{"runs", "dict"} {
				if !sharesArrays(got.MustColumn(name).Enc.Chunks[0], tc.tab.MustColumn(name).Enc.Chunks[0]) {
					t.Fatalf("%s: column %s re-encoded its first chunk", tc.name, name)
				}
			}
			if g, p := got.MustColumn("prices"), tc.tab.MustColumn("prices"); &g.Enc.Chunks[0].ValF[0] == &p.Enc.Chunks[0].ValF[0] {
				t.Fatalf("%s: a raw chunk still windows the parent's values", tc.name)
			}
		case "dictionary-appears":
			if tc.tab.Cols[0].Enc.Dict != nil || got.Cols[0].Enc.Dict == nil {
				t.Fatalf("%s: the appended rows should make the dictionary viable", tc.name)
			}
		case "over-max-dict-entries":
			if tc.tab.Cols[0].Enc.Dict != nil || got.Cols[0].Enc.Dict != nil {
				t.Fatalf("%s: a column over MaxDictEntries values has no dictionary", tc.name)
			}
		case "chunk-rows-shift":
			if tc.tab.Cols[0].Enc.ChunkRows == got.Cols[0].Enc.ChunkRows {
				t.Fatalf("%s: the appended rows should change the chunk length", tc.name)
			}
		}
	}

	b, err := tpchSF01()
	if err != nil {
		t.Fatal(err)
	}
	for scheme, db := range b.DBs {
		for name := range db.Tables {
			tab, err := db.StoredTable(name)
			if err != nil {
				t.Fatal(err)
			}
			r := tab.Rows()
			small := storage.RowRanges{{r / 3, min(r/3+17, r)}, {max(r-5, 0), r}, {0, min(40, r)}}
			if _, err := storage.CheckExtract(tab, small, true); err != nil {
				t.Fatalf("%s %s: %v", scheme, name, err)
			}
		}
	}
}
