package storage_test

import (
	"math/rand"
	"testing"
	"time"

	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// pushedScanFixture returns 1<<16 rows at TPC-H's 4 KiB page: two string
// columns of 4 and 7 values drawn uniformly (dictionary chunks), an int64
// column in runs of 256 over 64 values (RLE chunks), and three int64
// columns of random 20-bit values (frame-of-reference chunks).
func pushedScanFixture(b *testing.B) *storage.Table {
	rng := rand.New(rand.NewSource(19))
	n := 1 << 16
	four := []string{"COLLECT COD", "DELIVER IN PERSON", "NONE", "TAKE BACK RETURN"}
	seven := []string{"AIR", "AIR REG", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP"}
	a, s, run := make([]string, n), make([]string, n), make([]int64, n)
	nums := [3][]int64{make([]int64, n), make([]int64, n), make([]int64, n)}
	for i := range n {
		a[i], s[i], run[i] = four[rng.Intn(len(four))], seven[rng.Intn(len(seven))], int64(i/256)%64
		for _, v := range nums {
			v[i] = rng.Int63n(1 << 20)
		}
	}
	tab := storage.MustNewTable("t", 4<<10, storage.NewStringColumn("a", a), storage.NewStringColumn("s", s),
		storage.NewInt64Column("run", run), storage.NewInt64Column("x", nums[0]),
		storage.NewInt64Column("y", nums[1]), storage.NewInt64Column("z", nums[2]))
	tab.Compress()
	for name, enc := range map[string]storage.Encoding{"a": storage.EncDict, "s": storage.EncDict,
		"run": storage.EncRLE, "x": storage.EncFOR} {
		if e := tab.MustColumn(name).Enc; e.Counts[enc] != int64(len(e.Chunks)) {
			b.Fatalf("column %s: %v chunks, want every one %v", name, e.Counts, enc)
		}
	}
	return tab
}

// BenchmarkPushedScan times a compressed scan with pushed intervals, per
// row of the scanned ranges (ns/row), and B/op per pass over them:
//   - q19: Q19's shape, two intervals on the dictionary columns (2 of 4
//     values, then 4 of 7) keeping ≈ 29 % of the rows in spans of ≈ 1.4 rows,
//     read with the three FOR columns;
//   - contiguous: one interval on the RLE column keeping 16 of its 64 values,
//     so whole runs of 256 rows survive, read with the FOR columns;
//   - nopush: q19's columns, nothing pushed.
func BenchmarkPushedScan(b *testing.B) {
	tab := pushedScanFixture(b)
	str := func(lo, hi string) storage.Interval {
		return storage.Interval{Lo: storage.Bound{Set: true, S: lo}, Hi: storage.Bound{Set: true, S: hi}}
	}
	q19 := []int{0, 1, 3, 4, 5}
	for _, c := range []struct {
		name string
		cols []int
		push []storage.PushPred
	}{
		{"q19", q19, []storage.PushPred{{Col: 0, Iv: str("COLLECT COD", "DELIVER IN PERSON")}, {Col: 1, Iv: str("AIR", "MAIL")}}},
		{"contiguous", []int{2, 3, 4, 5}, []storage.PushPred{{Col: 0, Iv: storage.Interval{
			Lo: storage.Bound{Set: true, I: 8}, Hi: storage.Bound{Set: true, I: 23}}}}},
		{"nopush", q19, nil},
	} {
		b.Run(c.name, func(b *testing.B) {
			out := vector.NewBatch(storage.NewReader(tab, c.cols, nil, nil).Kinds())
			kept := 0
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for range b.N {
				for r := storage.NewReaderPush(tab, c.cols, nil, nil, c.push); r.Next(out); {
					kept += out.Len()
				}
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*tab.Rows()), "ns/row")
			b.ReportMetric(float64(kept)/float64(b.N*tab.Rows()), "emitted/row")
		})
	}
}
