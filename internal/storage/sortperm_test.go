package storage

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestSortPermMatchesStableSort holds the radix SortPerm to the stable
// order, a comparison sort on (key, row): keys of 0 to 62 significant bits —
// one digit, a digit and a bit, up to the _bdcc_ key budget — drawn from
// small pools, so most keys repeat and stability decides the order.
func TestSortPermMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 1000, 300000} {
		for _, sig := range []int{0, 1, 11, 12, 23, 40, 62} {
			pool := make([]uint64, 1+n/50)
			for i := range pool {
				pool[i] = rng.Uint64() & (1<<sig - 1)
			}
			if sig > 0 {
				pool[0] |= 1 << (sig - 1) // the top bit is significant
			}
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = pool[rng.Intn(len(pool))]
			}
			type keyed struct {
				key uint64
				row int32
			}
			pairs := make([]keyed, n)
			for i, k := range keys {
				pairs[i] = keyed{k, int32(i)}
			}
			slices.SortFunc(pairs, func(a, b keyed) int { return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.row, b.row)) })
			want := make([]int32, n)
			for i, p := range pairs {
				want[i] = p.row
			}
			if got := SortPerm(keys); !slices.Equal(got, want) {
				t.Fatalf("n=%d, %d significant bits: SortPerm differs from a stable sort", n, sig)
			}
		}
	}
}

// sortPermSink keeps BenchmarkSortPerm's result alive.
var sortPermSink []int32

// BenchmarkSortPerm sorts 300 000 random keys of 36 significant bits (the
// width of the paper's lineitem key); it reports ns per key.
func BenchmarkSortPerm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 300000)
	for i := range keys {
		keys[i] = rng.Uint64() & (1<<36 - 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		sortPermSink = SortPerm(keys)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/row")
}
