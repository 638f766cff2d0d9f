package storage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bdcc/internal/vector"
)

// dictRunsFixture builds a table of n rows with zoneFixture's schema whose
// notes keep a dictionary (a few hundred long values) while some of their
// chunks run-length-encode (long runs of one value) and some stay raw
// (one-byte values, shorter than a code).
func dictRunsFixture(t testing.TB, n int, seed int64) *Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	id := make([]int64, n)
	price := make([]float64, n)
	note := make([]string, n)
	for i := range n {
		id[i] = int64(i/50) + rng.Int63n(3)
		price[i] = float64(rng.Intn(1e6)) / 100
		switch i / 200 % 4 {
		case 0:
			note[i] = string(rune('a' + rng.Intn(3)))
		case 1:
			note[i] = fmt.Sprintf("a long dictionary value %03d", i/200)
		default:
			note[i] = fmt.Sprintf("a long dictionary value %03d", rng.Intn(300))
		}
	}
	tab, err := NewTable("z", 1<<10, NewInt64Column("id", id), NewFloat64Column("price", price), NewStringColumn("note", note))
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// sameEncoded returns an error unless got and want are the same compressed
// table chunk for chunk: each column's encoding (granularity, dictionary,
// totals, every chunk's encoding, bytes, payload and bounds, the strings it
// owns) and width, its zones with the rows holding their bounds and whether
// they are known, and a string column's offsets (strOffsets).
func sameEncoded(got, want *Table) error {
	if !got.Compressed() || !want.Compressed() || got.Rows() != want.Rows() {
		return fmt.Errorf("compressed %v / %v, %d / %d rows", got.Compressed(), want.Compressed(), got.Rows(), want.Rows())
	}
	for i, wc := range want.Cols {
		gc := got.Cols[i]
		ge, we := *gc.Enc, *wc.Enc
		if len(ge.Chunks) != len(we.Chunks) {
			return fmt.Errorf("column %s: %d chunks, want %d", wc.Name, len(ge.Chunks), len(we.Chunks))
		}
		for k := range we.Chunks {
			if !reflect.DeepEqual(ge.Chunks[k], we.Chunks[k]) {
				return fmt.Errorf("column %s: chunk %d (%s) differs from the gather's (%s)", wc.Name, k, ge.Chunks[k].Enc, we.Chunks[k].Enc)
			}
		}
		if !reflect.DeepEqual(ge, we) || math.Float64bits(gc.width) != math.Float64bits(wc.width) {
			return fmt.Errorf("column %s: encoding or width differs from the gather's", wc.Name)
		}
		if (got.known(i) == nil) != (want.known(i) == nil) || !reflect.DeepEqual(*got.zonemap(i), *want.zonemap(i)) {
			return fmt.Errorf("column %s: zones differ from the gather's", wc.Name)
		}
		if wc.Kind == vector.String && !slices.Equal(got.strOffsets(i), want.strOffsets(i)) {
			return fmt.Errorf("column %s: string offsets differ from the gather's", wc.Name)
		}
	}
	return nil
}

// TestEncodedViewMatchesGather: Encoded of a view encodes it from its runs,
// numbers a chunk at a time, and must build the very table Encoded of its
// Materialized gather builds. Chains of eight splices over compressed roots
// — one of zone extremes, one whose dictionary column has run-length and
// raw chunks — insert batches at random rows (into the second, in three
// places), with a relocation area
// re-appended or not, and prune some columns first, so that zones with
// bound rows are carried over; every third step encodes a view whose root
// is an encoded view.
func TestEncodedViewMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	fixtures := []func(n int, seed int64) *Table{
		func(n int, seed int64) *Table { return zoneFixture(t, n, seed, 4) },
		func(n int, seed int64) *Table { return dictRunsFixture(t, n, seed) },
	}
	for f, fixture := range fixtures {
		root := fixture(4000, 1)
		root.Compress()
		for _, relocate := range []bool{false, true} {
			cur, rows, saw := root, root.Rows(), [vector.NumEncodings]int64{}
			for step := range 8 {
				b := fixture(20+rng.Intn(200), int64(10+step))
				at := randomAt(rng, rows, b.Rows())
				if f == 1 { // in three places, as arrivals land in a few cells, so that runs survive
					spots := randomAt(rng, rows, 3)
					for j := range at {
						at[j] = spots[j*3/len(at)]
					}
				}
				src := insertSrc(rows, at)
				if relocate {
					lo := rng.Intn(len(src) - 300)
					src = append(src, src[lo:lo+rng.Intn(300)]...)
				}
				view, err := Splice(cur, rows, b, spliceRuns(src, rows))
				if err != nil {
					t.Fatal(err)
				}
				if step%2 == 1 {
					view.PruneZonemap([]string{"id", "note"}[step%4/2], Interval{Lo: Bound{Set: true, I: 7, S: "b"}}, nil)
				}
				label := fmt.Sprintf("fixture %d, relocate %v, step %d", f, relocate, step)
				got := view.Encoded()
				if err := sameEncoded(got, view.Materialized().Encoded()); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameRows(t, got, view)
				for k, n := range got.Cols[2].Enc.Counts {
					saw[k] += n
				}
				if cur, rows = view, len(src); step%3 == 2 {
					cur = got
				}
			}
			if f == 1 && (saw[EncRLE] == 0 || saw[EncRaw] == 0 || saw[EncDict] == 0) {
				t.Fatalf("relocate %v: the dictionary column's chunks must take every encoding: saw %v", relocate, saw)
			}
		}
	}
}
