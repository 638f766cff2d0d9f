package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"bdcc/internal/vector"
)

// zoneFixture builds a table of n rows for the zone derivation: an id whose
// pages (128 rows) hold their minimum on their last row and their maximum on
// their first, so a shift of a few rows moves both to a neighbouring page,
// with int64 extremes among them; a price; and notes that share a long
// prefix, some of them the bare prefix or the empty string, padded by up to
// pad bytes.
func zoneFixture(t testing.TB, n int, seed int64, pad int) *Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	prefix := strings.Repeat("shared/prefix/", 3)
	id := make([]int64, n)
	price := make([]float64, n)
	note := make([]string, n)
	for i := range n {
		switch {
		case i%499 == 5:
			id[i] = math.MaxInt64
		case i%503 == 7:
			id[i] = math.MinInt64
		case i%128 == 127:
			id[i] = -1000 - rng.Int63n(1000)
		case i%128 == 0:
			id[i] = 1e6 + rng.Int63n(1000)
		default:
			id[i] = rng.Int63n(1000)
		}
		price[i] = float64(rng.Intn(1e6)) / 100
		switch {
		case i%37 == 11:
			note[i] = ""
		case i%41 == 13:
			note[i] = prefix
		default:
			note[i] = prefix + fmt.Sprintf("%04d", rng.Intn(10000)) + strings.Repeat("z", rng.Intn(pad+1))
		}
	}
	tab, err := NewTable("z", 1<<10, NewInt64Column("id", id), NewFloat64Column("price", price), NewStringColumn("note", note))
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// insertSrc returns the splice source list that keeps the first keep rows of
// a parent in order and places batch row j before parent row at[j] (at
// sorted; keep places it after the last).
func insertSrc(keep int, at []int) []int32 {
	src := make([]int32, 0, keep+len(at))
	j := 0
	for r := 0; r <= keep; r++ {
		for j < len(at) && at[j] == r {
			src = append(src, int32(keep+j))
			j++
		}
		if r < keep {
			src = append(src, int32(r))
		}
	}
	return src
}

// randomAt draws n sorted insert positions in [0, keep].
func randomAt(rng *rand.Rand, keep, n int) []int {
	at := make([]int, n)
	for j := range at {
		at[j] = rng.Intn(keep + 1)
	}
	slices.Sort(at)
	return at
}

// gatheredTable builds, row by row and from scratch, the table whose row i
// is row src[i] of a's first keep rows followed by b.
func gatheredTable(t testing.TB, a *Table, keep int, b *Table, src []int32) *Table {
	t.Helper()
	cols := make([]*Column, len(a.Cols))
	for i, c := range a.Cols {
		nc := &Column{Name: c.Name, Kind: c.Kind}
		for _, s := range src {
			from, r := c, int(s)
			if r >= keep {
				from, r = b.Cols[i], r-keep
			}
			nc.appendRows(from, r, r+1)
		}
		cols[i] = nc
	}
	out, err := NewTable(a.Name, a.PageSize, cols...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// samePruning fails unless got and want prune every column alike over
// intervals drawn from want's values.
func samePruning(t *testing.T, label string, got, want *Table, rng *rand.Rand) {
	t.Helper()
	if want.Rows() == 0 {
		return
	}
	for _, c := range want.Cols {
		for range 12 {
			x, y := rng.Intn(want.Rows()), rng.Intn(want.Rows())
			lo, hi := Bound{Set: true}, Bound{Set: true}
			switch c.Kind {
			case vector.Int64:
				lo.I, hi.I = min(c.I64[x], c.I64[y]), max(c.I64[x], c.I64[y])
			case vector.String:
				lo.S, hi.S = min(c.Str.At(x), c.Str.At(y)), max(c.Str.At(x), c.Str.At(y))
			}
			for _, iv := range []Interval{{Lo: lo, Hi: hi}, {Lo: lo}, {Hi: hi}, {Lo: hi, Hi: hi}} {
				if g, w := got.PruneZonemap(c.Name, iv, nil), want.PruneZonemap(c.Name, iv, nil); !slices.Equal(g, w) {
					t.Fatalf("%s: %s prunes %+v to %v, want %v", label, c.Name, iv, g, w)
				}
			}
		}
	}
}

// TestSpliceDerivesZones: the zones Splice and Concat derive from their
// parent's equal, bound for bound and in what they prune, the zones built
// from the gathered rows, and every row they record holds its bound — for
// inserts on page edges, parent pages whose bound rows move to the
// neighbouring output page, repeated rows (the relocation area), pages of
// batch rows only, a kept prefix, a batch that moves the notes' rows per
// page, and a shuffle; over a raw and an encoded parent; and along a chain
// of 40 splices encoded every 8.
func TestSpliceDerivesZones(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	raw := zoneFixture(t, 3000, 1, 4)
	intRows, noteRows := raw.zones[0].rowsPerPage, raw.zones[2].rowsPerPage
	var edges []int
	for r := 0; r <= raw.Rows(); r += intRows {
		edges = append(edges, r, r)
	}
	for r := noteRows; r < raw.Rows(); r += 3 * noteRows {
		edges = append(edges, r)
	}
	slices.Sort(edges)
	check := func(label string, a *Table, keep int, b *Table, src []int32) *Table {
		t.Helper()
		got, err := Splice(a, keep, b, src)
		if err != nil {
			t.Fatal(err)
		}
		want := gatheredTable(t, a, keep, b, src)
		sameZones(t, label, got, want)
		samePruning(t, label, got, want, rng)
		return got
	}
	for _, a := range []*Table{raw, raw.Encoded()} {
		n := a.Rows()
		label := func(s string) string { return fmt.Sprintf("%s (compressed %v)", s, a.Compressed()) }
		small := zoneFixture(t, 40, 2, 4)
		check(label("page edges"), a, n, zoneFixture(t, len(edges), 3, 4), insertSrc(n, edges))
		shifted := insertSrc(n, []int{0, 0, 0, 0, 0})
		check(label("bound rows move"), a, n, small, shifted)
		check(label("repeated rows"), a, n, small, append(append(shifted, shifted[100:180]...), shifted[10:20]...))
		check(label("batch-only pages"), a, n, zoneFixture(t, 5*intRows, 4, 4), insertSrc(n, slices.Repeat([]int{300}, 5*intRows)))
		check(label("kept prefix"), a, n-37, small, insertSrc(n-37, randomAt(rng, n-37, small.Rows())))
		long := zoneFixture(t, 600, 5, 80)
		moved := check(label("rows per page move"), a, n, long, insertSrc(n, randomAt(rng, n, long.Rows())))
		if moved.zones[2].rowsPerPage == noteRows {
			t.Fatalf("long notes left the notes at %d rows a page", noteRows)
		}
		shuffle := make([]int32, n+small.Rows())
		for i, p := range rng.Perm(len(shuffle)) {
			shuffle[i] = int32(p)
		}
		check(label("shuffle"), a, n, small, shuffle)
		for _, keep := range []int{n, n - 37, 0} {
			for _, b := range []*Table{small, long} {
				got, err := Concat(a, keep, b)
				if err != nil {
					t.Fatal(err)
				}
				concat := label(fmt.Sprintf("concat of %d and %d rows", keep, b.Rows()))
				want := freshCopy(t, got)
				sameZones(t, concat, got, want)
				samePruning(t, concat, got, want, rng)
			}
		}
	}

	// A chain, as appends and merges leave it: each splice inserts a batch
	// into the previous view's rows and re-appends a relocation area.
	cur, rows := raw, raw.Rows()
	for i := range 40 {
		b := zoneFixture(t, 30+rng.Intn(120), int64(100+i), 4+i%3*30)
		src := insertSrc(rows, randomAt(rng, rows, b.Rows()))
		lo := rng.Intn(len(src) - 200)
		cur = check(fmt.Sprintf("chain step %d", i), cur, rows, b, append(src, src[lo:lo+rng.Intn(200)]...))
		rows = len(src)
		if i%8 == 7 {
			cur = cur.Encoded()
			if err := CheckChunkZones(cur, true); err != nil {
				t.Fatalf("chain step %d, encoded: %v", i, err)
			}
		}
	}
}

// fuzzBytes reads a fuzz input byte by byte, zeros past its end.
type fuzzBytes []byte

func (f *fuzzBytes) next() int {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return int(b)
}

// fuzzTable decodes a table of n rows: small ids with int64 extremes and
// short notes over a tiny alphabet, so values tie and bounds repeat.
func fuzzTable(t *testing.T, f *fuzzBytes, n int) *Table {
	id := make([]int64, n)
	price := make([]float64, n)
	note := make([]string, n)
	for i := range n {
		switch x := f.next(); x {
		case 0x7f:
			id[i] = math.MaxInt64
		case 0x80:
			id[i] = math.MinInt64
		default:
			id[i] = int64(int8(x))
		}
		price[i] = float64(i)
		if x := f.next(); x%9 != 0 {
			note[i] = strings.Repeat("ab", x%4) + string(rune('a'+x/4%3))
		}
	}
	tab, err := NewTable("f", 64, NewInt64Column("id", id), NewFloat64Column("price", price), NewStringColumn("note", note))
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// FuzzSpliceZones decodes a parent, a batch and a source list and requires
// the zones Splice and Concat derive to be the zones built from the
// gathered rows, with every recorded row holding its bound.
func FuzzSpliceZones(f *testing.F) {
	f.Add([]byte{40, 6, 3, 1, 0x7f, 2, 0x80, 9, 5, 6, 7, 8, 0, 9, 1, 4, 1, 5, 20, 8, 7, 6})
	f.Add([]byte{200, 30, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		a := fuzzTable(t, &in, in.next())
		b := fuzzTable(t, &in, in.next()%64)
		if in.next()%2 == 1 {
			a = a.Encoded()
		}
		keep := a.Rows() - in.next()%(a.Rows()+1)
		var src []int32
		for len(in) > 0 && len(src) < 1000 {
			x := in.next()
			if x%2 == 1 && b.Rows() > 0 {
				src = append(src, int32(keep+x/2%b.Rows()))
			} else if keep > 0 {
				from, n := x/2%keep, in.next()%40
				for r := from; r < min(from+n, keep); r++ {
					src = append(src, int32(r))
				}
			}
		}
		got, err := Splice(a, keep, b, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBounds(got, gatheredTable(t, a, keep, b, src)); err != nil {
			t.Fatalf("splice: %v", err)
		}
		if got, err = Concat(a, keep, b); err != nil {
			t.Fatal(err)
		}
		if err := sameBounds(got, freshCopy(t, got)); err != nil {
			t.Fatalf("concat: %v", err)
		}
	})
}

// FuzzExtract decodes a compressed parent and a list of row ranges and
// requires Extract of them — AppendRows, on an odd flag byte — to be the
// table NewTable and Compress build over the same rows (CheckExtract). The
// parent's short notes over a tiny alphabet make appended rows shift the
// string chunks' length and flip their dictionary's viability.
func FuzzExtract(f *testing.F) {
	f.Add([]byte{200, 3, 1, 0x7f, 2, 0x80, 9, 5, 6, 7, 8, 0, 9, 1, 4, 1, 5, 20, 8, 7, 6, 1, 0, 0, 64, 0, 10, 30})
	f.Add([]byte{120, 30, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 0, 0, 90, 0, 5, 0, 0, 2, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		a := fuzzTable(t, &in, in.next())
		a.Compress()
		appendRows := in.next()%2 == 1
		var ranges RowRanges
		for len(in) > 0 && len(ranges) < 64 {
			from := (in.next()<<8 | in.next()) % (a.Rows() + 1)
			ranges = append(ranges, RowRange{from, min(from+in.next(), a.Rows())})
		}
		if _, err := CheckExtract(a, ranges, appendRows); err != nil {
			t.Fatal(err)
		}
	})
}
