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

// deltaFixture builds a small mixed-kind table of n rows.
func deltaFixture(t testing.TB, name string, n int, seed int64) *Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var ids []int64
	var prices []float64
	var notes vector.Heap
	for i := 0; i < n; i++ {
		ids = append(ids, rng.Int63n(1<<40)-(1<<39))
		prices = append(prices, math.Floor(rng.Float64()*1e6)/100)
		notes.Append(strings.Repeat("x", rng.Intn(12)) + fmt.Sprint(rng.Intn(1000)))
	}
	tab, err := NewTable(name, 4<<10, NewInt64Column("id", ids), NewFloat64Column("price", prices), NewHeapColumn("note", notes))
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	return tab
}

// sameRows fails unless got and want hold the same rows, read through a
// Reader, so a view's runs are read as a scan reads them.
func sameRows(t *testing.T, got, want *Table) {
	t.Helper()
	if got.Rows() != want.Rows() {
		t.Fatalf("%d rows, want %d", got.Rows(), want.Rows())
	}
	for i, wc := range want.Cols {
		gc := got.Cols[i]
		if gc.Name != wc.Name || gc.Kind != wc.Kind {
			t.Fatalf("column %d is %s %s, want %s %s", i, gc.Kind, gc.Name, wc.Kind, wc.Name)
		}
		g, w := readAll(got, i), readAll(want, i)
		for r := 0; r < want.Rows(); r++ {
			switch wc.Kind {
			case vector.Int64:
				if g.I64[r] != w.I64[r] {
					t.Fatalf("%s[%d] = %d, want %d", wc.Name, r, g.I64[r], w.I64[r])
				}
			case vector.Float64:
				if math.Float64bits(g.F64[r]) != math.Float64bits(w.F64[r]) {
					t.Fatalf("%s[%d] = %v, want %v", wc.Name, r, g.F64[r], w.F64[r])
				}
			case vector.String:
				if g.Str[r] != w.Str[r] {
					t.Fatalf("%s[%d] = %q, want %q", wc.Name, r, g.Str[r], w.Str[r])
				}
			}
		}
	}
}

// TestDeltaStore: Delta.Append accepts a batch of the base's schema and
// returns its row count, and rejects schema mismatches (a column missing,
// columns out of order), compressed and empty batches.
func TestDeltaStore(t *testing.T) {
	base := deltaFixture(t, "d", 4, 1)
	d := NewDelta(base)
	if n, err := d.Append(deltaFixture(t, "d", 3, 2)); err != nil || n != 3 {
		t.Fatalf("append: n=%d err=%v", n, err)
	}
	packed := deltaFixture(t, "d", 3, 4)
	packed.Compress()
	if _, err := d.Append(packed); err == nil {
		t.Fatal("compressed append succeeded")
	}
	bad := MustNewTable("d", 4<<10, NewInt64Column("id", []int64{1}))
	if _, err := d.Append(bad); err == nil {
		t.Fatal("schema-mismatched append succeeded")
	}
	swapped := MustNewTable("d", 4<<10,
		NewFloat64Column("price", []float64{1}), NewInt64Column("id", []int64{1}), NewStringColumn("note", []string{"x"}))
	if _, err := d.Append(swapped); err == nil {
		t.Fatal("append with its columns out of order succeeded")
	}
	empty := MustNewTable("d", 4<<10,
		NewInt64Column("id", nil), NewFloat64Column("price", nil), NewStringColumn("note", nil))
	if _, err := d.Append(empty); err == nil {
		t.Fatal("empty append succeeded")
	}
}

// TestEncodedSharesRows: Encoded is Compress over a table's own values — the
// same rows, widths and zonemaps as compressing a copy, raw chunks windows of
// the source's arrays rather than copies, and the source left raw.
func TestEncodedSharesRows(t *testing.T) {
	src := deltaFixture(t, "e", 3000, 9)
	encs := make([]*ColumnEncoding, len(src.Cols))
	for i, c := range src.Cols {
		encs[i] = c.Enc
	}
	want := freshCopy(t, src)
	want.Compress()
	got := src.Encoded()
	if !got.Compressed() || src.Compressed() {
		t.Fatalf("Encoded: result compressed=%v, source compressed=%v", got.Compressed(), src.Compressed())
	}
	sameZones(t, "encoded", got, want)
	if got.CompressionStats() != want.CompressionStats() {
		t.Fatalf("encoded stats %+v, compressing a copy gives %+v", got.CompressionStats(), want.CompressionStats())
	}
	for _, ci := range []int{1, 2} { // raw-encoded: random prices, distinct notes
		g, w := got.Cols[ci].Enc.Chunks[0], src.Cols[ci].Enc.Chunks[0]
		if g.Enc != EncRaw || (ci == 1 && &g.ValF[0] != &w.ValF[0]) || (ci == 2 && &g.ValS.Bytes[0] != &w.ValS.Bytes[0]) {
			t.Fatalf("Encoded copied the values of column %s", src.Cols[ci].Name)
		}
	}
	for i, c := range src.Cols {
		if c.Enc != encs[i] {
			t.Fatalf("Encoded encoded the source's column %s", c.Name)
		}
	}
	sameZones(t, "source", src, freshCopy(t, src))
}

func TestConcatMatchesCompressedBase(t *testing.T) {
	base := deltaFixture(t, "c", 200, 11)
	raw := deltaFixture(t, "c", 200, 11)
	base.Compress()
	tail := deltaFixture(t, "c", 30, 12)
	got, err := Concat(base, base.Rows(), tail)
	if err != nil {
		t.Fatalf("concat: %v", err)
	}
	if got.Compressed() {
		t.Fatal("concat result is compressed")
	}
	want, err := Concat(raw, raw.Rows(), tail)
	if err != nil {
		t.Fatalf("concat raw: %v", err)
	}
	sameRows(t, got, want)
}

// freshCopy rebuilds a table from copies of its raw columns: widths and
// zonemaps computed from scratch, nothing carried over.
func freshCopy(t *testing.T, tab *Table) *Table {
	t.Helper()
	cols := make([]*Column, len(tab.Cols))
	for i, c := range tab.Cols {
		cols[i] = rawCopy(c, FullRange(tab.Rows()))
	}
	out, err := NewTable(tab.Name, tab.PageSize, cols...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameZones(t *testing.T, label string, got, want *Table) {
	t.Helper()
	sameRows(t, got, want)
	for i := range want.Cols {
		if got.Cols[i].width != want.Cols[i].width {
			t.Fatalf("%s: column %s width %v, want %v", label, want.Cols[i].Name, got.Cols[i].width, want.Cols[i].width)
		}
	}
	if err := sameBounds(got, want); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// sameBounds returns an error unless every zone of got has want's geometry
// and bounds and every row got records for a bound lies on its page and
// holds the bound. Rows are not compared: any occurrence may be recorded.
func sameBounds(got, want *Table) error {
	for i, c := range want.Cols {
		if !sameZoneBounds(got.zonemap(i), want.zonemap(i)) {
			return fmt.Errorf("zonemap of %s differs from one built from scratch", c.Name)
		}
		if err := boundRowsHold(got, i); err != nil {
			return err
		}
	}
	return nil
}

// boundRowsHold returns an error unless every row column i's zones record
// lies on its page and holds the bound (zones without rows pass).
func boundRowsHold(tab *Table, i int) error {
	z, c := tab.zonemap(i), tab.Cols[i]
	if z.minAt == nil {
		return nil
	}
	v := readAll(tab, i)
	if len(z.minAt) != z.pages() || len(z.maxAt) != z.pages() {
		return fmt.Errorf("column %s: %d/%d bound rows for %d pages", c.Name, len(z.minAt), len(z.maxAt), z.pages())
	}
	for p := range z.pages() {
		lo, hi := p*z.rowsPerPage, min((p+1)*z.rowsPerPage, tab.Rows())
		mn, mx := int(z.minAt[p]), int(z.maxAt[p])
		ok := mn >= lo && mn < hi && mx >= lo && mx < hi
		switch c.Kind {
		case vector.Int64:
			ok = ok && v.I64[mn] == z.minI[p] && v.I64[mx] == z.maxI[p]
		case vector.String:
			ok = ok && v.Str[mn] == z.minS[p] && v.Str[mx] == z.maxS[p]
		}
		if !ok {
			return fmt.Errorf("column %s page %d [%d,%d): bound rows %d/%d do not hold its bounds", c.Name, p, lo, hi, mn, mx)
		}
	}
	return nil
}

// TestConcatCarriesZones: a Concat's zones are indistinguishable from those
// of a table built from scratch — over a raw and a compressed base, when a
// string column's average length (hence its rows per page) moves, when the
// base ends mid-page, and across a chain of appends.
func TestConcatCarriesZones(t *testing.T) {
	for _, compress := range []bool{false, true} {
		for _, n := range []int{0, 1, 512, 700, 5000} {
			base := deltaFixture(t, "c", n, 21)
			if compress {
				base.Compress()
			}
			cur := base
			for step, k := range []int{1, 40, 3, 900} {
				tail := deltaFixture(t, "c", k, int64(30+step))
				if step == 3 {
					// Long notes move the column's average length.
					long := tail.Cols[2].Values().Str
					for i := range long {
						long[i] += strings.Repeat("y", 40)
					}
					tail.Cols[2] = NewStringColumn("note", long)
				}
				next, err := Concat(cur, cur.Rows(), tail)
				if err != nil {
					t.Fatal(err)
				}
				sameZones(t, fmt.Sprintf("compressed=%v base=%d step=%d", compress, n, step), next, freshCopy(t, next))
				cur = next
			}
		}
	}
	// A partial prefix carries nothing over and is still right.
	base := deltaFixture(t, "c", 3000, 5)
	got, err := Concat(base, 1234, deltaFixture(t, "c", 77, 6))
	if err != nil {
		t.Fatal(err)
	}
	sameZones(t, "partial prefix", got, freshCopy(t, got))
}

// TestSpliceGathers: Splice equals Concat followed by Permute (and by
// AppendRows where the source list repeats rows), zonemaps included, for
// every column kind over raw and compressed bases.
func TestSpliceGathers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, compress := range []bool{false, true} {
		a := deltaFixture(t, "c", 2000, 1)
		if compress {
			a.Compress()
		}
		b := deltaFixture(t, "c", 150, 2)
		const keep = 1900 // a's tail is not part of the concatenation
		perm := rng.Perm(keep + b.Rows())
		// Long runs of consecutive rows of a, as a merge leaves them.
		slices.Sort(perm[:1500])
		src := make([]int32, 0, len(perm)+60)
		for _, p := range perm {
			src = append(src, int32(p))
		}
		concat, err := Concat(a, keep, b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := concat.Permute(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Splice(a, keep, b, spliceRuns(src, keep))
		if err != nil {
			t.Fatal(err)
		}
		sameZones(t, "permutation", got, want)
		if ConcatWidth(a, keep, b) != concat.DensestColumn().Width() {
			t.Fatalf("ConcatWidth = %v, the concatenation's densest column is %v wide", ConcatWidth(a, keep, b), concat.DensestColumn().Width())
		}
		ranges := RowRanges{{100, 130}, {1700, 1730}}
		want, err = want.AppendRows(ranges)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range ranges {
			src = append(src, src[r.Start:r.End]...)
		}
		got, err = Splice(a, keep, b, spliceRuns(src, keep))
		if err != nil {
			t.Fatal(err)
		}
		sameZones(t, "with repeated rows", got, want)
	}
	if _, err := Splice(deltaFixture(t, "c", 5, 1), 9, deltaFixture(t, "c", 5, 2), nil); err == nil {
		t.Fatal("Splice kept more rows than its first table has")
	}
}
