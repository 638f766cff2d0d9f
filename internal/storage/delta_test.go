package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"bdcc/internal/vector"
)

// deltaFixture builds a small mixed-kind table of n rows.
func deltaFixture(t testing.TB, name string, n int, seed int64) *Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	id := &Column{Name: "id", Kind: vector.Int64}
	price := &Column{Name: "price", Kind: vector.Float64}
	note := &Column{Name: "note", Kind: vector.String}
	for i := 0; i < n; i++ {
		id.I64 = append(id.I64, rng.Int63n(1<<40)-(1<<39))
		price.F64 = append(price.F64, math.Floor(rng.Float64()*1e6)/100)
		note.Str.Append(strings.Repeat("x", rng.Intn(12)) + fmt.Sprint(rng.Intn(1000)))
	}
	tab, err := NewTable(name, 4<<10, id, price, note)
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	return tab
}

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
		for r := 0; r < want.Rows(); r++ {
			switch wc.Kind {
			case vector.Int64:
				if gc.I64[r] != wc.I64[r] {
					t.Fatalf("%s[%d] = %d, want %d", wc.Name, r, gc.I64[r], wc.I64[r])
				}
			case vector.Float64:
				if math.Float64bits(gc.F64[r]) != math.Float64bits(wc.F64[r]) {
					t.Fatalf("%s[%d] = %v, want %v", wc.Name, r, gc.F64[r], wc.F64[r])
				}
			case vector.String:
				if gc.Str.At(r) != wc.Str.At(r) {
					t.Fatalf("%s[%d] = %q, want %q", wc.Name, r, gc.Str.At(r), wc.Str.At(r))
				}
			}
		}
	}
}

func TestDeltaStore(t *testing.T) {
	base := deltaFixture(t, "d", 4, 1)
	d := NewDelta(base)
	b1 := deltaFixture(t, "d", 3, 2)
	b2 := deltaFixture(t, "d", 5, 3)
	if n, err := d.Append(b1); err != nil || n != 3 {
		t.Fatalf("append 1: n=%d err=%v", n, err)
	}
	if n, err := d.Append(b2); err != nil || n != 8 {
		t.Fatalf("append 2: n=%d err=%v", n, err)
	}
	if d.Rows() != 8 || d.AppendedRows() != 8 {
		t.Fatalf("rows=%d appended=%d, want 8/8", d.Rows(), d.AppendedRows())
	}

	// Clearing forgets the un-merged rows and keeps the lifetime count.
	d.Clear()
	if n, err := d.Append(b1); err != nil || n != 3 || d.AppendedRows() != 11 {
		t.Fatalf("append after clear: n=%d appended=%d err=%v, want 3/11", n, d.AppendedRows(), err)
	}

	// Schema mismatches, compressed and empty batches are rejected and
	// counted nowhere.
	packed := deltaFixture(t, "d", 3, 4)
	packed.Compress()
	if _, err := d.Append(packed); err == nil {
		t.Fatal("compressed append succeeded")
	}
	bad := MustNewTable("d", 4<<10, &Column{Name: "id", Kind: vector.Int64, I64: []int64{1}})
	if _, err := d.Append(bad); err == nil {
		t.Fatal("schema-mismatched append succeeded")
	}
	empty := MustNewTable("d", 4<<10,
		&Column{Name: "id", Kind: vector.Int64},
		&Column{Name: "price", Kind: vector.Float64},
		&Column{Name: "note", Kind: vector.String})
	if _, err := d.Append(empty); err == nil {
		t.Fatal("empty append succeeded")
	}
	if d.Rows() != 3 || d.AppendedRows() != 11 {
		t.Fatalf("rejected appends were counted: rows=%d appended=%d, want 3/11", d.Rows(), d.AppendedRows())
	}
}

// TestEncodedSharesRows: Encoded is Compress over a table's own value arrays
// — the same rows, widths and zonemaps as compressing a copy, the arrays
// shared rather than copied, and the source left raw.
func TestEncodedSharesRows(t *testing.T) {
	src := deltaFixture(t, "e", 3000, 9)
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
	if &got.Cols[0].I64[0] != &src.Cols[0].I64[0] || &got.Cols[2].Str.Bytes[0] != &src.Cols[2].Str.Bytes[0] {
		t.Fatal("Encoded copied the value arrays")
	}
	for _, c := range src.Cols {
		if c.Enc != nil {
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
		nc := &Column{Name: c.Name, Kind: c.Kind}
		nc.appendRows(c, 0, tab.Rows())
		cols[i] = nc
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
		if !sameZoneBounds(&got.zones[i], &want.zones[i]) {
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
	z, c := &tab.zones[i], tab.Cols[i]
	if z.minAt == nil {
		return nil
	}
	if len(z.minAt) != z.pages() || len(z.maxAt) != z.pages() {
		return fmt.Errorf("column %s: %d/%d bound rows for %d pages", c.Name, len(z.minAt), len(z.maxAt), z.pages())
	}
	for p := range z.pages() {
		lo, hi := p*z.rowsPerPage, min((p+1)*z.rowsPerPage, tab.Rows())
		mn, mx := int(z.minAt[p]), int(z.maxAt[p])
		ok := mn >= lo && mn < hi && mx >= lo && mx < hi
		switch c.Kind {
		case vector.Int64:
			ok = ok && c.I64[mn] == z.minI[p] && c.I64[mx] == z.maxI[p]
		case vector.String:
			ok = ok && c.Str.At(mn) == z.minS[p] && c.Str.At(mx) == z.maxS[p]
		}
		if !ok {
			return fmt.Errorf("column %s page %d [%d,%d): bound rows %d/%d do not hold its bounds", c.Name, p, lo, hi, mn, mx)
		}
	}
	return nil
}

// TestConcatCarriesZones: a Concat that keeps all of its first operand
// carries that table's full-page zones over instead of recomputing them, and
// the result is indistinguishable from a table built from scratch — over a
// raw and a compressed base, when a string column's average length (hence
// its rows per page) moves, when the base ends mid-page, and across a chain
// of appends.
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
					long := strs(tail.Cols[2].Str)
					for i := range long {
						long[i] += strings.Repeat("y", 40)
					}
					tail.Cols[2].Str = vector.HeapOf(long)
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

// rowSum folds every value of a table, for comparing a version with itself
// while other goroutines extend the arrays it sits in.
func rowSum(tab *Table) (sum uint64) {
	for _, c := range tab.Cols {
		for r := 0; r < tab.Rows(); r++ {
			switch c.Kind {
			case vector.Int64:
				sum = sum*31 + uint64(c.I64[r])
			case vector.Float64:
				sum = sum*31 + math.Float64bits(c.F64[r])
			case vector.String:
				sum = sum*31 + uint64(len(c.Str.At(r)))
			}
		}
	}
	return sum
}

// TestConcatExtendsTipOnce: a chain of Concats grows one set of arrays in
// place, and only the first Concat to keep all of a table Concat built may
// write past its rows. A Concat of a table it did not build, a second Concat
// from one version and a prefix Concat copy. Every result equals the table
// built from scratch, and an older version keeps its rows, widths and zones
// after later appends — also to a reader scanning it during them (run under
// -race).
func TestConcatExtendsTipOnce(t *testing.T) {
	shared := func(a, b *Table) bool { return &a.Cols[0].I64[0] == &b.Cols[0].I64[0] }
	concat := func(label string, a *Table, keep, n int, seed int64) *Table {
		t.Helper()
		out, err := Concat(a, keep, deltaFixture(t, "c", n, seed))
		if err != nil {
			t.Fatal(err)
		}
		sameZones(t, label, out, freshCopy(t, out))
		return out
	}
	base := deltaFixture(t, "c", 3000, 41)
	v1 := concat("first", base, base.Rows(), 20, 42)
	if shared(v1, base) {
		t.Fatal("Concat extended a table it did not build")
	}
	want1 := freshCopy(t, v1)
	v2 := concat("tip", v1, v1.Rows(), 30, 43)
	if !shared(v2, v1) {
		t.Fatal("Concat copied the tip of its own chain")
	}
	fork := concat("second from v1", v1, v1.Rows(), 25, 44)
	if shared(fork, v1) {
		t.Fatal("a second Concat from one version extended it in place")
	}
	if prefix := concat("prefix", v2, v2.Rows()-7, 10, 45); shared(prefix, v2) {
		t.Fatal("a prefix Concat extended its table in place")
	}
	want2 := freshCopy(t, v2)

	// A reader scans v1 while the chain grows past its arrays' capacity.
	sum1 := rowSum(want1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if got := rowSum(v1); got != sum1 {
				t.Errorf("v1 read %x during the appends, want %x", got, sum1)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	cur, err := v2, error(nil)
	for i := 0; i < 60 && err == nil; i++ {
		cur, err = Concat(cur, cur.Rows(), deltaFixture(t, "c", 50, int64(100+i)))
	}
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	sameZones(t, "chain", cur, freshCopy(t, cur))
	sameZones(t, "v1 after later appends", v1, want1)
	sameZones(t, "v2 after later appends", v2, want2)
}

// TestConcatRejectsEncodedOnly: an adopted compressed table has no raw values
// to extend or gather, so Concat and Splice return an error on either side.
func TestConcatRejectsEncodedOnly(t *testing.T) {
	raw := deltaFixture(t, "c", 500, 51)
	packed := deltaFixture(t, "c", 500, 51)
	packed.Compress()
	adopted, _, err := adopt(packed, packed.Frames(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	batch := deltaFixture(t, "c", 10, 52)
	for label, f := range map[string]func() error{
		"concat onto": func() error { _, err := Concat(adopted, adopted.Rows(), batch); return err },
		"concat of":   func() error { _, err := Concat(raw, raw.Rows(), adopted); return err },
		"splice onto": func() error { _, err := Splice(adopted, 100, batch, []int32{0, 1}); return err },
		"splice of":   func() error { _, err := Splice(raw, 100, adopted, []int32{0, 1}); return err },
	} {
		if err := f(); err == nil || !strings.Contains(err.Error(), "holds no raw values") {
			t.Errorf("%s an adopted compressed table: %v", label, err)
		}
	}
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
		got, err := Splice(a, keep, b, src)
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
		got, err = Splice(a, keep, b, src)
		if err != nil {
			t.Fatal(err)
		}
		sameZones(t, "with repeated rows", got, want)
	}
	if _, err := Splice(deltaFixture(t, "c", 5, 1), 9, deltaFixture(t, "c", 5, 2), nil); err == nil {
		t.Fatal("Splice kept more rows than its first table has")
	}
}
