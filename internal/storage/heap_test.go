package storage

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bdcc/internal/vector"
)

// strTable returns a one-column string table over vals.
func strTable(t *testing.T, vals []string) *Table {
	t.Helper()
	tab, err := NewTable("s", 64, NewStringColumn("s", vals))
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// sameHeap fails unless the column heap h holds want and is laid out as a
// column's: offsets from 0, ascending, ending at the heap's length.
func sameHeap(t *testing.T, label string, h vector.Heap, want []string) {
	t.Helper()
	if got := strs(h); !slices.Equal(got, want) {
		t.Fatalf("%s: %q, want %q", label, got, want)
	}
	if h.Offs[0] != 0 || int(h.Offs[len(h.Offs)-1]) != len(h.Bytes) || !slices.IsSorted(h.Offs) {
		t.Fatalf("%s: offsets %v over %d heap bytes", label, h.Offs, len(h.Bytes))
	}
}

// TestHeapRearrangementsMatchStrings holds permute, gather (Splice, Extract)
// and extend (Concat, in place and copying) on heaps to the same operations
// on []string.
func TestHeapRearrangementsMatchStrings(t *testing.T) {
	cases := []struct {
		name string
		a, b []string
	}{
		{"empty strings", []string{"a", "", "bc", "", "", "def"}, []string{"", "g", ""}},
		{"all empty", []string{"", "", "", ""}, []string{"", ""}},
		{"one row", []string{"x"}, []string{"yz"}},
		{"no batch values", []string{"p", "qq", "rrr"}, []string{""}},
		{"mixed", strings.Fields("the quick brown fox jumps over the lazy dog again"), strings.Fields("and once more")},
	}
	for _, tc := range cases {
		a, b := strTable(t, tc.a), strTable(t, tc.b)
		n, m := len(tc.a), len(tc.b)
		both := append(slices.Clone(tc.a), tc.b...)
		pick := func(src []int32) []string {
			out := make([]string, len(src))
			for i, s := range src {
				out[i] = both[s]
			}
			return out
		}

		// Both sides' rows, so that even one row of a has a row to swap
		// with: a permutation that moves no row returns its table.
		perm := make([]int32, n+m)
		for i := range perm {
			perm[i] = int32((i*7 + 3) % (n + m))
		}
		if (n+m)%7 == 0 {
			slices.Reverse(perm)
		}
		if slices.IsSorted(perm) {
			t.Fatalf("%s: fixture: the permutation moves no row", tc.name)
		}
		p, err := strTable(t, both).Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		sameHeap(t, tc.name+": permute", p.Cols[0].raw().ValS, pick(perm))

		// Runs from both sides, the parent's last row and the batch's last
		// row each ending a run at their heap's end, a repeated row.
		src := []int32{int32(n - 1), int32(n), 0}
		for i := range m {
			src = append(src, int32(n+i))
		}
		src = append(src, int32(n-1), int32(n-1))
		if n > 1 {
			src = append(src, 0, 1)
		}
		s, err := Splice(a, n, b, spliceRuns(src, n))
		if err != nil {
			t.Fatal(err)
		}
		if got := readAll(s, 0).Str; !slices.Equal(got, pick(src)) {
			t.Fatalf("%s: splice reads %q, want %q", tc.name, got, pick(src))
		}
		sameHeap(t, tc.name+": splice, materialized", s.Materialized().Cols[0].raw().ValS, pick(src))

		ranges := RowRanges{{n / 2, n}, {0, n}, {n - 1, n}, {0, 0}}
		var want []string
		for _, r := range ranges {
			want = append(want, tc.a[r.Start:r.End]...)
		}
		x, err := a.Extract(ranges)
		if err != nil {
			t.Fatal(err)
		}
		sameHeap(t, tc.name+": extract", x.Cols[0].raw().ValS, want)

		for _, keep := range []int{n, n - 1, 0} {
			c, err := Concat(a, keep, b) // a loaded table: copies
			if err != nil {
				t.Fatal(err)
			}
			want := append(slices.Clone(tc.a[:keep]), tc.b...)
			sameHeap(t, fmt.Sprintf("%s: copying concat of %d rows", tc.name, keep), c.Cols[0].raw().ValS, want)
			in, err := Concat(c, c.Rows(), b) // c's first Concat: in place where it fits
			if err != nil {
				t.Fatal(err)
			}
			sameHeap(t, fmt.Sprintf("%s: concat onto a concat of %d rows", tc.name, keep), in.Cols[0].raw().ValS, append(want, tc.b...))
			sameHeap(t, fmt.Sprintf("%s: the concat it extended", tc.name), c.Cols[0].raw().ValS, want)
		}
	}
}

// views reads column col of tab and returns each value as the reader hands
// it out — a view of the column's heap, dictionary or runs — with a copy.
func views(tab *Table, col int) (got, want []string) {
	r := NewReader(tab, []int{col}, nil, nil)
	b := vector.NewBatch(r.Kinds())
	for r.Next(b) {
		for _, s := range b.Cols[0].Str {
			got, want = append(got, s), append(want, strings.Clone(s))
		}
	}
	return got, want
}

// TestStringViewsSurviveGrowth: views handed out of a table keep their
// values while the table is extended by two Concats, spliced, extracted from
// and compressed — nothing writes a heap's bytes below its length.
func TestStringViewsSurviveGrowth(t *testing.T) {
	const note = 2
	base, err := deltaFixture(t, "v", 700, 3).Extract(RowRanges{{0, 700}})
	if err != nil {
		t.Fatal(err)
	}
	parent, err := Concat(base, base.Rows(), deltaFixture(t, "v", 50, 4))
	if err != nil {
		t.Fatal(err)
	}
	var held [][2][]string
	hold := func(tab *Table) {
		got, want := views(tab, note)
		held = append(held, [2][]string{got, want})
	}
	check := func(step string) {
		t.Helper()
		for k, h := range held {
			if !slices.Equal(h[0], h[1]) {
				t.Fatalf("after %s: views of read %d changed", step, k)
			}
		}
	}
	hold(parent)

	first, err := Concat(parent, parent.Rows(), deltaFixture(t, "v", 300, 5))
	if err != nil {
		t.Fatal(err)
	}
	check("a Concat")
	hold(first)

	copied, err := Concat(parent, parent.Rows(), deltaFixture(t, "v", 300, 6))
	if err != nil {
		t.Fatal(err)
	}
	if &copied.Cols[note].raw().ValS.Bytes[0] == &parent.Cols[note].raw().ValS.Bytes[0] {
		t.Fatal("a second Concat from the same table wrote into its heap")
	}
	check("a second Concat")
	hold(copied)

	src := []int32{int32(parent.Rows()), 3, 4, 5, int32(parent.Rows() - 1)}
	if _, err := Splice(parent, parent.Rows(), deltaFixture(t, "v", 20, 7), spliceRuns(src, parent.Rows())); err != nil {
		t.Fatal(err)
	}
	check("a Splice")
	if _, err := parent.Extract(RowRanges{{100, 200}, {0, 50}}); err != nil {
		t.Fatal(err)
	}
	check("an Extract")

	parent.Compress()
	check("a Compress")
	hold(parent) // views of dictionary entries, run values and the heap
	if _, err := parent.AppendRows(RowRanges{{10, 20}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Concat(parent, parent.Rows(), deltaFixture(t, "v", 30, 8)); err != nil {
		t.Fatal(err)
	}
	check("an AppendRows and a Concat of the compressed table")
}

// TestDerivedTablesDropTheParentHeap: a table built from a compressed one —
// by AppendRows or Extract (which keep its whole chunks), a Splice's
// materialized rows, a copying Concat or a Permute — holds no view of its
// string heaps (a Splice's view itself reads them, by design): their
// chunks' run values and bounds, their dictionaries and their zone bounds
// all point into the new table's own, so the parent's are collected once it
// is dropped.
func TestDerivedTablesDropTheParentHeap(t *testing.T) {
	const n = 3000
	raw, runs, dict := make([]string, n), make([]string, n), make([]string, n)
	for i := range n {
		raw[i] = fmt.Sprintf("r%06d-%s", (i*7919)%n, strings.Repeat("x", i%9))
		runs[i] = fmt.Sprintf("run%06d", i/40)
		dict[i] = fmt.Sprintf("d%02d", (i*31)%19)
	}
	table := func(raw, runs, dict []string) *Table {
		tab, err := NewTable("p", 1<<10, NewStringColumn("raw", raw), NewStringColumn("runs", runs), NewStringColumn("dict", dict))
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	batch := func() *Table { return table([]string{"b", ""}, []string{"", "a"}, []string{"d01", "d02"}) }
	parent := func() *Table {
		tab := table(raw, runs, dict)
		tab.Compress()
		for i, enc := range []Encoding{EncRaw, EncRLE, EncDict} {
			if tab.Cols[i].Enc.Counts[enc] == 0 {
				t.Fatalf("fixture: column %s has no %v chunk", tab.Cols[i].Name, enc)
			}
		}
		return tab
	}
	reversed := make([]int32, n)
	for i := range reversed {
		reversed[i] = int32(n - 1 - i)
	}
	for _, d := range []struct {
		name   string
		derive func(p *Table) (*Table, error)
	}{
		{"AppendRows", func(p *Table) (*Table, error) { return p.AppendRows(RowRanges{{5, 40}, {n - 3, n}}) }},
		{"Extract", func(p *Table) (*Table, error) { return p.Extract(RowRanges{{0, n - 100}, {10, 20}}) }},
		{"Splice, materialized", func(p *Table) (*Table, error) {
			s, err := Splice(p, n, batch(), spliceRuns([]int32{n, 0, 1, 2, n + 1, 7, n - 1}, n))
			if err != nil {
				return nil, err
			}
			return s.Materialized(), nil
		}},
		{"Concat", func(p *Table) (*Table, error) { return Concat(p, n-10, batch()) }},
		{"Permute", func(p *Table) (*Table, error) { return p.Permute(reversed) }},
	} {
		var freed atomic.Int32
		child := func() *Table {
			p := parent()
			for _, c := range p.Cols {
				runtime.AddCleanup(heldBytes(c), func(int) { freed.Add(1) }, 0)
			}
			child, err := d.derive(p)
			if err != nil {
				t.Fatal(err)
			}
			return child
		}()
		for i := 0; i < 200 && freed.Load() < 3; i++ {
			runtime.GC()
			time.Sleep(5 * time.Millisecond)
		}
		if got := freed.Load(); got < 3 {
			t.Errorf("%s: %d of the parent's 3 string heaps were collected", d.name, got)
		}
		runtime.KeepAlive(child)
	}
}
