package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"bdcc/internal/core"
	"bdcc/internal/expr"
	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// scanFormsTable builds a compressed table co-clustered on g (domain
// [0,64)), so g ascends along the stored rows and is run-length encoded.
func scanFormsTable(t *testing.T, n int) *core.BDCCTable {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	g := make([]int64, n)
	key := make([]int64, n)
	id := make([]int64, n)
	pay := make([]float64, n)
	str := make([]string, n)
	for i := range g {
		g[i] = rng.Int63n(64)
		key[i] = rng.Int63n(512)
		id[i] = int64(i)
		pay[i] = float64(i) * 0.25
		str[i] = fmt.Sprintf("s%02d", i%37)
	}
	var obs []core.WeightedKey
	for v := int64(0); v < 64; v++ {
		obs = append(obs, core.WeightedKey{Val: core.IntKey(v), Weight: 1})
	}
	dim, err := core.CreateDimension("d_g", "f", []string{"g"}, obs, 6)
	if err != nil {
		t.Fatal(err)
	}
	tab := storage.MustNewTable("f", 4096,
		storage.NewInt64Column("g", g),
		storage.NewInt64Column("key", key),
		storage.NewInt64Column("id", id),
		storage.NewFloat64Column("pay", pay),
		storage.NewStringColumn("str", str))
	tab.Compress()
	bins := make([]uint64, n)
	for i, v := range g {
		bins[i] = dim.BinOf(core.IntKey(v))
	}
	bt, err := core.BuildBDCCTable("f", tab, []core.UseBinding{{Dim: dim, BinNos: bins}},
		core.BuildOptions{DisableRelocation: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bt.Data.Compressed() {
		t.Fatal("clustered table lost its compression")
	}
	return bt
}

// scanRow is one output row of the scan-forms test; the columns are g, key,
// id, pay, str in that order.
type scanRow struct {
	g, key, id int64
	pay        float64
	str        string
}

// formBatch is what a form emitted in one batch.
type formBatch struct {
	rows    []scanRow
	grouped bool
	gid     uint64
}

func (b formBatch) String() string {
	return fmt.Sprintf("grouped=%v gid=%d rows=%v", b.grouped, b.gid, b.rows)
}

// scanForm collects the batches one scan form emits: their contents at emit
// time and, for forms that hand over fresh batches, the batches themselves.
type scanForm struct {
	t       *testing.T
	name    string
	batches []formBatch
	owned   []*vector.Batch
}

func (f *scanForm) add(b *vector.Batch, fresh bool) {
	if b.Len() == 0 || b.Len() > vector.BatchSize {
		f.t.Fatalf("%s: emitted a %d-row batch (1..%d allowed)", f.name, b.Len(), vector.BatchSize)
	}
	fb := formBatch{grouped: b.Grouped, gid: b.GroupID}
	for r := 0; r < b.Len(); r++ {
		fb.rows = append(fb.rows, scanRow{b.Cols[0].I64[r], b.Cols[1].I64[r], b.Cols[2].I64[r], b.Cols[3].F64[r], b.Cols[4].Str[r]})
	}
	f.batches = append(f.batches, fb)
	if fresh {
		f.owned = append(f.owned, b)
	}
}

// requireUnshared fails if two of the form's batches share a column array.
func (f *scanForm) requireUnshared() {
	seen := map[any]int{}
	for i, b := range f.owned {
		for _, c := range b.Cols {
			var p any
			switch c.Kind {
			case vector.Int64:
				p = &c.I64[0]
			case vector.Float64:
				p = &c.F64[0]
			case vector.String:
				p = &c.Str[0]
			}
			if j, dup := seen[p]; dup {
				f.t.Fatalf("%s: batches %d and %d share memory", f.name, j, i)
			}
			seen[p] = i
		}
	}
}

// requireSame fails unless the form emitted want's batches.
func (f *scanForm) requireSame(want *scanForm) {
	if len(f.batches) != len(want.batches) {
		f.t.Fatalf("%s: %d batches, %s emitted %d", f.name, len(f.batches), want.name, len(want.batches))
	}
	for i := range f.batches {
		if got, w := f.batches[i].String(), want.batches[i].String(); got != w {
			f.t.Fatalf("%s: batch %d is\n%.300s\n%s emitted\n%.300s", f.name, i, got, want.name, w)
		}
	}
}

// runScanForm drains a Scan on a context with the given workers, checking
// that it leaves nothing accounted after Close.
func runScanForm(t *testing.T, name string, workers int, mk func(ctx *Context) *Scan) (*scanForm, *Scan, *Context) {
	t.Helper()
	ctx := parCtx(workers)
	s := mk(ctx)
	if err := s.Open(ctx); err != nil {
		t.Fatal(err)
	}
	f := &scanForm{t: t, name: name}
	for {
		b, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		f.add(b, s.morsels != nil)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if cur := ctx.Mem.Current(); cur != 0 {
		t.Fatalf("%s: %d bytes still accounted after Close", name, cur)
	}
	return f, s, ctx
}

// TestScanFormsAgree holds the forms of the one scan to one output. Over a
// compressed co-clustered table — untagged ranges, and scatter groups that
// share pages — and with no filter, a plain filter and a pushed-down filter,
// the serial Scan, its morsel form at 2 and 4 workers and, for scatter
// groups, Fragment.Run of a FragScan per group (the form a worker and the
// failover re-scan run) must emit the same batches: same rows, same Grouped
// and GroupID, at most BatchSize rows each. The serial form covers exactly
// its ranges, keeps group ids non-decreasing and charges a page shared by
// two groups once; every form leaves nothing accounted; and no batch the
// morsel or fragment forms hand over shares memory with another. The pushed
// predicate is an interval on the dictionary-encoded str column, which
// passes rows scattered through every range: pushdown drops rows inside
// batch windows, and no form may cut its batches differently for it.
func TestScanFormsAgree(t *testing.T) {
	const n = 80000
	bt := scanFormsTable(t, n)
	tab := bt.Data
	cols := []string{"g", "key", "id", "pay", "str"}
	bound, err := bindScan(tab, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	schema, idx := bound.schema, bound.idx
	dict := false
	for _, ch := range tab.Cols[idx[4]].Enc.Chunks {
		dict = dict || ch.Enc == storage.EncDict
	}
	if !dict {
		t.Fatal("str has no dictionary chunk — the pushed case would prune nothing")
	}
	groups, err := bt.ScatterPlan([]int{0}, []int{min(2, core.Ones(bt.Uses[0].Mask))}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) < 2 {
		t.Fatalf("scatter plan has %d groups — vacuous test", len(groups))
	}
	var union storage.RowRanges
	groupPages := int64(0)
	for _, g := range groups {
		union = append(union, g.Ranges...)
		_, pages, _ := tab.ReadStats(idx, g.Ranges)
		groupPages += pages
	}
	_, unionPages, _ := tab.ReadStats(idx, union.Normalize())
	if groupPages <= unionPages {
		t.Fatalf("no page shared by two groups (%d pages per group, %d in the union) — vacuous test", groupPages, unionPages)
	}

	setups := []struct {
		name   string
		ranges storage.RowRanges
		groups []core.ScatterGroup
	}{
		{"ranges", storage.RowRanges{{Start: 100, End: 9000}, {Start: 30000, End: 70000}}, nil},
		{"groups", nil, groups},
	}
	filters := []struct {
		name   string
		mk     func() expr.Expr
		pass   func(r scanRow) bool
		pushed bool
	}{
		{"none", func() expr.Expr { return nil }, func(scanRow) bool { return true }, false},
		{"plain", func() expr.Expr {
			return expr.NewCmp(expr.GT, expr.NewArith(expr.Add, expr.C("key"), expr.C("g")), expr.Int(300))
		}, func(r scanRow) bool { return r.key+r.g > 300 }, false},
		{"pushed", func() expr.Expr { return expr.NewCmp(expr.LE, expr.C("str"), expr.Str("s04")) },
			func(r scanRow) bool { return r.str <= "s04" }, true},
	}
	for _, su := range setups {
		// The reference: the unfiltered serial scan covers its ranges, each
		// row once.
		ref, _, _ := runScanForm(t, "reference", 1, func(*Context) *Scan {
			return &Scan{Table: tab, Cols: cols, Ranges: su.ranges, Groups: su.groups}
		})
		var all []scanRow
		ids := map[int64]bool{}
		for _, b := range ref.batches {
			all = append(all, b.rows...)
			for _, r := range b.rows {
				ids[r.id] = true
			}
		}
		want := tab.Rows()
		if su.ranges != nil {
			want = su.ranges.Rows()
		}
		if len(all) != want || len(ids) != want {
			t.Fatalf("%s: unfiltered scan emitted %d rows, %d distinct, want %d", su.name, len(all), len(ids), want)
		}
		for _, fl := range filters {
			t.Run(su.name+"/"+fl.name, func(t *testing.T) {
				mk := func(ctx *Context) *Scan {
					return &Scan{Table: tab, Cols: cols, Ranges: su.ranges, Groups: su.groups, Filter: fl.mk(), Sched: ctx.Scheduler()}
				}
				serial, s, ctx := runScanForm(t, "serial", 1, mk)
				if got := len(s.bind.push) > 0; got != fl.pushed {
					t.Fatalf("serial scan pushes %d predicates, pushed=%v expected", len(s.bind.push), fl.pushed)
				}
				var scanned storage.RowRanges
				for _, g := range s.groups {
					scanned = append(scanned, g.Ranges...)
				}
				if fl.pushed {
					materialized := 0
					r := storage.NewReaderPush(tab, idx, scanned, nil, s.bind.push)
					for b := vector.NewBatch(schema.Kinds()); r.Next(b); {
						materialized += b.Len()
					}
					if materialized*2 > scanned.Rows() {
						t.Fatalf("pushdown materializes %d of %d rows — it prunes too little to move a batch cut", materialized, scanned.Rows())
					}
				}
				runs, pages, _ := tab.ReadStats(idx, scanned.Normalize())
				if st := ctx.Acct.Stats(); st.Runs != runs || st.Pages != pages {
					t.Fatalf("serial scan charged %d runs / %d pages, its ranges' union is %d / %d", st.Runs, st.Pages, runs, pages)
				}
				var rows, want []scanRow
				for i, b := range serial.batches {
					if b.grouped != (su.groups != nil) || (i > 0 && b.gid < serial.batches[i-1].gid) {
						t.Fatalf("serial batch %d: grouped=%v gid=%d after gid %d", i, b.grouped, b.gid, serial.batches[max(i-1, 0)].gid)
					}
					rows = append(rows, b.rows...)
				}
				for _, r := range all {
					if fl.pass(r) {
						want = append(want, r)
					}
				}
				if fl.mk() != nil && (len(want) == 0 || len(want) == len(all)) {
					t.Fatalf("filter keeps %d of %d rows — vacuous test", len(want), len(all))
				}
				if fmt.Sprint(rows) != fmt.Sprint(want) {
					t.Fatalf("serial scan emitted %d rows, the filter over the unfiltered scan keeps %d", len(rows), len(want))
				}

				for _, workers := range []int{2, 4} {
					par, s, _ := runScanForm(t, fmt.Sprintf("morsel workers=%d", workers), workers, mk)
					if (s.morsels != nil) != (fl.name != "none") {
						t.Fatalf("%s: morsel path %v with filter %s", par.name, s.morsels != nil, fl.name)
					}
					par.requireSame(serial)
					par.requireUnshared()
				}

				if su.groups == nil {
					return // a shipped scan is a scatter scan: its units are groups
				}
				ctx = testCtx()
				frag := &Fragment{Kind: FragScan, Table: tab.Name, Probe: schema, Residual: fl.mk(),
					Src:  func(string) (ScanTable, error) { return ScanTable{Tab: tab}, nil },
					Acct: ctx.Acct}
				if err := frag.Prepare(); err != nil {
					t.Fatal(err)
				}
				// Run lends each batch to emit and refills it, so the form
				// owns none of them.
				shipped := &scanForm{t: t, name: "fragment"}
				for _, g := range su.groups {
					if err := frag.Run(&GroupUnit{GID: g.GroupID, ScanRanges: g.Ranges}, func(b *vector.Batch) { shipped.add(b, false) }); err != nil {
						t.Fatal(err)
					}
				}
				if cur := ctx.Mem.Current(); cur != 0 {
					t.Fatalf("fragment: %d bytes still accounted", cur)
				}
				shipped.requireSame(serial)
			})
		}
	}
}
