package plan

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"bdcc/internal/catalog"
	"bdcc/internal/core"
	"bdcc/internal/engine"
	"bdcc/internal/expr"
	"bdcc/internal/iosim"
	"bdcc/internal/storage"
)

// diamondDDL is a schema whose fact table reaches one dimension over two
// paths that share their first foreign key and then diverge:
// t → r → a → host and t → r → b → host.
const diamondDDL = `
CREATE TABLE host (h_id INT, PRIMARY KEY (h_id));
CREATE TABLE a (a_id INT, a_host INT, PRIMARY KEY (a_id),
    CONSTRAINT fk_a_h FOREIGN KEY (a_host) REFERENCES host);
CREATE TABLE b (b_id INT, b_host INT, PRIMARY KEY (b_id),
    CONSTRAINT fk_b_h FOREIGN KEY (b_host) REFERENCES host);
CREATE TABLE r (r_id INT, r_a INT, r_b INT, r_tag INT, PRIMARY KEY (r_id),
    CONSTRAINT fk_r_a FOREIGN KEY (r_a) REFERENCES a,
    CONSTRAINT fk_r_b FOREIGN KEY (r_b) REFERENCES b);
CREATE TABLE t (t_id INT, t_r INT, t_amount INT, PRIMARY KEY (t_id),
    CONSTRAINT fk_t_r FOREIGN KEY (t_r) REFERENCES r);
`

const diamondHosts = 16

// diamondDB materializes the diamond with nR reference rows and nT fact
// rows. Row i of r reaches host i%16 over a and host (3i+2)%16 over b; its
// tag is i%nTags. Only t is clustered (on both paths), so r's bins come from
// the builder's on-demand resolution rather than from a table binding.
func diamondDB(t testing.TB, nR, nT, nTags int) (*DB, *DB) {
	t.Helper()
	schema := catalog.MustParseDDL(diamondDDL)
	seq := func(n int, f func(i int) int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	id := func(i int) int64 { return int64(i) }
	mk := storage.MustNewTable
	tables := map[string]*storage.Table{
		"host": mk("host", 4096, storage.NewInt64Column("h_id", seq(diamondHosts, id))),
		"a": mk("a", 4096,
			storage.NewInt64Column("a_id", seq(diamondHosts, id)),
			storage.NewInt64Column("a_host", seq(diamondHosts, id))),
		"b": mk("b", 4096,
			storage.NewInt64Column("b_id", seq(diamondHosts, id)),
			storage.NewInt64Column("b_host", seq(diamondHosts, id))),
		"r": mk("r", 4096,
			storage.NewInt64Column("r_id", seq(nR, id)),
			storage.NewInt64Column("r_a", seq(nR, func(i int) int64 { return int64(i % diamondHosts) })),
			storage.NewInt64Column("r_b", seq(nR, func(i int) int64 { return int64((3*i + 2) % diamondHosts) })),
			storage.NewInt64Column("r_tag", seq(nR, func(i int) int64 { return int64(i % nTags) }))),
		"t": mk("t", 4096,
			storage.NewInt64Column("t_id", seq(nT, id)),
			storage.NewInt64Column("t_r", seq(nT, func(i int) int64 { return int64(i * 7 % nR) })),
			storage.NewInt64Column("t_amount", seq(nT, func(i int) int64 { return int64(i % 10) }))),
	}
	design := &core.Design{
		Dimensions: []*core.DimensionSpec{{Name: "d_host", Table: "host", Key: []string{"h_id"}, MaxBits: 13}},
		Tables: []*core.TableDesign{{Table: "t", Uses: []core.UseSpec{
			{Dim: "d_host", Path: []string{"fk_t_r", "fk_r_a", "fk_a_h"}},
			{Dim: "d_host", Path: []string{"fk_t_r", "fk_r_b", "fk_b_h"}},
		}}},
	}
	dev := iosim.PaperSSD()
	// The count table is pinned at full granularity: self-tuned, a fact table
	// this small keeps one bit and no bin set could prune it.
	clustered, err := (&core.Builder{Schema: schema, Tables: tables, Options: core.BuildOptions{Device: dev},
		ForceBitsPerTable: map[string]int{"t": 8}}).Build(design)
	if err != nil {
		t.Fatal(err)
	}
	bdcc := &DB{Scheme: BDCC, Schema: schema, Tables: tables, Clustered: clustered, Device: dev}
	return bdcc, NewPlainDB(schema, tables, dev)
}

// diamondQuery sums the fact rows whose r row carries tag 1.
func diamondQuery() Node {
	j := &Join{
		Left:     &Scan{Table: "t", Cols: []string{"t_r", "t_amount"}},
		Right:    &Scan{Table: "r", Cols: []string{"r_id", "r_tag"}, Filter: expr.Eq(expr.C("r_tag"), expr.Int(1))},
		LeftKeys: []string{"t_r"}, RightKeys: []string{"r_id"}, Type: engine.InnerJoin,
	}
	return &Agg{Child: j, Aggs: []engine.AggSpec{
		{Name: "n", Func: engine.AggCount},
		{Name: "s", Func: engine.AggSum, Arg: expr.C("t_amount")},
	}}
}

// TestDiamondPathsKeepTheirOwnBins is the regression test for the cache-key
// bug of the per-query value→bin maps: they were keyed by dimension and
// first foreign key only, so the second of two uses that leave t over fk_t_r
// pruned with the first one's bins and the scan dropped every matching row.
// The index is keyed by the whole remaining path.
func TestDiamondPathsKeepTheirOwnBins(t *testing.T) {
	bdcc, plain := diamondDB(t, 64, 4096, 8)
	viaA := bdcc.Clustered.KeyBins("d_host", []string{"fk_t_r", "fk_r_a", "fk_a_h"})
	viaB := bdcc.Clustered.KeyBins("d_host", []string{"fk_t_r", "fk_r_b", "fk_b_h"})
	if viaA == nil || viaB == nil || viaA == viaB {
		t.Fatalf("the two paths need an index each, got %p and %p", viaA, viaB)
	}
	// Rows of r tagged 1 are 1, 9, 17, …: hosts {1, 9} over a, {5, 13} over b.
	keys := []int64{1, 9, 17, 25, 33, 41, 49, 57}
	for _, c := range []struct {
		idx  *core.KeyBins
		want []uint64
	}{{viaA, []uint64{1, 9}}, {viaB, []uint64{5, 13}}} {
		got, want := core.NewBinSet(diamondHosts), core.NewBinSet(diamondHosts)
		c.idx.AddBins(got, keys)
		for _, b := range c.want {
			want.Add(b)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("index maps the tagged keys to bins %v, want %v", got, want)
		}
	}
	want, _ := runRows(t, plain, diamondQuery())
	got, p := runRows(t, bdcc, diamondQuery())
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("bdcc returns %v, plain %v; log:\n%s", got, want, strings.Join(p.Log, "\n"))
	}
	for _, path := range []string{"fk_t_r.fk_r_a.fk_a_h", "fk_t_r.fk_r_b.fk_b_h"} {
		line := logLine(p.Log, "restricts t via d_host|"+path)
		if !strings.HasSuffix(line, "(8 keys) restricts t via d_host|"+path+" to 2 bins") {
			t.Errorf("path %s: restriction line %q", path, line)
		}
	}
	if logLine(p.Log, "scan t: bdcc pushdown") == "" {
		t.Errorf("the fact scan was not pruned; log:\n%s", strings.Join(p.Log, "\n"))
	}
}

// planBytes is the heap allocated by one cold Plan of the diamond query,
// pre-executed build side included (the least of a few runs).
func planBytes(t *testing.T, db *DB) uint64 {
	t.Helper()
	best := ^uint64(0)
	for i := 0; i < 5; i++ {
		node := diamondQuery()
		p := NewPlanner(db, engine.NewContext(db.Device))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := p.Plan(node); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if logLine(p.Log, "pre-executed build (8 keys)") == "" {
			t.Fatalf("the build side was not pre-executed; log:\n%s", strings.Join(p.Log, "\n"))
		}
		if d := after.TotalAlloc - before.TotalAlloc; d < best {
			best = d
		}
	}
	return best
}

// TestPlanDoesNotScaleWithReferenceTable keeps the per-query value→bin map
// from coming back: planning a query that propagates eight keys through a
// reference table allocates the same few KB whether that table holds 20 000
// rows or 200 000. The bound covers the whole of Plan, the pre-executed build
// side included — its scan of r streams in batches and returns eight rows —
// so nothing has to be subtracted; with the per-query maps the same two
// plans allocated 0.8 MB and 6.2 MB.
func TestPlanDoesNotScaleWithReferenceTable(t *testing.T) {
	const budget = 256 << 10
	var got [2]uint64
	for i, nR := range []int{20_000, 200_000} {
		bdcc, _ := diamondDB(t, nR, 50_000, nR/8)
		got[i] = planBytes(t, bdcc)
		t.Logf("%d reference rows: Plan allocates %d KB", nR, got[i]>>10)
		if got[i] > budget {
			t.Errorf("%d reference rows: Plan allocates %d B, budget %d B", nR, got[i], budget)
		}
	}
	if got[1] > got[0]+got[0]/4 {
		t.Errorf("Plan allocation grows with the reference table: %d B at 20 000 rows, %d B at 200 000", got[0], got[1])
	}
}
