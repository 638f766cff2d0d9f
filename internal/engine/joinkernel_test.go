package engine

import (
	"fmt"
	"testing"

	"bdcc/internal/expr"
	"bdcc/internal/vector"
)

// batchShape is what a consumer can observe of a batch besides its rows.
type batchShape struct {
	rows int
	gid  uint64
}

// drain opens op, pulls it dry, and returns the rows in order and the shape
// of every returned batch. It closes op and requires the memory tracker to
// be back at zero.
func drain(t *testing.T, ctx *Context, op Operator) ([]string, []batchShape) {
	t.Helper()
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var rows []string
	var shapes []batchShape
	for {
		b, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		rows = append(rows, batchRows(b)...)
		shapes = append(shapes, batchShape{b.Len(), b.GroupID})
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if cur := ctx.Mem.Current(); cur != 0 {
		t.Fatalf("%d bytes still accounted after Close", cur)
	}
	return rows, shapes
}

func batchRows(b *vector.Batch) []string {
	rows := make([]string, b.Len())
	for r := range rows {
		vals := make([]string, len(b.Cols))
		for c, col := range b.Cols {
			vals[c] = col.GetString(r)
		}
		rows[r] = fmt.Sprint(vals)
	}
	return rows
}

// groupedSource replays int64 batches as a group stream: batch i carries
// group identifier gids[i].
func groupedSource(schema expr.Schema, gids []uint64, batches []*vector.Batch) *source {
	for i, b := range batches {
		b.Grouped, b.GroupID = true, gids[i]
	}
	return &source{schema: schema, batches: batches}
}

// kernelStreams builds the probe and build group streams of the kernel
// tests over groups 0..4 (key k lives in group k%5). Probe groups 0..3 span
// two batches each over keys g, g+5, g+10, g+15; build groups hold ten rows
// each of g, g+5, g+10, split over two batches. So every g+15 probe row is
// an outer and anti miss, group 3 is a probe group without build rows
// (skipped below), and group 4 is a build group without probe rows that the
// cursor must discard. Key 21 has 2*BatchSize+300 more build rows and three
// probe rows, so one probe row's match list overflows an output batch with
// or without the residual (rpay > 40, which drops about two build rows in
// five and every build row of key 2). The build side's string column rtag
// spells the same condition ("hi…" where rpay > 40, "lo…" elsewhere), so a
// LIKE/IN residual over it must select exactly the rows the comparison does.
func kernelStreams() (probe, build func() *source, units func() []*GroupUnit) {
	const hot = 21
	ls := intSchema("lkey", "lid")
	rs := append(intSchema("rkey", "rpay"), expr.ColMeta{Name: "rtag", Kind: vector.String})
	var pg, bg []uint64
	var pb, bb []*vector.Batch
	mkBuild := func(keys, pays []int64) *vector.Batch {
		b := makeBatch(rs, keys, pays)
		for _, pay := range pays {
			tag := fmt.Sprintf("lo%d", pay)
			if pay > 40 {
				tag = fmt.Sprintf("hi%d", pay)
			}
			b.Cols[2].AppendString(tag)
		}
		return b
	}
	for g, lid := int64(0), int64(0); g < 4; g++ {
		for half := 0; half < 2; half++ {
			var keys, ids []int64
			for i := int64(0); i < 40; i++ {
				keys = append(keys, g+5*(i%4))
				ids = append(ids, lid)
				lid++
			}
			if g == hot%5 && half == 0 {
				keys[3], keys[17], keys[18] = hot, hot, hot
			}
			pb, pg = append(pb, makeBatch(ls, keys, ids)), append(pg, uint64(g))
		}
	}
	for g, n := int64(0), int64(0); g < 5; g++ {
		if g == 3 {
			continue
		}
		var keys, pays []int64
		for i := int64(0); i < 30; i++ {
			keys = append(keys, g+5*(i%3))
		}
		if g == hot%5 {
			for i := 0; i < 2*vector.BatchSize+300; i++ {
				keys = append(keys, hot)
			}
		}
		for _, k := range keys {
			pay := n * 7 % 100
			if k == 2 {
				pay = 0
			}
			pays = append(pays, pay)
			n++
		}
		cut := len(keys) / 2
		bb, bg = append(bb, mkBuild(keys[:cut], pays[:cut])), append(bg, uint64(g))
		bb, bg = append(bb, mkBuild(keys[cut:], pays[cut:])), append(bg, uint64(g))
	}
	probe = func() *source { return groupedSource(ls, pg, pb) }
	build = func() *source { return groupedSource(rs, bg, bb) }
	units = func() []*GroupUnit {
		var us []*GroupUnit
		for g := uint64(0); g < 4; g++ {
			u := &GroupUnit{GID: g}
			for i, b := range pb {
				if pg[i] == g {
					u.Probe = append(u.Probe, b)
				}
			}
			for i, b := range bb {
				if bg[i] == g {
					u.Build = append(u.Build, b)
				}
			}
			us = append(us, u)
		}
		return us
	}
	return probe, build, units
}

// TestJoinKernelContract pins what every caller of the join kernel must
// agree on: HashJoin, the streaming sandwich and a direct Fragment.Run over
// hand-built units return the same rows in the same order for every join
// type, without a residual, with a comparison and with a LIKE/IN residual
// (the window evaluation path — one Select over a window's gathered
// candidate pairs — of every node kind a residual carries), including a
// probe row whose match list overflows one output batch; the two residuals
// select the same rows; and the streaming sandwich and Fragment.Run cut
// their output into the same
// (rows, group) batch sequence — the property the failover layer's
// delivered-prefix replay relies on when it re-runs a half-delivered unit.
func TestJoinKernelContract(t *testing.T) {
	probe, build, units := kernelStreams()
	for _, typ := range []JoinType{InnerJoin, LeftOuterJoin, SemiJoin, AntiJoin} {
		var cmpRows []string // what the comparison residual returned for this join type
		for _, residual := range []string{"false", "true", "like-in"} {
			t.Run(fmt.Sprintf("type=%d/residual=%s", typ, residual), func(t *testing.T) {
				mkRes := func() expr.Expr {
					switch residual {
					case "true":
						return expr.NewCmp(expr.GT, expr.C("rpay"), expr.Int(40))
					case "like-in":
						return expr.NewAnd(expr.NewLike(expr.C("rtag"), "hi_%"),
							&expr.InList{Arg: expr.C("rpay"), Values: []*expr.Const{expr.Int(0), expr.Int(7), expr.Int(40)}, Negate: true})
					}
					return nil
				}
				want, wantShapes := drain(t, testCtx(), &SandwichHashJoin{Left: probe(), Right: build(),
					LeftKeys: []string{"lkey"}, RightKeys: []string{"rkey"},
					Type: typ, Residual: mkRes()})
				switch residual {
				case "true":
					cmpRows = want
				case "like-in":
					if fmt.Sprint(want) != fmt.Sprint(cmpRows) {
						t.Fatalf("LIKE/IN residual returned %d rows that differ from the comparison residual's %d", len(want), len(cmpRows))
					}
				}
				if (typ == InnerJoin || typ == LeftOuterJoin) && len(want) < 3*vector.BatchSize {
					t.Fatalf("only %d rows — no match list overflows a batch", len(want))
				}
				check := func(label string, got []string) {
					t.Helper()
					if len(got) != len(want) {
						t.Fatalf("%s: %d rows, streaming sandwich has %d", label, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s: row %d = %s, streaming sandwich has %s", label, i, got[i], want[i])
						}
					}
				}
				got, _ := drain(t, testCtx(), &HashJoin{Left: probe(), Right: build(),
					LeftKeys: []string{"lkey"}, RightKeys: []string{"rkey"},
					Type: typ, Residual: mkRes()})
				check("hash join", got)

				frag := &Fragment{Probe: probe().schema, Build: build().schema,
					ProbeKeys: []string{"lkey"}, BuildKeys: []string{"rkey"},
					Type: typ, Residual: mkRes()}
				if err := frag.Prepare(); err != nil {
					t.Fatal(err)
				}
				var fragRows []string
				var fragShapes []batchShape
				for _, u := range units() {
					if err := frag.Run(u, func(b *vector.Batch) {
						fragRows = append(fragRows, batchRows(b)...)
						fragShapes = append(fragShapes, batchShape{b.Len(), b.GroupID})
					}); err != nil {
						t.Fatal(err)
					}
				}
				check("Fragment.Run", fragRows)
				if fmt.Sprint(fragShapes) != fmt.Sprint(wantShapes) {
					t.Fatalf("Fragment.Run batch sequence %v, streaming sandwich has %v", fragShapes, wantShapes)
				}
			})
		}
	}
}

// TestOperatorsRespectBatchSize asserts the invariant downstream operators
// size their scratch by: no operator returns a batch longer than BatchSize.
// The joins probe six full batches against a build side that matches three
// of every four keys, so an output batch that is only checked between probe
// batches (or not at all, as serial semi/anti/outer-miss once were) overruns;
// the stream aggregation closes 1024/3 groups per input batch, so a check
// made only between input batches overruns on the fourth. The joins run at 1
// and 2 workers: they take one path at every worker count.
func TestOperatorsRespectBatchSize(t *testing.T) {
	ls, rs := intSchema("lkey", "lid"), intSchema("rkey", "rpay")
	const nBatches = 6
	mkProbe := func() *source {
		var gids []uint64
		var batches []*vector.Batch
		for b := 0; b < nBatches; b++ {
			keys := make([]int64, vector.BatchSize)
			ids := make([]int64, vector.BatchSize)
			for i := range keys {
				keys[i] = int64(i % 4)
				ids[i] = int64(b*vector.BatchSize + i)
			}
			gids = append(gids, uint64(b/2))
			batches = append(batches, makeBatch(ls, keys, ids))
		}
		return groupedSource(ls, gids, batches)
	}
	mkBuild := func() *source {
		var gids []uint64
		var batches []*vector.Batch
		for g := 0; g < nBatches/2; g++ {
			gids = append(gids, uint64(g))
			batches = append(batches, makeBatch(rs, []int64{0, 1, 2}, []int64{10, 11, 12}))
		}
		return groupedSource(rs, gids, batches)
	}
	requireBounded := func(t *testing.T, ctx *Context, op Operator) {
		t.Helper()
		rows, shapes := drain(t, ctx, op)
		if len(rows) <= vector.BatchSize {
			t.Fatalf("only %d rows — vacuous", len(rows))
		}
		for i, s := range shapes {
			if s.rows > vector.BatchSize {
				t.Fatalf("batch %d has %d rows, BatchSize is %d", i, s.rows, vector.BatchSize)
			}
		}
	}
	for _, typ := range []JoinType{InnerJoin, LeftOuterJoin, SemiJoin, AntiJoin} {
		for _, workers := range []int{1, 2} {
			typ, workers := typ, workers
			t.Run(fmt.Sprintf("hashjoin/type=%d/workers=%d", typ, workers), func(t *testing.T) {
				ctx := parCtx(workers)
				requireBounded(t, ctx, &HashJoin{Left: mkProbe(), Right: mkBuild(),
					LeftKeys: []string{"lkey"}, RightKeys: []string{"rkey"}, Type: typ})
			})
			t.Run(fmt.Sprintf("sandwich/type=%d/workers=%d", typ, workers), func(t *testing.T) {
				ctx := parCtx(workers)
				requireBounded(t, ctx, &SandwichHashJoin{Left: mkProbe(), Right: mkBuild(),
					LeftKeys: []string{"lkey"}, RightKeys: []string{"rkey"}, Type: typ})
			})
		}
	}
	t.Run("streamaggregate", func(t *testing.T) {
		src := mkProbe()
		for _, b := range src.batches {
			for i := range b.Cols[0].I64 {
				b.Cols[0].I64[i] = b.Cols[1].I64[i] / 3 // sorted keys, 3-row groups
			}
		}
		mk := func() Operator {
			src.pos = 0
			return &StreamAggregate{Child: src, GroupBy: []string{"lkey"},
				Aggs: []AggSpec{{Name: "n", Func: AggCount}}}
		}
		requireBounded(t, testCtx(), mk())
		// Cutting output mid-input-batch must neither lose nor split a group.
		rows, _ := drain(t, testCtx(), mk())
		for k, row := range rows {
			if want := fmt.Sprint([]int64{int64(k), 3}); row != want {
				t.Fatalf("group %d = %s, want %s", k, row, want)
			}
		}
		if len(rows) != nBatches*vector.BatchSize/3 {
			t.Fatalf("%d groups, want %d", len(rows), nBatches*vector.BatchSize/3)
		}
	})
}
