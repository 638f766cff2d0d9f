package engine

import (
	"slices"
	"testing"

	"bdcc/internal/vector"
)

// closeCounter counts its child's Close calls.
type closeCounter struct {
	Operator
	closed int
}

func (c *closeCounter) Close() error { c.closed++; return c.Operator.Close() }

// TestValuesReplaysGroupRuns collects a group stream whose runs hold 0, 1,
// 1023, 1024, 1025 and 3000 rows, cut into batches of 700, and replays it
// through Values: every batch is group-pure, holds at most BatchSize rows and
// carries its run's group, and the runs come back in order, row for row. A
// prefix stopped inside a run replays the same way, and the rest, read from
// the operator Collect left open, continues the run the cut fell in;
// closing the Values closes that operator once.
func TestValuesReplaysGroupRuns(t *testing.T) {
	schema := intSchema("g", "r")
	var want []GroupRun
	stream := func() *closeCounter {
		var gids []uint64
		var batches []*vector.Batch
		want = nil
		row := 0
		for g, n := range []int{0, 1, 1023, 1024, 1025, 3000} {
			gid := uint64(10*g + 1)
			for lo := 0; lo < max(n, 1); lo += 700 {
				var gs, rs []int64
				for i := lo; i < min(lo+700, n); i++ {
					gs, rs = append(gs, int64(g)), append(rs, int64(row))
					row++
				}
				gids, batches = append(gids, gid), append(batches, makeBatch(schema, gs, rs))
			}
			if n > 0 {
				want = append(want, GroupRun{GID: gid, End: row})
			}
		}
		return &closeCounter{Operator: groupedSource(schema, gids, batches)}
	}
	replay := func(label string, v *Values) {
		t.Helper()
		if err := v.Open(testCtx()); err != nil {
			t.Fatal(err)
		}
		var got []GroupRun
		next := int64(0)
		for {
			b, err := v.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			if !b.Grouped || b.Len() == 0 || b.Len() > vector.BatchSize {
				t.Fatalf("%s: a batch of %d rows, grouped %v", label, b.Len(), b.Grouped)
			}
			for i, r := range b.Cols[1].I64 {
				if r != next || uint64(10*b.Cols[0].I64[i]+1) != b.GroupID {
					t.Fatalf("%s: row %d of group %d in a batch of group %d, want row %d", label, r, b.Cols[0].I64[i], b.GroupID, next)
				}
				next++
			}
			if k := len(got) - 1; k >= 0 && got[k].GID == b.GroupID {
				got[k].End = int(next)
			} else {
				got = append(got, GroupRun{GID: b.GroupID, End: int(next)})
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: replayed runs %v, want %v", label, got, want)
		}
	}

	src := stream()
	all, err := Collect(testCtx(), src, -1)
	if err != nil {
		t.Fatal(err)
	}
	res := all.Rows
	if !slices.Equal(res.Runs, want) || src.closed != 1 {
		t.Fatalf("collected runs %v, closed %d times; want %v, once", res.Runs, src.closed, want)
	}
	replay("whole", &Values{Rows: res})

	for _, cut := range []int{1, 1024, 1500, 3072, 6000} {
		src := stream()
		v, err := Collect(testCtx(), src, cut)
		if err != nil {
			t.Fatal(err)
		}
		if n := v.Rows.Rows(); n <= cut || n > cut+700 || v.Rest == nil || src.closed != 0 {
			t.Fatalf("prefix of %d rows holds %d, rest %v, closed %d times", cut, n, v.Rest != nil, src.closed)
		}
		replay("prefix", v)
		if err := v.Close(); err != nil || src.closed != 1 {
			t.Fatalf("closing the prefix of %d rows: %v, source closed %d times", cut, err, src.closed)
		}
	}
}
