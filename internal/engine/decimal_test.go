package engine

import (
	"math"
	"math/big"
	"strconv"
	"testing"

	"bdcc/internal/expr"
	"bdcc/internal/iosim"
	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// atScale returns decimal text as an int64 at scale s, when the text has at
// most s fraction digits and its scaled value fits.
func atScale(text string, s uint8) (int64, *big.Rat, bool) {
	r, ok := new(big.Rat).SetString(text)
	if !ok {
		return 0, nil, false
	}
	v := new(big.Rat).Mul(r, new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(s)), nil)))
	if !v.IsInt() || !v.Num().IsInt64() {
		return 0, nil, false
	}
	return v.Num().Int64(), r, true
}

// decimals returns a one-column-per-value result of n rows, column i holding
// vals[i] at scale s.
func decimals(s uint8, n int, vals ...int64) *Result {
	res := &Result{}
	for i, v := range vals {
		res.Schema = append(res.Schema, expr.ColMeta{Name: string(rune('a' + i)), Kind: vector.Int64, Scale: s})
		col := vector.NewVector(vector.Int64, n)
		for range n {
			col.AppendInt64(v)
		}
		res.Cols = append(res.Cols, col)
	}
	return res
}

// FuzzDecimal round-trips decimal text through a column of scale s against
// math/big: Bind's scaling of the float literal a query writes for the text
// in the six comparisons, the checked product of two decimal columns and the
// exact SUM, overflow included — a product or a running sum that leaves
// int64 must fail the query, and every other result must be exact.
func FuzzDecimal(f *testing.F) {
	f.Add("12.34", "12.34", uint8(2), uint8(3))
	f.Add("-0.05", "0.05", uint8(2), uint8(7))
	f.Add("24", "23.999", uint8(2), uint8(1))
	f.Add("0.1", "0.1000000000000000001", uint8(1), uint8(4))
	f.Add("92233720368547758.07", "-1", uint8(2), uint8(2))                    // MaxInt64 cents: the running sum leaves int64
	f.Add("30370004.99", "30370004.99", uint8(2), uint8(1))                    // the product's cents² just fit
	f.Add("30370005", "-30370005", uint8(2), uint8(1))                         // and just do not
	f.Add("9223372036854775.807", "0.001", uint8(3), uint8(3))                 // rows whose largest factors overflow, their products not
	f.Add("0.000000000000000001", "9.223372036854775807", uint8(18), uint8(5)) // scale 18
	f.Fuzz(func(t *testing.T, xs, ys string, s, n uint8) {
		s %= vector.MaxScale + 1
		x, xr, okx := atScale(xs, s)
		lit, err := strconv.ParseFloat(ys, 64)
		if _, oky := new(big.Rat).SetString(ys); !okx || err != nil || !oky {
			return
		}
		p := new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(s)), nil))
		if lr := new(big.Rat).SetFloat64(lit); lr != nil && x > -1<<52 && x < 1<<52 &&
			new(big.Rat).Abs(new(big.Rat).Mul(lr, p)).Cmp(new(big.Rat).SetInt64(1<<52)) < 0 {
			// Where decimals at scale s and the floats near them are one to
			// one: the text compares exactly when it has at most s fraction
			// digits, else as the floats of both sides.
			want := 0
			if y, _, ok := atScale(ys, s); ok {
				want = big.NewInt(x).Cmp(big.NewInt(y))
			} else if xf, _ := xr.Float64(); xf < lit {
				want = -1
			} else if xf > lit {
				want = 1
			}
			b := &vector.Batch{Cols: decimals(s, 1, x).Cols}
			for op, hold := range []bool{expr.EQ: want == 0, expr.NE: want != 0, expr.LT: want < 0,
				expr.LE: want <= 0, expr.GT: want > 0, expr.GE: want >= 0} {
				pred := expr.NewCmp(expr.CmpOp(op), expr.C("a"), expr.Float(lit))
				if err := expr.Bind(pred, decimals(s, 0, x).Schema); err != nil {
					t.Fatal(err)
				}
				if got := len(expr.Select(pred, b, nil)) == 1; got != hold {
					t.Fatalf("%s at scale %d %s %v (%s): %v, want %v", xs, s, expr.CmpOp(op), lit, ys, got, hold)
				}
			}
		}
		y, _, ok := atScale(ys, s)
		if !ok {
			return
		}
		rows := 1 + int(n)%16
		if s > 0 && 2*s <= vector.MaxScale { // the decimal product, at scale 2s, of a = x, y, … and b = y, x, …
			prod := new(big.Int).Mul(big.NewInt(x), big.NewInt(y))
			ab := decimals(s, rows, x, y)
			for i := 1; i < rows; i += 2 {
				ab.Cols[0].I64[i], ab.Cols[1].I64[i] = y, x
			}
			v, err := Collect(testCtx(), &Project{Child: &Values{Rows: ab},
				Cols: []ProjCol{{Name: "p", Expr: expr.NewArith(expr.Mul, expr.C("a"), expr.C("b"))}}}, -1)
			switch {
			case !prod.IsInt64() || prod.Int64() == math.MinInt64:
				if err == nil {
					t.Fatalf("%s × %s at scale %d: %v, want an overflow error", xs, ys, s, v.Rows.Cols[0].I64)
				}
			case err != nil:
				t.Fatalf("%s × %s at scale %d: %v", xs, ys, s, err)
			case v.Rows.Schema[0].Scale != 2*s || v.Rows.Cols[0].I64[rows-1] != prod.Int64():
				t.Fatalf("%s × %s at scale %d: %d at scale %d, want %s at %d", xs, ys, s,
					v.Rows.Cols[0].I64[0], v.Rows.Schema[0].Scale, prod, 2*s)
			}
		}
		// SUM over rows alternating x and y, in row order: exact, or an error
		// where a running sum leaves int64.
		vals := decimals(s, rows, 0)
		sum, overflow := new(big.Int), false
		for i := range rows {
			v := []int64{x, y}[i%2]
			vals.Cols[0].I64[i] = v
			sum.Add(sum, big.NewInt(v))
			overflow = overflow || !sum.IsInt64()
		}
		op := &HashAggregate{Child: &Values{Rows: vals}, Aggs: []AggSpec{{Name: "s", Func: AggSum, Arg: expr.C("a")}}}
		res, err := Run(testCtx(), op)
		switch {
		case overflow:
			if err == nil {
				t.Fatalf("SUM of %d rows of %s, %s at scale %d: %v, want an overflow error", rows, xs, ys, s, res.Cols[0])
			}
		case err != nil:
			t.Fatalf("SUM of %d rows of %s, %s at scale %d: %v", rows, xs, ys, s, err)
		case s == 0: // an integer sum stays Int64
			if res.Cols[0].I64[0] != sum.Int64() {
				t.Fatalf("SUM of %d rows of %s, %s: %d, want %s", rows, xs, ys, res.Cols[0].I64[0], sum)
			}
		default: // a decimal renders as the float nearest its value
			want, _ := new(big.Rat).Quo(new(big.Rat).SetInt(sum), p).Float64()
			if got := res.Cols[0].F64[0]; got != want && math.Abs(float64(sum.Int64())) <= 1<<53 {
				t.Fatalf("SUM of %d rows of %s, %s at scale %d renders %v, want %v", rows, xs, ys, s, got, want)
			}
		}
	})
}

// TestDecimalRangesInScale holds the interval a decimal predicate implies to
// the column's stored units: 24 bounds a scale-2 column at 2 400 cents. The
// column is sorted in runs, so its chunks are run-length encoded and zoned by
// page; an interval in the literal's own units would prune the pages and
// runs that match.
func TestDecimalRangesInScale(t *testing.T) {
	const n = 40_000
	qty, disc := make([]int64, n), make([]int64, n)
	for i := range qty {
		qty[i], disc[i] = 100*int64(1+i*50/n), int64(i*11/n) // 1.00 … 50.00, 0.00 … 0.10
	}
	tab := storage.MustNewTable("t", 4<<10, storage.NewDecimalColumn("q", qty, 2), storage.NewDecimalColumn("d", disc, 2))
	tab.Compress()
	for _, tc := range []struct {
		name   string
		pred   expr.Expr
		col    string
		lo, hi int64 // the interval's set bounds, in cents
		keep   func(q, d int64) bool
	}{
		{"q < 24", expr.NewCmp(expr.LT, expr.C("q"), expr.Float(24)), "q", math.MinInt64, 2399,
			func(q, _ int64) bool { return q < 2400 }},
		{"q >= Int(24)", expr.NewCmp(expr.GE, expr.C("q"), expr.Int(24)), "q", 2400, math.MaxInt64,
			func(q, _ int64) bool { return q >= 2400 }},
		{"d between 0.05 and 0.07", expr.Between(expr.C("d"), expr.Float(0.05), expr.Float(0.07)), "d", 5, 7,
			func(_, d int64) bool { return d >= 5 && d <= 7 }},
	} {
		iv, ok := FilterIntervals(tc.pred, tab.Scale)[tc.col]
		if !ok || iv.Lo.Set != (tc.lo != math.MinInt64) || iv.Hi.Set != (tc.hi != math.MaxInt64) ||
			(iv.Lo.Set && iv.Lo.I != tc.lo) || (iv.Hi.Set && iv.Hi.I != tc.hi) {
			t.Fatalf("%s: interval %+v (found %v), want [%d, %d] in cents", tc.name, iv, ok, tc.lo, tc.hi)
		}
		want := 0
		for i := range qty {
			if tc.keep(qty[i], disc[i]) {
				want++
			}
		}
		// The scan prunes by zone and pushes the interval into the reader.
		ranges := tab.PruneZonemap(tc.col, iv, nil)
		res, err := Run(NewContext(iosim.PaperSSD()), &Scan{Table: tab, Cols: []string{"q", "d"}, Filter: tc.pred, Ranges: ranges})
		if err != nil {
			t.Fatal(err)
		}
		if ranges.Rows() >= n || res.Rows() != want {
			t.Fatalf("%s: %d of %d rows survive zones, the scan returns %d rows, want %d", tc.name, ranges.Rows(), n, res.Rows(), want)
		}
	}
}

// TestDecimalOverflowFailsQuery holds every operator that evaluates an
// expression to the overflow contract: a decimal product past int64 in a
// filter, a scan's filter, a join residual or an aggregate argument, and a
// running sum past int64 in either aggregate, fail the query; the same plans
// over values that fit run.
func TestDecimalOverflowFailsQuery(t *testing.T) {
	big, small := int64(4e9), int64(12) // 4e9 cents squared leaves int64
	over := func() expr.Expr { return expr.NewArith(expr.Mul, expr.C("a"), expr.C("b")) }
	gt0 := func() expr.Expr { return expr.NewCmp(expr.GT, over(), expr.Int(0)) }
	tab := func(v int64) *storage.Table {
		a, b := make([]int64, 3000), make([]int64, 3000)
		for i := range a {
			a[i], b[i] = v, v
		}
		return storage.MustNewTable("t", 4<<10, storage.NewDecimalColumn("a", a, 2), storage.NewDecimalColumn("b", b, 2))
	}
	for _, tc := range []struct {
		name string
		op   func(v int64) Operator
	}{
		{"filter", func(v int64) Operator { return &Filter{Child: &Values{Rows: decimals(2, 3000, v, v)}, Pred: gt0()} }},
		{"scan filter", func(v int64) Operator { return &Scan{Table: tab(v), Cols: []string{"a", "b"}, Filter: gt0()} }},
		{"join residual", func(v int64) Operator {
			return &HashJoin{Left: &Values{Rows: decimals(2, 3000, v, v)}, Right: &Values{Rows: decimals(2, 2, v)},
				LeftKeys: []string{"a"}, RightKeys: []string{"a"}, Type: SemiJoin,
				Residual: expr.NewCmp(expr.GT, over(), expr.Int(0))}
		}},
		{"hash aggregate argument", func(v int64) Operator {
			return &HashAggregate{Child: &Values{Rows: decimals(2, 3000, v, v)}, Aggs: []AggSpec{{Name: "m", Func: AggMin, Arg: over()}}}
		}},
		{"stream aggregate argument", func(v int64) Operator {
			return &StreamAggregate{Child: &Values{Rows: decimals(2, 3000, v, v)}, Aggs: []AggSpec{{Name: "m", Func: AggMax, Arg: over()}}}
		}},
		{"hash aggregate sum", func(v int64) Operator {
			return &HashAggregate{Child: &Values{Rows: decimals(2, 3000, v*1e9)}, Aggs: []AggSpec{{Name: "s", Func: AggSum, Arg: expr.C("a")}}}
		}},
		{"stream aggregate sum", func(v int64) Operator {
			return &StreamAggregate{Child: &Values{Rows: decimals(2, 3000, v*1e9)}, Aggs: []AggSpec{{Name: "s", Func: AggSum, Arg: expr.C("a")}}}
		}},
	} {
		if _, err := Run(testCtx(), tc.op(small)); err != nil {
			t.Fatalf("%s over values that fit: %v", tc.name, err)
		}
		if _, err := Run(testCtx(), tc.op(big)); err == nil {
			t.Fatalf("%s: a value past int64 ran without an error", tc.name)
		}
	}
}
