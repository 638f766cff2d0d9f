package expr

import (
	"fmt"
	"testing"
	"testing/quick"

	"bdcc/internal/vector"
)

func evalBatch(t *testing.T, e Expr, schema Schema, b *vector.Batch) *vector.Vector {
	t.Helper()
	if err := Bind(e, schema); err != nil {
		t.Fatalf("Bind(%s): %v", e, err)
	}
	out := NewScratch(e.Kind())
	e.Eval(b, out)
	if out.Len() != b.Len() {
		t.Fatalf("%s produced %d values for %d rows", e, out.Len(), b.Len())
	}
	return out
}

func intBatch(vals ...int64) (*vector.Batch, Schema) {
	schema := Schema{{Name: "x", Kind: vector.Int64}}
	b := vector.NewBatch(schema.Kinds())
	b.Cols[0].I64 = vals
	return b, schema
}

func TestComparisonsAndBooleans(t *testing.T) {
	b, schema := intBatch(1, 5, 10)
	cases := []struct {
		e    Expr
		want []int64
	}{
		{NewCmp(LT, C("x"), Int(5)), []int64{1, 0, 0}},
		{NewCmp(LE, C("x"), Int(5)), []int64{1, 1, 0}},
		{NewCmp(EQ, C("x"), Int(5)), []int64{0, 1, 0}},
		{NewCmp(NE, C("x"), Int(5)), []int64{1, 0, 1}},
		{NewCmp(GE, C("x"), Int(5)), []int64{0, 1, 1}},
		{NewCmp(GT, Int(5), C("x")), []int64{1, 0, 0}},
		{NewAnd(NewCmp(GT, C("x"), Int(1)), NewCmp(LT, C("x"), Int(10))), []int64{0, 1, 0}},
		{NewOr(NewCmp(LT, C("x"), Int(2)), NewCmp(GT, C("x"), Int(9))), []int64{1, 0, 1}},
		{NewNot(NewCmp(EQ, C("x"), Int(5))), []int64{1, 0, 1}},
		{Between(C("x"), Int(5), Int(10)), []int64{0, 1, 1}},
		{NewIn(C("x"), Int(1), Int(10)), []int64{1, 0, 1}},
		{&InList{Arg: C("x"), Values: []*Const{Int(1), Int(10)}, Negate: true}, []int64{0, 1, 0}},
	}
	for _, c := range cases {
		got := evalBatch(t, c.e, schema, b)
		if fmt.Sprint(got.I64) != fmt.Sprint(c.want) {
			t.Errorf("%s = %v, want %v", c.e, got.I64, c.want)
		}
	}
}

func TestArithPromotion(t *testing.T) {
	b, schema := intBatch(4)
	e := NewArith(Add, C("x"), Int(2))
	got := evalBatch(t, e, schema, b)
	if e.Kind() != vector.Int64 || got.I64[0] != 6 {
		t.Errorf("int add = %v (%s)", got.I64, e.Kind())
	}
	f := NewArith(Mul, C("x"), Float(0.5))
	gotF := evalBatch(t, f, schema, b)
	if f.Kind() != vector.Float64 || gotF.F64[0] != 2 {
		t.Errorf("mixed mul = %v (%s)", gotF.F64, f.Kind())
	}
}

func TestCaseYearSubstr(t *testing.T) {
	schema := Schema{{Name: "d", Kind: vector.Int64}, {Name: "s", Kind: vector.String}}
	b := vector.NewBatch(schema.Kinds())
	b.Cols[0].I64 = []int64{vector.ParseDate("1995-03-15"), vector.ParseDate("1998-12-31")}
	b.Cols[1].Str = []string{"13-foo", "31-bar"}
	y := evalBatch(t, NewYear(C("d")), schema, b)
	if y.I64[0] != 1995 || y.I64[1] != 1998 {
		t.Errorf("year = %v", y.I64)
	}
	s := evalBatch(t, NewSubstr(C("s"), 1, 2), schema, b)
	if s.Str[0] != "13" || s.Str[1] != "31" {
		t.Errorf("substr = %v", s.Str)
	}
	c := evalBatch(t, NewCase(NewCmp(GT, NewYear(C("d")), Int(1996)), Str("late"), Str("early")), schema, b)
	if c.Str[0] != "early" || c.Str[1] != "late" {
		t.Errorf("case = %v", c.Str)
	}
}

func TestLikeSemantics(t *testing.T) {
	cases := []struct {
		s, pattern string
		want       bool
	}{
		{"hello", "hello", true},
		{"hello", "hell", false},
		{"hello", "hell%", true},
		{"hello", "%llo", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "", true},
		{"x", "", false},
		{"special packs requests now", "%special%requests%", true},
		{"requests special", "%special%requests%", false},
		{"MEDIUM POLISHED TIN", "MEDIUM POLISHED%", true},
		{"PROMO ANODIZED TIN", "PROMO%", true},
		{"abcabc", "%abc", true},
		{"ab", "%abc", false},
		{"banana", "b%na", true},
		{"banana", "b%nax", false},
		{"aXbYc", "a%b%c", true},
	}
	schema := Schema{{Name: "s", Kind: vector.String}}
	for _, c := range cases {
		b := vector.NewBatch(schema.Kinds())
		b.Cols[0].Str = []string{c.s}
		got := evalBatch(t, NewLike(C("s"), c.pattern), schema, b)
		if (got.I64[0] == 1) != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.s, c.pattern, got.I64[0] == 1, c.want)
		}
		neg := evalBatch(t, NewNotLike(C("s"), c.pattern), schema, b)
		if (neg.I64[0] == 1) == c.want {
			t.Errorf("%q NOT LIKE %q inconsistent", c.s, c.pattern)
		}
	}
}

// TestLikeNeverPanics fuzzes pattern/input combinations.
func TestLikeNeverPanics(t *testing.T) {
	prop := func(s, pattern string) bool {
		segs, as, ae := compileLike(pattern)
		matchLike(s, segs, as, ae)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBindErrors(t *testing.T) {
	schema := Schema{{Name: "x", Kind: vector.Int64}, {Name: "s", Kind: vector.String}}
	cases := []Expr{
		C("nope"),
		NewCmp(EQ, C("x"), Str("a")),
		NewArith(Add, C("s"), Int(1)),
		NewLike(C("x"), "%"),
		NewSubstr(C("x"), 1, 2),
		NewIn(C("x"), Str("a")),
		NewCase(NewCmp(EQ, C("x"), Int(1)), Int(1), Str("a")),
		// Operator bytes a decoded tree can carry but no kernel exists for.
		NewCmp(GE+1, C("x"), Int(1)),
		NewArith(Div+1, C("x"), Int(1)),
	}
	for _, e := range cases {
		if err := Bind(e, schema); err == nil {
			t.Errorf("Bind(%s) should fail", e)
		}
	}
}

func TestConjunctsAndAll(t *testing.T) {
	a := NewCmp(EQ, C("x"), Int(1))
	b := NewCmp(EQ, C("x"), Int(2))
	c := NewCmp(EQ, C("x"), Int(3))
	conjs := Conjuncts(NewAnd(a, NewAnd(b, c)))
	if len(conjs) != 3 {
		t.Fatalf("conjuncts = %d, want 3", len(conjs))
	}
}

func TestImpliedRanges(t *testing.T) {
	e := NewAnd(
		NewCmp(GE, C("d"), Int(100)),
		NewCmp(LT, C("d"), Int(200)),
		NewCmp(EQ, C("s"), Str("BUILDING")),
		NewCmp(GT, Int(50), C("q")), // flipped: q < 50
		NewLike(C("s"), "B%"),       // not analyzable
	)
	rs := ImpliedRanges(e, nil)
	d := rs["d"]
	if d == nil || !d.HasLo || !d.HasHi || d.LoI != 100 || d.HiI != 199 {
		t.Errorf("d range = %+v", d)
	}
	s := rs["s"]
	if s == nil || s.LoS != "BUILDING" || s.HiS != "BUILDING" {
		t.Errorf("s range = %+v", s)
	}
	q := rs["q"]
	if q == nil || q.HasLo || !q.HasHi || q.HiI != 49 {
		t.Errorf("q range = %+v", q)
	}
}

// TestImpliedRangesSound checks that rows satisfying the predicate always
// lie within the implied per-column intervals.
func TestImpliedRangesSound(t *testing.T) {
	prop := func(vals []int16, lo, hi int16) bool {
		e := NewAnd(NewCmp(GE, C("x"), Int(int64(lo))), NewCmp(LE, C("x"), Int(int64(hi))))
		schema := Schema{{Name: "x", Kind: vector.Int64}}
		if err := Bind(e, schema); err != nil {
			return false
		}
		b := vector.NewBatch(schema.Kinds())
		for _, v := range vals {
			b.Cols[0].I64 = append(b.Cols[0].I64, int64(v))
		}
		out := NewScratch(vector.Int64)
		e.Eval(b, out)
		r := ImpliedRanges(e, nil)["x"]
		for i, v := range b.Cols[0].I64 {
			if out.I64[i] == 1 {
				if (r.HasLo && v < r.LoI) || (r.HasHi && v > r.HiI) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
