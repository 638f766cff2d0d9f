package expr

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bdcc/internal/vector"
)

// refSchema is the schema the randomized trees are bound against: two columns
// of every kind, a 0/1 column, a never-zero divisor and a date column.
var refSchema = Schema{
	{Name: "i1", Kind: vector.Int64}, {Name: "i2", Kind: vector.Int64},
	{Name: "f1", Kind: vector.Float64}, {Name: "f2", Kind: vector.Float64},
	{Name: "s1", Kind: vector.String}, {Name: "s2", Kind: vector.String},
	{Name: "flag", Kind: vector.Int64}, {Name: "nz", Kind: vector.Int64}, {Name: "day", Kind: vector.Int64},
}

var (
	refFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.05, 0.07, 24, math.NaN(), math.Inf(1), math.Inf(-1), 1e300}
	refInts   = []int64{0, 1, -1, 2, 5, 24, 1 << 40, math.MinInt64, math.MaxInt64}
	refStrs   = []string{"", "a", "ab", "abc", "PROMO BRASS", "green", "x%y", "MAIL", "SHIP", "é"}
	refLikes  = []string{"", "%", "a%", "%c", "%b%", "a_c", "_", "PROMO%", "%green%", "%a%b%", "abc", "__"}
)

func pick[T any](rng *rand.Rand, vals []T) T { return vals[rng.Intn(len(vals))] }

// refBatch returns n random rows over refSchema, drawn from small value sets
// so that comparisons, IN lists and LIKE patterns hit and miss.
func refBatch(rng *rand.Rand, n int) *vector.Batch {
	b := vector.NewBatch(refSchema.Kinds())
	for r := 0; r < n; r++ {
		b.Cols[0].AppendInt64(pick(rng, refInts))
		b.Cols[1].AppendInt64(pick(rng, refInts))
		b.Cols[2].AppendFloat64(pick(rng, refFloats))
		b.Cols[3].AppendFloat64(pick(rng, refFloats))
		b.Cols[4].AppendString(pick(rng, refStrs))
		b.Cols[5].AppendString(pick(rng, refStrs))
		b.Cols[6].AppendInt64(int64(rng.Intn(2)))
		b.Cols[7].AppendInt64(int64(1 + rng.Intn(9)))
		b.Cols[8].AppendInt64(int64(rng.Intn(12000)))
	}
	return b
}

// treeGen builds random expression trees of a wanted kind.
type treeGen struct{ rng *rand.Rand }

func (g treeGen) gen(k vector.Kind, depth int) Expr {
	switch k {
	case vector.Int64:
		return g.genInt(depth)
	case vector.Float64:
		return g.genFloat(depth)
	}
	return g.genStr(depth)
}

func (g treeGen) genBool(depth int) Expr {
	if depth <= 0 {
		return pick(g.rng, []Expr{C("flag"), Int(0), Int(1), NewCmp(CmpOp(g.rng.Intn(6)), C("i1"), C("i2"))})
	}
	args := func() []Expr {
		out := make([]Expr, g.rng.Intn(4))
		for i := range out {
			out[i] = g.genBool(depth - 1)
		}
		return out
	}
	switch g.rng.Intn(9) {
	case 0, 1:
		k := vector.Kind(g.rng.Intn(3))
		return NewCmp(CmpOp(g.rng.Intn(6)), g.gen(k, depth-1), g.gen(k, depth-1))
	case 2:
		return NewAnd(args()...)
	case 3:
		return NewOr(args()...)
	case 4:
		return NewNot(g.genBool(depth - 1))
	case 5:
		k := vector.Kind(g.rng.Intn(3))
		in := &InList{Arg: g.gen(k, depth-1), Negate: g.rng.Intn(2) == 0}
		for i := g.rng.Intn(4); i > 0; i-- {
			in.Values = append(in.Values, g.genConst(k))
		}
		return in
	case 6:
		return &Like{Arg: g.genStr(depth - 1), Pattern: pick(g.rng, refLikes), Negate: g.rng.Intn(2) == 0}
	case 7:
		return NewCase(g.genBool(depth-1), g.genBool(depth-1), g.genBool(depth-1))
	}
	return g.genBool(0)
}

func (g treeGen) genConst(k vector.Kind) *Const {
	switch k {
	case vector.Int64:
		return Int(pick(g.rng, refInts))
	case vector.Float64:
		return Float(pick(g.rng, refFloats))
	}
	return Str(pick(g.rng, refStrs))
}

func (g treeGen) genInt(depth int) Expr {
	if depth <= 0 {
		return pick(g.rng, []Expr{C("i1"), C("i2"), C("nz"), C("day"), g.genConst(vector.Int64)})
	}
	switch g.rng.Intn(6) {
	case 0:
		return NewArith(ArithOp(g.rng.Intn(3)), g.genInt(depth-1), g.genInt(depth-1))
	case 1: // integer division only by operands that are never zero
		return NewArith(Div, g.genInt(depth-1), pick(g.rng, []Expr{C("nz"), Int(3), Int(-7)}))
	case 2:
		return NewYear(pick(g.rng, []Expr{C("day"), Int(9000), NewArith(Add, C("day"), C("nz"))}))
	case 3:
		return NewCase(g.genBool(depth-1), g.genInt(depth-1), g.genInt(depth-1))
	case 4:
		return g.genBool(depth - 1)
	}
	return g.genInt(0)
}

func (g treeGen) genFloat(depth int) Expr {
	if depth <= 0 {
		return pick(g.rng, []Expr{C("f1"), C("f2"), g.genConst(vector.Float64)})
	}
	switch g.rng.Intn(5) {
	case 0:
		return NewArith(ArithOp(g.rng.Intn(4)), g.genFloat(depth-1), g.genFloat(depth-1))
	case 1: // mixed operands promote the integer side
		return NewArith(ArithOp(g.rng.Intn(4)), g.genInt(depth-1), g.genFloat(depth-1))
	case 2:
		return NewArith(ArithOp(g.rng.Intn(4)), g.genFloat(depth-1), g.genInt(depth-1))
	case 3:
		return NewCase(g.genBool(depth-1), g.genFloat(depth-1), g.genFloat(depth-1))
	}
	return g.genFloat(0)
}

func (g treeGen) genStr(depth int) Expr {
	if depth <= 0 {
		return pick(g.rng, []Expr{C("s1"), C("s2"), g.genConst(vector.String)})
	}
	switch g.rng.Intn(3) {
	case 0:
		return NewSubstr(g.genStr(depth-1), g.rng.Intn(5), g.rng.Intn(4))
	case 1:
		return NewCase(g.genBool(depth-1), g.genStr(depth-1), g.genStr(depth-1))
	}
	return g.genStr(0)
}

// refVal is one value of the reference evaluator; only the field of the
// expression's kind is set.
type refVal struct {
	i int64
	f float64
	s string
}

// naiveLike matches pattern p against s one byte at a time, by backtracking.
func naiveLike(s, p string) bool {
	if p == "" {
		return s == ""
	}
	if p[0] == '%' {
		for i := 0; i <= len(s); i++ {
			if naiveLike(s[i:], p[1:]) {
				return true
			}
		}
		return false
	}
	return s != "" && (p[0] == '_' || p[0] == s[0]) && naiveLike(s[1:], p[1:])
}

func refBool(b bool) refVal {
	if b {
		return refVal{i: 1}
	}
	return refVal{}
}

// refEval is the deliberately naive reference: one row at a time, straight
// from the tree's public fields, sharing nothing with the kernels.
func refEval(e Expr, b *vector.Batch, row int) refVal {
	asFloat := func(x Expr) float64 {
		v := refEval(x, b, row)
		if x.Kind() == vector.Int64 {
			return float64(v.i)
		}
		return v.f
	}
	switch n := e.(type) {
	case *Col:
		c := b.Cols[n.Index]
		switch c.Kind {
		case vector.Int64:
			return refVal{i: c.I64[row]}
		case vector.Float64:
			return refVal{f: c.F64[row]}
		}
		return refVal{s: c.Str[row]}
	case *Const:
		return refVal{i: n.I, f: n.F, s: n.S}
	case *Cmp:
		l, r := refEval(n.L, b, row), refEval(n.R, b, row)
		var lt, gt bool
		switch n.L.Kind() {
		case vector.Int64:
			lt, gt = l.i < r.i, l.i > r.i
		case vector.Float64:
			lt, gt = l.f < r.f, l.f > r.f
		case vector.String:
			lt, gt = l.s < r.s, l.s > r.s
		}
		three := 0
		if lt {
			three = -1
		} else if gt {
			three = 1
		}
		return refBool([]bool{EQ: three == 0, NE: three != 0, LT: three < 0, LE: three <= 0, GT: three > 0, GE: three >= 0}[n.Op])
	case *And:
		for _, a := range n.Args {
			if refEval(a, b, row).i == 0 {
				return refVal{}
			}
		}
		return refVal{i: 1}
	case *Or:
		for _, a := range n.Args {
			if refEval(a, b, row).i != 0 {
				return refVal{i: 1}
			}
		}
		return refVal{}
	case *Not:
		return refVal{i: 1 - refEval(n.Arg, b, row).i}
	case *Arith:
		if n.Kind() == vector.Int64 {
			l, r := refEval(n.L, b, row).i, refEval(n.R, b, row).i
			return refVal{i: []func() int64{
				Add: func() int64 { return l + r }, Sub: func() int64 { return l - r },
				Mul: func() int64 { return l * r }, Div: func() int64 { return l / r }}[n.Op]()}
		}
		l, r := asFloat(n.L), asFloat(n.R)
		return refVal{f: []float64{Add: l + r, Sub: l - r, Mul: l * r, Div: l / r}[n.Op]}
	case *Case:
		if refEval(n.When, b, row).i != 0 {
			return refEval(n.Then, b, row)
		}
		return refEval(n.Else, b, row)
	case *Year:
		d := refEval(n.Arg, b, row).i
		return refVal{i: int64(time.Unix(0, 0).UTC().Add(time.Duration(d) * 24 * time.Hour).Year())}
	case *Substr:
		s := refEval(n.Arg, b, row).s
		var out []byte
		for i := 0; i < len(s); i++ {
			if i >= n.Start-1 && i < max(n.Start-1, 0)+n.Length {
				out = append(out, s[i])
			}
		}
		return refVal{s: string(out)}
	case *InList:
		v := refEval(n.Arg, b, row)
		hit := false
		for _, c := range n.Values {
			switch c.K {
			case vector.Int64:
				hit = hit || v.i == c.I
			case vector.Float64:
				hit = hit || v.f == c.F
			case vector.String:
				hit = hit || v.s == c.S
			}
		}
		return refBool(hit != n.Negate)
	case *Like:
		return refBool(naiveLike(refEval(n.Arg, b, row).s, n.Pattern) != n.Negate)
	}
	panic(fmt.Sprintf("refEval: %T", e))
}

// sameVal compares value i of v with want; any NaN equals any NaN (x - c runs
// as x + (-c), which may flip a NaN's sign bit and nothing else).
func sameVal(v *vector.Vector, i int, want refVal) bool {
	switch v.Kind {
	case vector.Int64:
		return v.I64[i] == want.i
	case vector.Float64:
		got := v.F64[i]
		return math.Float64bits(got) == math.Float64bits(want.f) || (got != got && want.f != want.f)
	}
	return v.Str[i] == want.s
}

// randSel returns a random ascending selection over n rows: sometimes nil,
// sometimes empty, sometimes every row.
func randSel(rng *rand.Rand, n int) []int32 {
	p := []float64{-1, 0, 0.1, 0.5, 0.9, 1}[rng.Intn(6)]
	if p < 0 {
		return nil
	}
	sel := []int32{}
	for r := 0; r < n; r++ {
		if rng.Float64() < p {
			sel = append(sel, int32(r))
		}
	}
	return sel
}

func selRows(sel []int32, n int) []int32 {
	if sel != nil {
		return sel
	}
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	return all
}

// TestExprKernelsMatchReference checks every evaluation entry against the
// reference on random trees over all node types, random batches (empty,
// one-row, NaN, ±0, empty strings) and random selection vectors: eval's dense
// result, Select's row ids (also narrowing the selection in place), the public
// Eval against Select scattered to 0/1, and a Clone of the tree.
func TestExprKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := treeGen{rng}
	sizes := []int{0, 1, 2, 17, 130}
	for iter := 0; iter < 1500; iter++ {
		var e Expr
		if iter%2 == 0 {
			e = g.genBool(1 + rng.Intn(3))
		} else {
			e = g.gen(vector.Kind(rng.Intn(3)), 1+rng.Intn(3))
		}
		if err := Bind(e, refSchema); err != nil {
			t.Fatalf("Bind(%s): %v", e, err)
		}
		clone := Clone(e)
		if clone.String() != e.String() || clone.Kind() != e.Kind() {
			t.Fatalf("Clone(%s) = %s", e, clone)
		}
		for _, n := range sizes {
			b := refBatch(rng, n)
			sel := randSel(rng, n)
			ids := selRows(sel, n)
			want := make([]refVal, len(ids))
			for i, r := range ids {
				want[i] = refEval(e, b, int(r))
			}
			for _, tree := range []Expr{e, clone} {
				v, idx := tree.eval(b, sel)
				if idx == nil && v.Len() != len(ids) {
					t.Fatalf("%s: %d values for %d selected rows", e, v.Len(), len(ids))
				}
				for i := range ids {
					at := i
					if idx != nil {
						at = int(idx[i])
					}
					if !sameVal(v, at, want[i]) {
						t.Fatalf("%s: rows=%d sel=%v: row %d = %s, reference has %+v", e, n, sel, ids[i], v.GetString(at), want[i])
					}
				}
			}
			if iter%2 != 0 {
				continue
			}
			var keep []int32
			for i, r := range ids {
				if want[i].i != 0 {
					keep = append(keep, r)
				}
			}
			if got := Select(e, b, sel); fmt.Sprint(got) != fmt.Sprint(keep) {
				t.Fatalf("%s: rows=%d sel=%v: Select = %v, reference keeps %v", e, n, sel, got, keep)
			}
			if sel != nil { // narrowing in place, as And does to its conjuncts
				own := append([]int32{}, sel...)
				if got := filter(clone, b, own, own); fmt.Sprint(got) != fmt.Sprint(keep) {
					t.Fatalf("%s: rows=%d sel=%v: in-place filter = %v, reference keeps %v", e, n, sel, got, keep)
				}
			}
			// Dense Eval ≡ the selection entry scattered to 0/1.
			scattered := make([]int64, n)
			for _, r := range Select(e, b, nil) {
				scattered[r] = 1
			}
			out := NewScratch(vector.Int64)
			e.Eval(b, out)
			if fmt.Sprint(out.I64) != fmt.Sprint(scattered) {
				t.Fatalf("%s: Eval = %v, Select scattered = %v", e, out.I64, scattered)
			}
		}
	}
}

// lineitemSchema and lineitemBatch give the zero-alloc and clone tests a
// TPC-H-shaped input.
var lineitemSchema = Schema{
	{Name: "l_shipdate", Kind: vector.Int64}, {Name: "l_discount", Kind: vector.Float64},
	{Name: "l_quantity", Kind: vector.Float64}, {Name: "l_extendedprice", Kind: vector.Float64},
	{Name: "l_tax", Kind: vector.Float64}, {Name: "l_shipmode", Kind: vector.String},
	{Name: "p_brand", Kind: vector.String}, {Name: "p_size", Kind: vector.Int64},
}

func lineitemBatch(rng *rand.Rand, n int) *vector.Batch {
	b := vector.NewBatch(lineitemSchema.Kinds())
	for r := 0; r < n; r++ {
		b.Cols[0].AppendInt64(vector.ParseDate("1993-06-01") + int64(rng.Intn(900)))
		b.Cols[1].AppendFloat64(float64(rng.Intn(11)) / 100)
		b.Cols[2].AppendFloat64(float64(1 + rng.Intn(50)))
		b.Cols[3].AppendFloat64(900 + 100*rng.Float64())
		b.Cols[4].AppendFloat64(float64(rng.Intn(9)) / 100)
		b.Cols[5].AppendString(pick(rng, []string{"AIR", "AIR REG", "MAIL", "SHIP", "TRUCK"}))
		b.Cols[6].AppendString(pick(rng, []string{"Brand#12", "Brand#23", "Brand#34", "Brand#45"}))
		b.Cols[7].AppendInt64(int64(1 + rng.Intn(20)))
	}
	return b
}

func q6Pred() Expr {
	return NewAnd(
		NewCmp(GE, C("l_shipdate"), Date("1994-01-01")),
		NewCmp(LT, C("l_shipdate"), Date("1995-01-01")),
		Between(C("l_discount"), Float(0.05), Float(0.07)),
		NewCmp(LT, C("l_quantity"), Float(24)))
}

func q1Charge() Expr {
	return NewArith(Mul,
		NewArith(Mul, C("l_extendedprice"), NewArith(Sub, Float(1), C("l_discount"))),
		NewArith(Add, Float(1), C("l_tax")))
}

func q19Pred() Expr {
	arm := func(brand string, lo, hi float64, size int64) Expr {
		return NewAnd(Eq(C("p_brand"), Str(brand)),
			Between(C("l_quantity"), Float(lo), Float(hi)),
			Between(C("p_size"), Int(1), Int(size)),
			NewIn(C("l_shipmode"), Str("AIR"), Str("AIR REG")))
	}
	return NewOr(arm("Brand#12", 1, 11, 5), arm("Brand#23", 10, 20, 10), arm("Brand#34", 20, 30, 15))
}

// TestExprZeroAlloc pins the steady state: once a bound tree has sized its
// scratch, evaluating another batch of the same size allocates nothing — for
// a narrowing conjunction, nested arithmetic, an OR of ANDs, a LIKE, and the
// one-row batch a join residual is evaluated on.
func TestExprZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	full, one := lineitemBatch(rng, vector.BatchSize), lineitemBatch(rng, 1)
	bind := func(e Expr) Expr {
		if err := Bind(e, lineitemSchema); err != nil {
			t.Fatal(err)
		}
		return e
	}
	q6, q1, q19 := bind(q6Pred()), bind(q1Charge()), bind(q19Pred())
	like := bind(NewNotLike(C("l_shipmode"), "%AI_%"))
	residual := bind(NewAnd(NewCmp(GT, C("l_quantity"), NewArith(Mul, Float(0.5), C("l_extendedprice"))),
		NewLike(C("p_brand"), "Brand#%")))
	boolOut, floatOut := NewScratch(vector.Int64), NewScratch(vector.Float64)
	var sink int
	cases := []struct {
		name string
		run  func()
	}{
		{"q6 Select", func() { sink += len(Select(q6, full, nil)) }},
		{"q6 Eval", func() { boolOut.Reset(); q6.Eval(full, boolOut) }},
		{"q1 charge Eval", func() { floatOut.Reset(); q1.Eval(full, floatOut) }},
		{"q1 charge Values", func() { sink += Values(q1, full).Len() }},
		{"q19 Select", func() { sink += len(Select(q19, full, nil)) }},
		{"like Select", func() { sink += len(Select(like, full, nil)) }},
		{"one-row residual", func() { sink += len(Select(residual, one, nil)) }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(20, c.run); allocs != 0 {
			t.Errorf("%s: %v allocations per evaluation, want 0", c.name, allocs)
		}
	}
	// Scratch is sized to the rows evaluated (rounded up to an allocation
	// size class), never to a batch.
	if got := cap(residual.scr().ids) + cap(residual.(*And).Args[0].(*Cmp).R.scr().vec.F64); got == 0 || got > 8 {
		t.Errorf("one-row residual grew its scratch to %d slots", got)
	}
}

// subtrees returns e and every node below it, bound operand forms included.
func subtrees(e Expr) []Expr {
	out := []Expr{e}
	add := func(es ...Expr) {
		for _, c := range es {
			if c != nil {
				out = append(out, subtrees(c)...)
			}
		}
	}
	switch n := e.(type) {
	case *Cmp:
		add(n.L, n.R)
	case *And:
		add(n.Args...)
	case *Or:
		add(n.Args...)
	case *Not:
		add(n.Arg)
	case *Arith:
		add(n.L, n.R, n.l, n.r)
	case *toFloat:
		add(n.arg)
	case *Case:
		add(n.When, n.Then, n.Else)
	case *Year:
		add(n.Arg)
	case *Substr:
		add(n.Arg)
	case *InList:
		add(n.Arg)
	case *Like:
		add(n.Arg)
	}
	return out
}

// TestCloneIndependent evaluates clones of one bound tree on two goroutines
// at once, each over its own batches (run it under -race), and then requires
// that no scratch slice of a clone aliases one of its source.
func TestCloneIndependent(t *testing.T) {
	src := NewAnd(q19Pred(),
		NewCmp(GT, NewArith(Mul, C("l_extendedprice"), NewArith(Sub, Int(1), C("l_discount"))), Float(850)),
		NewCase(NewLike(C("l_shipmode"), "AIR%"), NewCmp(LT, C("p_size"), Int(15)), Int(1)))
	if err := Bind(src, lineitemSchema); err != nil {
		t.Fatal(err)
	}
	trees := []Expr{src, Clone(src), Clone(src)}
	var wg sync.WaitGroup
	for w, tree := range trees {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				b := lineitemBatch(rng, 1+rng.Intn(300))
				var want []int32
				for r := 0; r < b.Len(); r++ {
					if refEval(tree, b, r).i != 0 {
						want = append(want, int32(r))
					}
				}
				if got := Select(tree, b, nil); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("tree %d, batch %d: Select = %v, reference keeps %v", w, i, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()

	owner := map[any]int{} // first element of every non-empty scratch slice -> tree
	for w, tree := range trees {
		for _, n := range subtrees(tree) {
			s := n.scr()
			for _, p := range []any{first(s.vec.I64), first(s.vec.F64), first(s.vec.Str),
				first(s.aux.I64), first(s.aux.F64), first(s.aux.Str), first(s.ids), first(s.pos)} {
				if p == nil {
					continue
				}
				if prev, seen := owner[p]; seen && prev != w {
					t.Fatalf("trees %d and %d share scratch of %s", prev, w, n)
				}
				owner[p] = w
			}
		}
	}
	if len(owner) == 0 {
		t.Fatal("no scratch was ever grown — vacuous")
	}
}

// first returns the address of s's first slot (of its capacity), or nil.
func first[T any](s []T) any {
	if cap(s) == 0 {
		return nil
	}
	return &s[:1][0]
}

// FuzzLike holds the compiled matcher to naiveLike under LIKE and NOT LIKE.
// The fuzzed bytes are mapped onto small alphabets — patterns onto %, _ and
// two literals, inputs onto the literals plus a literal % and _ — so that
// segments recur, overlap and straddle each other often enough to match.
// Inputs are cut to 24 bytes and patterns to 8: the reference backtracks
// once per split at every %, which a longer all-% pattern makes explode.
func FuzzLike(f *testing.F) {
	for _, seed := range [][2]string{
		{"special packs requests", "%special%requests%"}, {"banana", "b%na"}, {"ab", "%a_%"},
		{"", ""}, {"aab", "%ab"}, {"abab", "%_b%ab"}, {"b", "%"}, {"a%b", "a%b"},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	schema := Schema{{Name: "s", Kind: vector.String}}
	f.Fuzz(func(t *testing.T, in, pat []byte) {
		in, pat = in[:min(len(in), 24)], pat[:min(len(pat), 8)]
		s, p := make([]byte, len(in)), make([]byte, len(pat))
		for i, c := range in {
			s[i] = "ab%_"[c%4]
		}
		for i, c := range pat {
			p[i] = "%_ab"[c%4]
		}
		b := vector.NewBatch(schema.Kinds())
		b.Cols[0].Str = []string{string(s)}
		want := naiveLike(string(s), string(p))
		for _, e := range []*Like{NewLike(C("s"), string(p)), NewNotLike(C("s"), string(p))} {
			if err := Bind(e, schema); err != nil {
				t.Fatal(err)
			}
			out := NewScratch(vector.Int64)
			e.Eval(b, out)
			if got := out.I64[0] == 1; got != (want != e.Negate) {
				t.Fatalf("%q %s = %v, want %v", s, e, got, want != e.Negate)
			}
		}
	})
}
