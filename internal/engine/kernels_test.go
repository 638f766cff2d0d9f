package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"bdcc/internal/expr"
	"bdcc/internal/vector"
)

// keyShape is one of the key layouts the hash kernels are picked for: a
// single Int64 (keyed tables), and the shapes that go through the bound
// comparator.
type keyShape struct {
	name  string
	kinds []vector.Kind
}

var keyShapes = []keyShape{
	{"i64", []vector.Kind{vector.Int64}},
	{"i64x2", []vector.Kind{vector.Int64, vector.Int64}},
	{"i64f64", []vector.Kind{vector.Int64, vector.Float64}},
	{"str", []vector.Kind{vector.String}},
	{"empty", nil},
}

// shapeFloats are the float parts of i64f64 keys: both zeros are one key, a
// NaN equals itself (as a grouping key), and the rest are ordinary.
var shapeFloats = []float64{0, math.Copysign(0, -1), math.NaN(), 1.5}

// kernelGroups is the number of sandwich groups of the generated streams:
// integer key k lives in group k % kernelGroups, so the join key implies the
// group, as the sandwich join requires.
const kernelGroups = 4

// appendKey appends the shape's key for integer key k (variant v picks the
// float part) to the leading columns of b.
func (s keyShape) appendKey(b *vector.Batch, k int64, v int) {
	for c, kind := range s.kinds {
		switch {
		case kind == vector.String:
			b.Cols[c].AppendString(fmt.Sprint("key", k))
		case kind == vector.Float64:
			b.Cols[c].AppendFloat64(shapeFloats[v%len(shapeFloats)])
		case c == 1: // second Int64 column
			b.Cols[c].AppendInt64(int64(v % 2))
		default:
			b.Cols[c].AppendInt64(k)
		}
	}
}

func (s keyShape) schema(side string, rest ...expr.ColMeta) expr.Schema {
	var out expr.Schema
	for c, kind := range s.kinds {
		out = append(out, expr.ColMeta{Name: fmt.Sprint(side, "k", c), Kind: kind})
	}
	return append(out, rest...)
}

func (s keyShape) keyNames(side string) []string {
	names := make([]string, len(s.kinds))
	for c := range names {
		names[c] = fmt.Sprint(side, "k", c)
	}
	return names
}

// kernelInput is a pair of group streams for one key shape, cut into
// group-pure batches of random sizes.
type kernelInput struct {
	shape        keyShape
	ps, bs       expr.Schema
	probe, build []*vector.Batch
}

// keyMatches is the reference's equi-join, a nested loop over the two
// streams in order: for every probe row, the build rows with an equal key.
func (in *kernelInput) keyMatches() (probe, build []rowRef, matches [][]int) {
	nk := len(in.shape.kinds)
	probe, build = streamRows(in.probe), streamRows(in.build)
	buildKeys := make([]string, len(build))
	for i, b := range build {
		buildKeys[i] = refKey(b.b, nk, b.r)
	}
	matches = make([][]int, len(probe))
	for pi, p := range probe {
		pk := refKey(p.b, nk, p.r)
		for bi, bk := range buildKeys {
			if bk == pk {
				matches[pi] = append(matches[pi], bi)
			}
		}
	}
	return probe, build, matches
}

// genKernelInput generates the streams: per group, probe rows over a key
// domain the build side covers three quarters of, build chains of one to
// five rows, and in group 1 a hot key whose chain is longer than BatchSize
// and that two probe rows hit. The empty key makes everything one key and
// one group, so its streams are small. emptyBuild leaves the build side out.
func genKernelInput(shape keyShape, rng *rand.Rand, emptyBuild bool) *kernelInput {
	in := &kernelInput{shape: shape}
	in.ps = shape.schema("l",
		expr.ColMeta{Name: "lid", Kind: vector.Int64}, expr.ColMeta{Name: "lpay", Kind: vector.Int64},
		expr.ColMeta{Name: "lf", Kind: vector.Float64})
	in.bs = shape.schema("r",
		expr.ColMeta{Name: "rid", Kind: vector.Int64}, expr.ColMeta{Name: "rpay", Kind: vector.Int64},
		expr.ColMeta{Name: "rtag", Kind: vector.String})
	nk := len(shape.kinds)
	groups, probeRows, domain, hotChain := kernelGroups, 160, int64(24), vector.BatchSize+70
	if nk == 0 {
		groups, probeRows, domain = 1, 5, 1
	}
	var lid, rid int64
	cut := func(dst *[]*vector.Batch, kinds []vector.Kind, g int, cur *vector.Batch) *vector.Batch {
		if cur != nil && cur.Len() > 0 {
			cur.Grouped, cur.GroupID = true, uint64(g)
			*dst = append(*dst, cur)
		}
		return vector.NewBatch(kinds)
	}
	for g := 0; g < groups; g++ {
		key := func() int64 { return int64(g) + int64(groups)*rng.Int63n(domain) }
		const hot = 1 // in group 1
		cur := cut(&in.probe, in.ps.Kinds(), g, nil)
		size := 1 + rng.Intn(vector.BatchSize)
		for i := 0; i < probeRows; i++ {
			k, v := key(), rng.Intn(4)
			if g == hot%groups && i%100 == 7 {
				k, v = hot, 0
			}
			shape.appendKey(cur, k, v)
			cur.Cols[nk].AppendInt64(lid)
			cur.Cols[nk+1].AppendInt64(rng.Int63n(100))
			cur.Cols[nk+2].AppendFloat64(rng.NormFloat64() * 1e6)
			lid++
			if cur.Len() == size {
				cur, size = cut(&in.probe, in.ps.Kinds(), g, cur), 1+rng.Intn(vector.BatchSize)
			}
		}
		cut(&in.probe, in.ps.Kinds(), g, cur)
		if emptyBuild {
			continue
		}
		cur = cut(&in.build, in.bs.Kinds(), g, nil)
		size = 1 + rng.Intn(vector.BatchSize)
		addBuild := func(k int64, v int) {
			shape.appendKey(cur, k, v)
			pay := rng.Int63n(100)
			cur.Cols[nk].AppendInt64(rid)
			cur.Cols[nk+1].AppendInt64(pay)
			tag := fmt.Sprint("lo", pay)
			if pay >= 50 {
				tag = fmt.Sprint("hi", pay)
			}
			cur.Cols[nk+2].AppendString(tag)
			rid++
			if cur.Len() == size {
				cur, size = cut(&in.build, in.bs.Kinds(), g, cur), 1+rng.Intn(vector.BatchSize)
			}
		}
		for k := int64(g); k < int64(groups)*domain*3/4; k += int64(groups) {
			for n := 1 + rng.Intn(5); n > 0; n-- {
				addBuild(k, rng.Intn(4))
			}
		}
		if g == hot%groups {
			for i := 0; i < hotChain; i++ {
				addBuild(hot, 0)
			}
		}
		cut(&in.build, in.bs.Kinds(), g, cur)
	}
	return in
}

// cloneSource returns a fresh source over copies of the batches.
func cloneSource(schema expr.Schema, batches []*vector.Batch) *source {
	out := make([]*vector.Batch, len(batches))
	for i, b := range batches {
		out[i] = b.Clone()
	}
	return &source{schema: schema, batches: out}
}

// appendBits appends the columns' values at row r exactly — floats by their
// bits, or with norm by the bits of the grouping key they are (-0.0 is +0.0).
func appendBits(dst []byte, cols []*vector.Vector, r int, norm bool) []byte {
	for _, col := range cols {
		switch col.Kind {
		case vector.Int64:
			dst = strconv.AppendInt(dst, col.I64[r], 10)
		case vector.Float64:
			f := col.F64[r]
			if norm && f == 0 {
				f = 0
			}
			dst = strconv.AppendUint(dst, math.Float64bits(f), 16)
		case vector.String:
			dst = strconv.AppendQuote(dst, col.Str[r])
		}
		dst = append(dst, '|')
	}
	return dst
}

// bitRow renders row r of b exactly: floats by their bits.
func bitRow(b *vector.Batch, r int) string { return string(appendBits(nil, b.Cols, r, false)) }

// drainBits pulls op dry and returns its rows, in order, rendered by bitRow.
func drainBits(t *testing.T, ctx *Context, op Operator) []string {
	t.Helper()
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for {
		b, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if b.Len() > vector.BatchSize {
			t.Fatalf("batch of %d rows", b.Len())
		}
		for r := 0; r < b.Len(); r++ {
			rows = append(rows, bitRow(b, r))
		}
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if cur := ctx.Mem.Current(); cur != 0 {
		t.Fatalf("%d bytes still accounted after Close", cur)
	}
	return rows
}

// refKey is the reference key identity: the key columns rendered with floats
// by normalized bits (-0.0 is +0.0, a NaN is itself).
func refKey(b *vector.Batch, nk, r int) string { return string(appendBits(nil, b.Cols[:nk], r, true)) }

// rowRef addresses one row of a stream.
type rowRef struct {
	b *vector.Batch
	r int
}

func streamRows(batches []*vector.Batch) []rowRef {
	var out []rowRef
	for _, b := range batches {
		for r := 0; r < b.Len(); r++ {
			out = append(out, rowRef{b, r})
		}
	}
	return out
}

// refJoin is the reference join over keyMatches' result. residual, when
// non-nil, judges a (probe, build) pair.
func refJoin(in *kernelInput, probe, build []rowRef, matches [][]int, typ JoinType, residual func(p, b rowRef) bool) []string {
	zeros := vector.NewBatch(in.bs.Kinds())
	for _, col := range zeros.Cols {
		switch col.Kind {
		case vector.Int64:
			col.AppendInt64(0)
		case vector.Float64:
			col.AppendFloat64(0)
		case vector.String:
			col.AppendString("")
		}
	}
	var out []string
	for pi, p := range probe {
		matched := false
		for _, bi := range matches[pi] {
			b := build[bi]
			if residual != nil && !residual(p, b) {
				continue
			}
			matched = true
			switch typ {
			case InnerJoin:
				out = append(out, bitRow(p.b, p.r)+bitRow(b.b, b.r))
			case LeftOuterJoin:
				out = append(out, bitRow(p.b, p.r)+bitRow(b.b, b.r)+"1|")
			}
		}
		switch {
		case typ == LeftOuterJoin && !matched:
			out = append(out, bitRow(p.b, p.r)+bitRow(zeros, 0)+"0|")
		case typ == SemiJoin && matched, typ == AntiJoin && !matched:
			out = append(out, bitRow(p.b, p.r))
		}
	}
	return out
}

// refAgg is the reference aggregation of the probe stream by its key: a map
// from key to state, groups in first-seen order, each folding its rows in
// input order. It computes COUNT(*), SUM(lpay), SUM(lf), MIN(lpay), MAX(lf),
// AVG(lf).
func refAgg(in *kernelInput) []string {
	nk := len(in.shape.kinds)
	type state struct {
		key       string
		n, si, mn int64
		sf, mx    float64
		first     rowRef
	}
	byKey := map[string]*state{}
	var order []*state
	for _, p := range streamRows(in.probe) {
		k := refKey(p.b, nk, p.r)
		pay, f := p.b.Cols[nk+1].I64[p.r], p.b.Cols[nk+2].F64[p.r]
		st := byKey[k]
		if st == nil {
			st = &state{key: k, mn: pay, mx: f, first: p}
			byKey[k] = st
			order = append(order, st)
		}
		st.n++
		st.si += pay
		st.sf += f
		st.mn = min(st.mn, pay)
		if f > st.mx {
			st.mx = f
		}
	}
	var out []string
	for _, st := range order {
		keyCols := &vector.Batch{Cols: st.first.b.Cols[:nk]}
		out = append(out, bitRow(keyCols, st.first.r)+fmt.Sprintf("%d|%d|%x|%d|%x|%x|",
			st.n, st.si, math.Float64bits(st.sf), st.mn, math.Float64bits(st.mx), math.Float64bits(st.sf/float64(st.n))))
	}
	return out
}

func requireSameRows(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, reference has %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %s, reference has %s", label, i, got[i], want[i])
		}
	}
}

// kernelResiduals are the residual forms of the kernel tests: none, a
// comparison across the two sides, and a LIKE over the build side's tag —
// each as the expression the join evaluates and as the reference's judgement.
var kernelResiduals = []struct {
	name string
	mk   func() expr.Expr
	ref  func(nk int) func(p, b rowRef) bool
}{
	{"none", func() expr.Expr { return nil }, func(int) func(p, b rowRef) bool { return nil }},
	{"cmp", func() expr.Expr { return expr.NewCmp(expr.LT, expr.C("lpay"), expr.C("rpay")) },
		func(nk int) func(p, b rowRef) bool {
			return func(p, b rowRef) bool { return p.b.Cols[nk+1].I64[p.r] < b.b.Cols[nk+1].I64[b.r] }
		}},
	{"like", func() expr.Expr { return expr.NewLike(expr.C("rtag"), "hi%") },
		func(nk int) func(p, b rowRef) bool {
			return func(p, b rowRef) bool { return strings.HasPrefix(b.b.Cols[nk+2].Str[b.r], "hi") }
		}},
}

// TestHashKernelsMatchReference holds the hash kernels to references that
// share nothing with them — a nested-loop join and a map-based aggregation —
// on seeded random group streams over every key shape, with duplicate chains
// longer than BatchSize and with an empty build side, for all four join
// types, without a residual and with a comparison and a LIKE residual: same
// rows, in the same order, floats by bits.
func TestHashKernelsMatchReference(t *testing.T) {
	for si, shape := range keyShapes {
		for _, emptyBuild := range []bool{false, true} {
			in := genKernelInput(shape, rand.New(rand.NewSource(int64(100+si))), emptyBuild)
			nk := len(shape.kinds)
			probe, build, matches := in.keyMatches()
			for _, typ := range []JoinType{InnerJoin, LeftOuterJoin, SemiJoin, AntiJoin} {
				for _, res := range kernelResiduals {
					want := refJoin(in, probe, build, matches, typ, res.ref(nk))
					label := fmt.Sprintf("%s/emptyBuild=%v/type=%d/residual=%s", shape.name, emptyBuild, typ, res.name)
					requireSameRows(t, "HashJoin/"+label, drainBits(t, testCtx(), &HashJoin{
						Left: cloneSource(in.ps, in.probe), Right: cloneSource(in.bs, in.build),
						LeftKeys: shape.keyNames("l"), RightKeys: shape.keyNames("r"),
						Type: typ, Residual: res.mk()}), want)
					requireSameRows(t, "SandwichHashJoin/"+label, drainBits(t, testCtx(), &SandwichHashJoin{
						Left: cloneSource(in.ps, in.probe), Right: cloneSource(in.bs, in.build),
						LeftKeys: shape.keyNames("l"), RightKeys: shape.keyNames("r"),
						Type: typ, Residual: res.mk()}), want)
				}
			}
			if emptyBuild {
				continue
			}
			requireSameRows(t, "HashAggregate/"+shape.name, drainBits(t, testCtx(), &HashAggregate{
				Child: cloneSource(in.ps, in.probe), GroupBy: shape.keyNames("l"),
				Aggs: []AggSpec{
					{Name: "n", Func: AggCount},
					{Name: "si", Func: AggSum, Arg: expr.C("lpay")},
					{Name: "sf", Func: AggSum, Arg: expr.C("lf")},
					{Name: "mn", Func: AggMin, Arg: expr.C("lpay")},
					{Name: "mx", Func: AggMax, Arg: expr.C("lf")},
					{Name: "av", Func: AggAvg, Arg: expr.C("lf")},
				}}), refAgg(in))
		}
	}
}

// TestJoinProbeSteadyStateAllocs is the join kernel's twin of
// TestExprZeroAlloc: once a first probe batch has sized the scratch, probing
// a built table batch after batch allocates nothing — for the keyed and the
// generic key shape, every join type, with and without a residual.
func TestJoinProbeSteadyStateAllocs(t *testing.T) {
	for _, shape := range []keyShape{keyShapes[0], keyShapes[3]} {
		in := genKernelInput(shape, rand.New(rand.NewSource(7)), false)
		for _, typ := range []JoinType{InnerJoin, LeftOuterJoin, SemiJoin, AntiJoin} {
			for _, res := range kernelResiduals[:2] {
				frag := &Fragment{Probe: in.ps, Build: in.bs,
					ProbeKeys: shape.keyNames("l"), BuildKeys: shape.keyNames("r"), Type: typ, Residual: res.mk()}
				if err := frag.Prepare(); err != nil {
					t.Fatal(err)
				}
				p := frag.newProbe(NewBuffer(in.bs), newJoinTable(frag.keyed))
				for _, b := range in.build {
					p.insertBatch(b)
				}
				out := vector.NewBatch(frag.OutSchema().Kinds())
				rows := 0
				probeAll := func() {
					for _, b := range in.probe {
						p.begin(b)
						for done := false; !done; out.Reset() {
							done = p.fill(out)
							rows += out.Len()
						}
					}
				}
				probeAll() // warm-up: sizes the scratch
				if rows == 0 {
					t.Fatalf("%s/type=%d/residual=%s: no output — vacuous", shape.name, typ, res.name)
				}
				if allocs := testing.AllocsPerRun(5, probeAll); allocs != 0 {
					t.Errorf("%s/type=%d/residual=%s: %v allocations per pass over the probe stream, want 0", shape.name, typ, res.name, allocs)
				}
			}
		}
	}
}

// TestHashTableFootprintPinned pins what the hash tables charge the memory
// tracker: for fixed insert sequences — all keys distinct, four rows per key,
// one hot key; twelve full batches each; an Int64 and a String key — the
// joinTable.Bytes() of a fresh build of the first 1…12 batches (slots as
// the incremental build grew them, and a chain array of exactly the rows)
// and the aggTable.bytes() after each batch (re-pinned when the states moved
// into BatchSize-group segments, which hold at most the states of the flat
// array they replaced, and again when a state lost its COUNT(DISTINCT) set
// and shrank from 48 to 40 bytes, and again when the striped aggregation's
// per-group first-seen row indexes, 8 bytes a group, went: no value rose any
// time). A change of slot width, load factor, of the presize of a join's
// slots, or of how a capacity-charged array (next, states) grows moves
// peak_mb — Figure 3 — and fails here first.
func TestHashTableFootprintPinned(t *testing.T) {
	cases := []struct {
		name      string
		key       func(row int64) int64
		strKey    bool
		join, agg []int64
	}{
		{"distinct", func(i int64) int64 { return i }, false,
			[]int64{28672, 57344, 110592, 114688, 118784, 221184, 225280, 229376, 233472, 237568, 241664, 442368},
			[]int64{114688, 229376, 368640, 458752, 548864, 737280, 827392, 917504, 1007616, 1097728, 1187840, 1474560}},
		{"four", func(i int64) int64 { return i / 4 }, false,
			[]int64{10240, 20480, 36864, 40960, 45056, 73728, 77824, 81920, 86016, 90112, 94208, 147456},
			[]int64{32752, 57344, 96240, 114688, 157696, 184320, 227328, 229376, 280544, 282592, 317440, 368640}},
		{"hot", func(i int64) int64 { return 7 }, false,
			[]int64{4864, 8960, 13056, 17152, 21248, 25344, 29440, 33536, 37632, 41728, 45824, 49920},
			[]int64{856, 856, 856, 856, 856, 856, 856, 856, 856, 856, 856, 856}},
		{"distinct", func(i int64) int64 { return i }, true,
			[]int64{28672, 57344, 110592, 114688, 118784, 221184, 225280, 229376, 233472, 237568, 241664, 442368},
			[]int64{128938, 258986, 413610, 519082, 624554, 828330, 933802, 1039274, 1144746, 1250458, 1356954, 1660058}},
		{"four", func(i int64) int64 { return i / 4 }, true,
			[]int64{10240, 20480, 36864, 40960, 45056, 73728, 77824, 81920, 86016, 90112, 94208, 147456},
			[]int64{36226, 64402, 106882, 128938, 175786, 206250, 253098, 258986, 313994, 319882, 358570, 413610}},
		{"hot", func(i int64) int64 { return 7 }, true,
			[]int64{4864, 8960, 13056, 17152, 21248, 25344, 29440, 33536, 37632, 41728, 45824, 49920},
			[]int64{868, 868, 868, 868, 868, 868, 868, 868, 868, 868, 868, 868}},
	}
	for _, c := range cases {
		schema := intSchema("k", "v")
		if c.strKey {
			schema[0].Kind = vector.String
		}
		frag := &Fragment{Probe: schema, Build: schema, ProbeKeys: []string{"k"}, BuildKeys: []string{"k"}}
		if err := frag.Prepare(); err != nil {
			t.Fatal(err)
		}
		aggs := []AggSpec{{Name: "n", Func: AggCount}, {Name: "s", Func: AggSum, Arg: expr.C("v")}}
		if err := expr.Bind(aggs[1].Arg, schema); err != nil {
			t.Fatal(err)
		}
		at := newAggTable(aggs, []int{0}, schema[:1])
		var batches []*vector.Batch
		var join, agg []int64
		for b := int64(0); b < int64(len(c.join)); b++ {
			batch := vector.NewBatch(schema.Kinds())
			for i := range int64(vector.BatchSize) {
				row := b*vector.BatchSize + i
				if c.strKey {
					batch.Cols[0].AppendString(fmt.Sprint("key", c.key(row)))
				} else {
					batch.Cols[0].AppendInt64(c.key(row))
				}
				batch.Cols[1].AppendInt64(row)
			}
			batches = append(batches, batch)
			p := frag.newProbe(NewBuffer(schema), newJoinTable(frag.keyed))
			for _, bb := range batches {
				p.insertBatch(bb)
			}
			p.index()
			join = append(join, p.table.Bytes())
			at.accumulate(batch)
			agg = append(agg, at.bytes())
		}
		if fmt.Sprint(join) != fmt.Sprint(c.join) {
			t.Errorf("%s/strKey=%v: joinTable.Bytes() per batch = %v, pinned %v", c.name, c.strKey, join, c.join)
		}
		if fmt.Sprint(agg) != fmt.Sprint(c.agg) {
			t.Errorf("%s/strKey=%v: aggTable.bytes() per batch = %v, pinned %v", c.name, c.strKey, agg, c.agg)
		}
	}
}

// kernelBenchRows is the size of each side of the kernel micro-benchmarks.
const kernelBenchRows = 200_000

// kernelBenchInput builds one side of a kernel benchmark as a Values input:
// the shape's key over n/4 distinct integer keys (so build chains average
// four rows) in random order, an id, a payload and a float.
func kernelBenchInput(shape keyShape, side string, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed))
	schema := shape.schema(side,
		expr.ColMeta{Name: side + "id", Kind: vector.Int64}, expr.ColMeta{Name: side + "pay", Kind: vector.Int64},
		expr.ColMeta{Name: side + "f", Kind: vector.Float64})
	b := vector.NewBatch(schema.Kinds())
	nk := len(shape.kinds)
	for i := int64(0); i < kernelBenchRows; i++ {
		shape.appendKey(b, rng.Int63n(kernelBenchRows/4), 0)
		b.Cols[nk].AppendInt64(i)
		b.Cols[nk+1].AppendInt64(rng.Int63n(100))
		b.Cols[nk+2].AppendFloat64(rng.Float64())
	}
	return &Result{Schema: schema, Cols: b.Cols}
}

var kernelBenchShapes = []keyShape{
	keyShapes[0], keyShapes[1], keyShapes[3],
	{"str2", []vector.Kind{vector.String, vector.Int64}},
}

// BenchmarkJoinKernel times HashJoin over Values inputs per key shape and
// join form: 200k probe rows against 200k build rows in chains of about
// four. ns/row is per probe row; the inner and outer joins emit about four
// rows each.
func BenchmarkJoinKernel(b *testing.B) {
	forms := []struct {
		name     string
		typ      JoinType
		residual func() expr.Expr
	}{
		{"inner", InnerJoin, func() expr.Expr { return nil }},
		{"semi_residual", SemiJoin, func() expr.Expr { return expr.NewCmp(expr.LT, expr.C("lpay"), expr.C("rpay")) }},
		{"outer", LeftOuterJoin, func() expr.Expr { return nil }},
	}
	for _, shape := range kernelBenchShapes[:3] {
		probe, build := kernelBenchInput(shape, "l", 1), kernelBenchInput(shape, "r", 2)
		for _, form := range forms {
			b.Run(shape.name+"/"+form.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					op := &HashJoin{Left: &Values{Rows: probe}, Right: &Values{Rows: build},
						LeftKeys: shape.keyNames("l"), RightKeys: shape.keyNames("r"), Type: form.typ, Residual: form.residual()}
					if err := drainDiscard(op); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/kernelBenchRows, "ns/row")
			})
		}
	}
}

// BenchmarkAggKernel times HashAggregate over a Values input per key shape
// and aggregate set: 200k rows into 50k groups.
func BenchmarkAggKernel(b *testing.B) {
	sets := []struct {
		name string
		aggs []AggSpec
	}{
		{"count_sum", []AggSpec{{Name: "n", Func: AggCount}, {Name: "s", Func: AggSum, Arg: expr.C("lf")}}},
		{"min_max", []AggSpec{{Name: "mn", Func: AggMin, Arg: expr.C("lpay")}, {Name: "mx", Func: AggMax, Arg: expr.C("lf")}}},
	}
	for _, shape := range []keyShape{kernelBenchShapes[0], kernelBenchShapes[3]} {
		input := kernelBenchInput(shape, "l", 1)
		for _, set := range sets {
			b.Run(shape.name+"/"+set.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					aggs := make([]AggSpec, len(set.aggs))
					for j, a := range set.aggs {
						aggs[j] = AggSpec{Name: a.Name, Func: a.Func, Arg: expr.Clone(a.Arg)}
					}
					op := &HashAggregate{Child: &Values{Rows: input}, GroupBy: shape.keyNames("l"), Aggs: aggs}
					if err := drainDiscard(op); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/kernelBenchRows, "ns/row")
			})
		}
	}
}

// drainDiscard runs op to completion, discarding its output, so a kernel
// benchmark times the operator and not Run's result collection.
func drainDiscard(op Operator) error {
	if err := op.Open(testCtx()); err != nil {
		return err
	}
	for {
		b, err := op.Next()
		if err != nil || b == nil {
			op.Close()
			return err
		}
	}
}
