package engine

import (
	"fmt"
	"math"
	"testing"

	"bdcc/internal/expr"
	"bdcc/internal/vector"
)

// mkResult builds a materialized result from parallel column slices.
func mkResult(names []string, cols ...*vector.Vector) *Result {
	schema := make(expr.Schema, len(cols))
	for i, c := range cols {
		schema[i] = expr.ColMeta{Name: names[i], Kind: c.Kind}
	}
	return &Result{Schema: schema, Cols: cols}
}

func i64Vec(xs ...int64) *vector.Vector {
	v := vector.NewVector(vector.Int64, len(xs))
	v.I64 = append(v.I64, xs...)
	return v
}

func f64Vec(xs ...float64) *vector.Vector {
	v := vector.NewVector(vector.Float64, len(xs))
	v.F64 = append(v.F64, xs...)
	return v
}

func strVec(xs ...string) *vector.Vector {
	v := vector.NewVector(vector.String, len(xs))
	v.Str = append(v.Str, xs...)
	return v
}

// trickyStringKeys is a set of pairwise-distinct two-column string keys
// whose parts embed length-prefix lookalike bytes, empty strings, and
// boundary shuffles that a sloppy concatenating encoder would conflate.
var trickyStringKeys = [][2]string{
	{"", ""},
	{"", "\x00"},
	{"\x00", ""},
	{"\x01\x00\x00\x00", ""},
	{"", "\x01\x00\x00\x00"},
	{"a\x02\x00\x00\x00b", "c"},
	{"a", "\x02\x00\x00\x00bc"},
	{"ab", "c"},
	{"a", "bc"},
	{"abc", ""},
	{"", "abc"},
}

// TestKeyIdentityStrings verifies that hash aggregation and hash join agree
// on multi-column string key identity for adversarial keys: each distinct
// key tuple is one group, and a self-join matches exactly within tuples.
func TestKeyIdentityStrings(t *testing.T) {
	// Duplicate tuple i exactly i+1 times.
	var k1, k2 []string
	for i, kv := range trickyStringKeys {
		for n := 0; n <= i; n++ {
			k1 = append(k1, kv[0])
			k2 = append(k2, kv[1])
		}
	}
	data := mkResult([]string{"k1", "k2"}, strVec(k1...), strVec(k2...))

	agg := &HashAggregate{
		Child:   &Values{Rows: data},
		GroupBy: []string{"k1", "k2"},
		Aggs:    []AggSpec{{Name: "c", Func: AggCount}},
	}
	res, err := Run(testCtx(), agg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() != len(trickyStringKeys) {
		t.Fatalf("agg found %d groups, want %d distinct key tuples", res.Rows(), len(trickyStringKeys))
	}
	counts := map[string]int64{}
	for i := 0; i < res.Rows(); i++ {
		counts[res.Cols[0].Str[i]+"\xff"+res.Cols[1].Str[i]] = res.Cols[2].I64[i]
	}
	for i, kv := range trickyStringKeys {
		if got := counts[kv[0]+"\xff"+kv[1]]; got != int64(i+1) {
			t.Errorf("key %q|%q: count %d, want %d", kv[0], kv[1], got, i+1)
		}
	}

	// Self-join must match exactly within tuples: sum of multiplicity^2 rows.
	join := &HashJoin{
		Left:     &Values{Rows: data},
		Right:    &Values{Rows: data},
		LeftKeys: []string{"k1", "k2"}, RightKeys: []string{"k1", "k2"},
		Type: InnerJoin,
	}
	jres, err := Run(testCtx(), join)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := range trickyStringKeys {
		want += (i + 1) * (i + 1)
	}
	if jres.Rows() != want {
		t.Fatalf("self-join produced %d rows, want %d", jres.Rows(), want)
	}
}

// TestKeyIdentityIntsAndFloats verifies negative ints hash/compare
// correctly — as a single Int64 key (the keyed table shape) and with a
// constant second key column (the bound-comparator shape) — and that -0.0
// and +0.0 are one grouping key for both the aggregation and join paths.
func TestKeyIdentityIntsAndFloats(t *testing.T) {
	ints := []int64{-1, 1, math.MinInt64, math.MaxInt64, 0, -1, math.MinInt64}
	for _, keys := range [][]string{{"k"}, {"k", "one"}} {
		data := func() *Result {
			return mkResult([]string{"k", "one"}, i64Vec(ints...), i64Vec(make([]int64, len(ints))...))
		}
		agg := &HashAggregate{
			Child:   &Values{Rows: data()},
			GroupBy: keys,
			Aggs:    []AggSpec{{Name: "c", Func: AggCount}},
		}
		res, err := Run(testCtx(), agg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows() != 5 {
			t.Fatalf("keys %v: int agg found %d groups, want 5", keys, res.Rows())
		}
		// Self-join: -1 and MinInt64 occur twice, the other three once.
		join := &HashJoin{Left: &Values{Rows: data()}, Right: &Values{Rows: data()},
			LeftKeys: keys, RightKeys: keys, Type: InnerJoin}
		jres, err := Run(testCtx(), join)
		if err != nil {
			t.Fatal(err)
		}
		if jres.Rows() != 2*2*2+3 {
			t.Fatalf("keys %v: int self-join produced %d rows, want 11", keys, jres.Rows())
		}
	}

	negZero := math.Copysign(0, -1)
	floats := mkResult([]string{"f"}, f64Vec(negZero, 0.0, 1.5, negZero))
	fagg := &HashAggregate{
		Child:   &Values{Rows: floats},
		GroupBy: []string{"f"},
		Aggs:    []AggSpec{{Name: "c", Func: AggCount}},
	}
	fres, err := Run(testCtx(), fagg)
	if err != nil {
		t.Fatal(err)
	}
	if fres.Rows() != 2 {
		t.Fatalf("float agg found %d groups, want 2 (-0.0 must equal +0.0)", fres.Rows())
	}
	for i := 0; i < fres.Rows(); i++ {
		if fres.Cols[0].F64[i] == 0 && fres.Cols[1].I64[i] != 3 {
			t.Errorf("zero group count = %d, want 3", fres.Cols[1].I64[i])
		}
	}

	// Join probe +0.0 against build -0.0: must match.
	join := &HashJoin{
		Left:     &Values{Rows: mkResult([]string{"f"}, f64Vec(0.0))},
		Right:    &Values{Rows: mkResult([]string{"f"}, f64Vec(negZero))},
		LeftKeys: []string{"f"}, RightKeys: []string{"f"},
		Type: InnerJoin,
	}
	jres, err := Run(testCtx(), join)
	if err != nil {
		t.Fatal(err)
	}
	if jres.Rows() != 1 {
		t.Fatalf("+0.0 probe against -0.0 build matched %d rows, want 1", jres.Rows())
	}
}

// TestJoinAggGroupingAgree cross-checks the two hash consumers: the number
// of distinct join keys seen by a semi-join self-match must equal the hash
// aggregation's group count over mixed-type multi-column keys.
func TestJoinAggGroupingAgree(t *testing.T) {
	n := 500
	ks := make([]int64, n)
	kf := make([]float64, n)
	kstr := make([]string, n)
	for i := range ks {
		ks[i] = int64(i % 37)
		kf[i] = float64(i%11) - 5
		if i%22 == 0 {
			kf[i] = math.Copysign(0, -1) // collides with +0.0 keys below
		}
		kstr[i] = fmt.Sprintf("s%d", i%7)
	}
	mk := func() *Result {
		return mkResult([]string{"a", "b", "c"}, i64Vec(ks...), f64Vec(kf...), strVec(kstr...))
	}
	// The mixed three-column key goes through the bound comparator, the
	// single Int64 key through the keyed tables.
	for _, keys := range [][]string{{"a", "b", "c"}, {"a"}} {
		agg := &HashAggregate{
			Child:   &Values{Rows: mk()},
			GroupBy: keys,
			Aggs:    []AggSpec{{Name: "c", Func: AggCount}},
		}
		ares, err := Run(testCtx(), agg)
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) == 1 && ares.Rows() != 37 {
			t.Fatalf("keys %v: %d groups, want 37", keys, ares.Rows())
		}
		semi := &HashJoin{
			Left:     &Values{Rows: mk()},
			Right:    &Values{Rows: mk()},
			LeftKeys: keys, RightKeys: keys,
			Type: SemiJoin,
		}
		sres, err := Run(testCtx(), semi)
		if err != nil {
			t.Fatal(err)
		}
		if sres.Rows() != n {
			t.Fatalf("keys %v: self semi-join kept %d of %d rows", keys, sres.Rows(), n)
		}
		// Anti-join against the distinct groups must eliminate everything.
		anti := &HashJoin{
			Left:     &Values{Rows: mk()},
			Right:    &Values{Rows: &Result{Schema: ares.Schema[:len(keys)], Cols: ares.Cols[:len(keys)]}},
			LeftKeys: keys, RightKeys: keys,
			Type: AntiJoin,
		}
		antres, err := Run(testCtx(), anti)
		if err != nil {
			t.Fatal(err)
		}
		if antres.Rows() != 0 {
			t.Fatalf("keys %v: anti-join against own distinct keys kept %d rows, want 0", keys, antres.Rows())
		}
	}
}

// int64KeyEq returns a comparator whose sought side is keys and whose stored
// side is a Buffer holding keys; a test pairs it with a keyed table or forces
// the generic (hash-storing) one.
func int64KeyEq(keys *vector.Vector) keyEq {
	stored := NewBuffer(intSchema("k"))
	stored.appendRows([]*vector.Vector{keys}, nil, 0, keys.Len())
	eq := newKeyEq(1, stored, nil)
	bindKeyCols(eq.sought, []*vector.Vector{keys}, []int{0})
	return eq
}

// TestOATableGrowth drives the open-addressing core through several
// doublings, in both key shapes, and checks every key stays reachable.
func TestOATableGrowth(t *testing.T) {
	keys := vector.NewVector(vector.Int64, 10000)
	for i := 0; i < 10000; i++ {
		keys.AppendInt64(int64(i * 7))
	}
	for _, keyed := range []bool{true, false} {
		table := oaTable{keyed: keyed}
		eq := int64KeyEq(keys)
		// find looks row i's key up; a hash-storing table works under any
		// hash, a keyed one rehashes its keys on growth and needs the real one.
		find := func(i int) (slot int, found bool, tag uint64) {
			k := keys.I64[i]
			if keyed {
				slot, found = table.FindKey(vector.HashInt64(k), k)
				return slot, found, uint64(k)
			}
			h := vector.Mix64(uint64(k))
			slot, found = table.FindSlot(h, &eq, i)
			return slot, found, h
		}
		for i, k := range keys.I64 {
			table.Reserve()
			slot, found, tag := find(i)
			if found {
				t.Fatalf("keyed=%v: key %d found before insert", keyed, k)
			}
			table.Insert(slot, tag, int32(i))
		}
		if table.Len() != keys.Len() {
			t.Fatalf("keyed=%v: table holds %d keys, want %d", keyed, table.Len(), keys.Len())
		}
		for i, k := range keys.I64 {
			slot, found, _ := find(i)
			if !found || table.vals[slot] != int32(i) {
				t.Fatalf("keyed=%v: key %d: found=%v payload=%d, want %d", keyed, k, found, table.vals[slot], i)
			}
		}
		if table.Bytes() <= 0 {
			t.Fatal("table reports non-positive footprint")
		}
	}
}

// TestJoinTableCollisionChains forces every key onto one hash value so
// distinct keys must be separated by the bound comparator alone, and
// duplicate keys must chain in insertion order.
func TestJoinTableCollisionChains(t *testing.T) {
	jt := newJoinTable(false)
	const h = uint64(0xDEADBEEF)
	// Row r holds key r/3: three duplicate rows per key, 100 distinct keys.
	build := vector.NewVector(vector.Int64, 300)
	hashes := make([]uint64, 300)
	for r := range hashes {
		build.AppendInt64(int64(r / 3))
		hashes[r] = h
	}
	eq := int64KeyEq(build)
	jt.GrowChains(300)
	jt.insertRows(hashes, 0, &eq)
	// Probe every key and, last, an absent one.
	probe := vector.NewVector(vector.Int64, 101)
	for k := int64(0); k < 100; k++ {
		probe.AppendInt64(k)
	}
	probe.AppendInt64(1000)
	bindKeyCols(eq.sought, []*vector.Vector{probe}, []int{0})
	heads := make([]int32, 101)
	jt.lookupRows(hashes[:101], &eq, heads)
	var scratch []int32
	for k := int32(0); k < 100; k++ {
		if heads[k] < 0 {
			t.Fatalf("key %d not found", k)
		}
		scratch = jt.Matches(heads[k], scratch[:0])
		if len(scratch) != 3 {
			t.Fatalf("key %d: %d matches, want 3", k, len(scratch))
		}
		for i, r := range scratch {
			if r != k*3+int32(i) {
				t.Fatalf("key %d: match %d = row %d, want %d (insertion order)", k, i, r, k*3+int32(i))
			}
		}
	}
	if heads[100] != -1 {
		t.Fatal("lookup of absent key did not return -1")
	}
}
