package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"bdcc/internal/expr"
	"bdcc/internal/vector"
)

// allocated returns the heap bytes f allocates.
func allocated(f func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestJoinPresizeKeepsDoublingGeometry builds seeded join build sides of
// 100 to 10 000 rows — 1, 2, 4 and 15 rows per key, one hot key, 25 keys;
// Int64 and String keys — twice: once through index,
// which presizes the slots from keyFloor's count of the drained keys, and
// once inserted into a table that doubles from oaMinSlots. Every presized
// build must end at exactly the slots of the doubled one (Figure 3 charges
// them); a build of distinct keys larger than one segment must not resize
// after its presize; the count must never exceed the distinct keys, and
// from 4096 keys on it must be within 8% of them (m ≥ 8 bits per row leaves
// it at most 6% short on average).
func TestJoinPresizeKeepsDoublingGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	forms := []struct {
		name   string
		perKey int // rows per key; 0: the key is key(i)
		key    func(i int) int
	}{
		{"1/key", 1, nil}, {"2/key", 2, nil}, {"4/key", 4, nil}, {"15/key", 15, nil},
		{"hot", 0, func(int) int { return 7 }},
		{"25 keys", 0, func(i int) int { return i % 25 }},
	}
	for _, kind := range []vector.Kind{vector.Int64, vector.String} {
		schema := expr.Schema{{Name: "k", Kind: kind}, {Name: "v", Kind: vector.Int64}}
		frag := &Fragment{Probe: schema, Build: schema, ProbeKeys: []string{"k"}, BuildKeys: []string{"k"}}
		if err := frag.Prepare(); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{100, 1000, 2500, 4096, 10_000} {
			perm := rng.Perm(n)
			for _, f := range forms {
				buf, keys := NewBuffer(schema), map[int]bool{}
				for lo := 0; lo < n; lo += vector.BatchSize {
					b := vector.NewBatch(schema.Kinds())
					for i := lo; i < min(lo+vector.BatchSize, n); i++ {
						k := perm[i] / max(f.perKey, 1)
						if f.key != nil {
							k = f.key(perm[i])
						}
						keys[k] = true
						if kind == vector.String {
							b.Cols[0].AppendString("key" + strconv.Itoa(k))
						} else {
							b.Cols[0].AppendInt64(int64(k))
						}
						b.Cols[1].AppendInt64(int64(i))
					}
					buf.AppendBatch(b)
				}
				label := fmt.Sprintf("kind=%d/rows=%d/%s", kind, n, f.name)
				grown := frag.newProbe(buf, newJoinTable(frag.keyed))
				grown.table.GrowChains(n)
				grown.insert()
				p := frag.newProbe(buf, newJoinTable(frag.keyed))
				q := frag.newProbe(buf, newJoinTable(frag.keyed))
				count := allocated(func() { q.keyFloor() })
				index := allocated(func() { p.index() })
				if got, want := len(p.table.slots.vals), len(grown.table.slots.vals); got != want {
					t.Fatalf("%s: presized build ends at %d slots, doubling reaches %d", label, got, want)
				}
				if p.table.Bytes() != grown.table.Bytes() {
					t.Fatalf("%s: presized build charges %d bytes, doubling %d", label, p.table.Bytes(), grown.table.Bytes())
				}
				// Beside the count and the chain array, a build that doubled
				// once after its presize allocates 1.5× its final slot arrays.
				slots := p.table.Bytes() - 4*int64(n)
				if extra := index - count - 4*int64(n); f.perKey == 1 && n > vector.BatchSize && 4*extra > 5*slots {
					t.Errorf("%s: allocated %d bytes of slot arrays for %d final: the build resized after its presize", label, extra, slots)
				}
				if est := p.keyFloor(); est > len(keys) || len(keys) >= 4096 && est*100 < len(keys)*92 {
					t.Errorf("%s: key floor %d, %d distinct keys", label, est, len(keys))
				}
			}
		}
	}
}

// TestSandwichPresizeReusesSlots rebuilds one table group after group, as
// a sandwich join does: a large group presizes the slots, and the smaller
// ones reuse them without a count — their index allocates nothing — while
// every group's probes still find exactly their own keys.
func TestSandwichPresizeReusesSlots(t *testing.T) {
	schema := intSchema("k", "v")
	frag := &Fragment{Probe: schema, Build: schema, ProbeKeys: []string{"k"}, BuildKeys: []string{"k"}}
	if err := frag.Prepare(); err != nil {
		t.Fatal(err)
	}
	p := frag.newProbe(NewBuffer(schema), newJoinTable(frag.keyed))
	var slots int
	for g, n := range []int{5000, 300, 2000} {
		p.buf.Reset()
		p.table.Reset()
		b := vector.NewBatch(schema.Kinds())
		for i := range n {
			b.Cols[0].AppendInt64(int64(g*100_000 + i/2))
			b.Cols[1].AppendInt64(int64(i))
			if b.Len() == vector.BatchSize || i == n-1 {
				p.insertBatch(b)
				b.Reset()
			}
		}
		if bytes := allocated(func() { p.index() }); g > 0 && bytes != 0 {
			t.Fatalf("group %d: index allocated %d bytes, want none (no count, no resize)", g, bytes)
		}
		if got := len(p.table.slots.vals); g == 0 {
			slots = got
		} else if got != slots {
			t.Fatalf("group %d: %d slots, want the %d the first group sized", g, got, slots)
		}
		if keys := p.table.slots.Len(); keys != (n+1)/2 {
			t.Fatalf("group %d: %d keys indexed, want %d", g, keys, (n+1)/2)
		}
		probe := vector.NewBatch(schema.Kinds())
		probe.Cols[0].AppendInt64(int64(g * 100_000))
		probe.Cols[0].AppendInt64(int64((g + 1) * 100_000))
		probe.Cols[1].AppendInt64(0)
		probe.Cols[1].AppendInt64(0)
		p.begin(probe)
		if p.heads[0] < 0 || p.heads[1] >= 0 {
			t.Fatalf("group %d: heads %v, want a hit and a miss", g, p.heads)
		}
	}
}

// TestJoinPresizeBelowThresholds builds, for 400 seeds, sides of 44, 89,
// 179 and 358 distinct keys — each just under the 70% load of 64, 128, 256
// and 512 slots — over 1.1 to 3 rows per key, Int64 and String keys. A key
// count that overshot the distinct keys would presize
// such a build to twice the slots doubling reaches; every build must end at
// exactly those of the doubled one.
func TestJoinPresizeBelowThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, kind := range []vector.Kind{vector.Int64, vector.String} {
		schema := expr.Schema{{Name: "k", Kind: kind}, {Name: "v", Kind: vector.Int64}}
		frag := &Fragment{Probe: schema, Build: schema, ProbeKeys: []string{"k"}, BuildKeys: []string{"k"}}
		if err := frag.Prepare(); err != nil {
			t.Fatal(err)
		}
		for seed := range 400 {
			for _, keys := range []int{44, 89, 179, 358} {
				vals := make([]int64, keys)
				for i := range vals {
					vals[i] = rng.Int63()
				}
				buf := NewBuffer(schema)
				b := vector.NewBatch(schema.Kinds())
				for i := range keys + rng.Intn(2*keys) + keys/10 {
					k := vals[rng.Intn(keys)]
					if i < keys {
						k = vals[i]
					}
					if kind == vector.String {
						b.Cols[0].AppendString(strconv.FormatInt(k, 36))
					} else {
						b.Cols[0].AppendInt64(k)
					}
					b.Cols[1].AppendInt64(int64(i))
				}
				buf.AppendBatch(b)
				grown := frag.newProbe(buf, newJoinTable(frag.keyed))
				grown.table.GrowChains(buf.Len())
				grown.insert()
				p := frag.newProbe(buf, newJoinTable(frag.keyed))
				p.index()
				if got, want := len(p.table.slots.vals), len(grown.table.slots.vals); got != want {
					t.Fatalf("kind=%d/seed=%d/keys=%d/rows=%d: presized build ends at %d slots, doubling reaches %d",
						kind, seed, keys, buf.Len(), got, want)
				}
			}
		}
	}
}
