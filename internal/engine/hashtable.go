package engine

import (
	"slices"

	"bdcc/internal/vector"
)

// This file is the engine's shared vectorized hashing subsystem. Key
// columns are hashed batch-at-a-time into reusable []uint64 scratch
// (vector.HashKeys) and looked up in flat open-addressing tables instead of
// Go string maps: no per-row key encoding, no per-row allocation, and an
// exact byte footprint (a few flat slices) for the memory tracker behind
// the paper's Figure 3. How a slot is verified is the table's key shape,
// decided once per operator (Fragment.Prepare, HashAggregate.Open) and never
// per row: a single Int64 key is stored in the slot itself and compared there
// (keyed tables); every other shape stores the key's hash and verifies a
// hash-equal slot against the materialized rows through a keyEq bound to the
// typed key columns.

// keyEq is the key comparator of one hash-table user: per key column, the
// column holding the sought rows and the column holding the stored rows the
// table's payloads index, both by value — the typed slices themselves, re-bound
// whenever a side's columns change (a new probe batch, a grown build side), so
// a compare is a kind switch over slices with no closure and no column lookup.
// Against a keyed table equal is never called, and sought[0].I64 is where the
// batch kernels read the keys.
type keyEq struct {
	sought, stored []vector.Vector
}

// newKeyEq returns an unbound comparator for keys of n columns.
func newKeyEq(n int) keyEq {
	return keyEq{sought: make([]vector.Vector, n), stored: make([]vector.Vector, n)}
}

// keyedShape reports whether tables over keys of the given kinds are keyed:
// the key, a single Int64, is stored in the slot.
func keyedShape(kinds []vector.Kind) bool { return len(kinds) == 1 && kinds[0] == vector.Int64 }

// bindKeyCols points one side of a comparator (k.sought or k.stored) at
// columns idx of cols; a nil idx means cols are exactly the key columns.
func bindKeyCols(side []vector.Vector, cols []*vector.Vector, idx []int) {
	for c := range side {
		if idx != nil {
			side[c] = *cols[idx[c]]
		} else {
			side[c] = *cols[c]
		}
	}
}

// equal reports whether sought row i and stored row j hold the same key:
// floats compare by normalized bits (-0.0 equals +0.0, a NaN equals an
// identical NaN), matching the hash.
func (k *keyEq) equal(i int, j int32) bool {
	for c := range k.sought {
		a, b := &k.sought[c], &k.stored[c]
		switch a.Kind {
		case vector.Int64:
			if a.I64[i] != b.I64[j] {
				return false
			}
		case vector.Float64:
			if vector.FloatKeyBits(a.F64[i]) != vector.FloatKeyBits(b.F64[j]) {
				return false
			}
		case vector.String:
			if a.Str[i] != b.Str[j] {
				return false
			}
		}
	}
	return true
}

// sized returns s with length n, reallocating only when the capacity is short;
// the contents are unspecified — per-batch scratch.
func sized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// oaTable is a linear-probing open-addressing index from keys to int32
// payloads. Slots with payload -1 are empty. A keyed table stores a single
// Int64 key in the slot, in place of its hash (same 8 + 4 bytes), and probes
// by comparing it (FindKey); any other table stores the 64-bit key hash and
// verifies a hash-equal slot's payload through the caller's keyEq (FindSlot).
// Either way a key's slot sequence starts at its hash, so both forms lay the
// same keys out identically. The table grows by doubling at ~70% load — a
// geometry Bytes() exposes to the memory tracker and TestHashTableFootprintPinned
// pins.
type oaTable struct {
	hashes []uint64 // per slot: the key's hash, or the key itself when keyed
	vals   []int32
	mask   uint64
	used   int
	keyed  bool
}

// oaMinSlots is the initial slot count (power of two).
const oaMinSlots = 64

// Len returns the number of occupied slots (distinct keys).
func (t *oaTable) Len() int { return t.used }

// Bytes returns the exact footprint of the slot arrays.
func (t *oaTable) Bytes() int64 { return int64(len(t.hashes))*8 + int64(len(t.vals))*4 }

// Reset empties the table, keeping its slot capacity.
func (t *oaTable) Reset() {
	for i := range t.vals {
		t.vals[i] = -1
	}
	t.used = 0
}

// grow doubles (or initializes) the slot arrays and re-places the occupied
// slots. Equal keys share one slot, so re-placement needs no key equality:
// stored hashes (recomputed from the stored keys of a keyed table) alone
// resolve to distinct keys.
func (t *oaTable) grow() {
	n := 2 * len(t.vals)
	if n == 0 {
		n = oaMinSlots
	}
	oldHashes, oldVals := t.hashes, t.vals
	t.hashes = make([]uint64, n)
	t.vals = make([]int32, n)
	for i := range t.vals {
		t.vals[i] = -1
	}
	t.mask = uint64(n - 1)
	for i, v := range oldVals {
		if v < 0 {
			continue
		}
		h := oldHashes[i]
		j := h
		if t.keyed {
			j = vector.HashInt64(int64(h))
		}
		for j &= t.mask; t.vals[j] >= 0; {
			j = (j + 1) & t.mask
		}
		t.hashes[j], t.vals[j] = h, v
	}
}

// Reserve makes room for one more distinct key. It must be called before a
// FindSlot or FindKey whose result may be inserted into: growth rehashes and
// invalidates previously returned slots.
func (t *oaTable) Reserve() {
	if (t.used+1)*10 > len(t.vals)*7 {
		t.grow()
	}
}

// FindSlot probes a hash-storing table for hash h, verifying a hash-equal
// slot's payload against sought row `row` of eq. It returns the slot holding
// an equal key (found=true), or the empty slot where the key belongs.
func (t *oaTable) FindSlot(h uint64, eq *keyEq, row int) (slot int, found bool) {
	for j := h & t.mask; ; j = (j + 1) & t.mask {
		v := t.vals[j]
		if v < 0 {
			return int(j), false
		}
		if t.hashes[j] == h && eq.equal(row, v) {
			return int(j), true
		}
	}
}

// FindKey is FindSlot for a keyed table: h is key's hash, and the slots are
// compared with key itself.
func (t *oaTable) FindKey(h uint64, key int64) (slot int, found bool) {
	for j := h & t.mask; ; j = (j + 1) & t.mask {
		if t.vals[j] < 0 {
			return int(j), false
		}
		if t.hashes[j] == uint64(key) {
			return int(j), true
		}
	}
}

// Insert claims the empty slot returned by FindSlot (tag: the key's hash) or
// FindKey (tag: the key) for payload v.
func (t *oaTable) Insert(slot int, tag uint64, v int32) {
	t.hashes[slot] = tag
	t.vals[slot] = v
	t.used++
}

// partJoinTable indexes the build side of a hash join: keys map to chains of
// build row numbers (duplicates linked through a flat next array), with the
// hash space split by the top hash bits into a power-of-two number of
// partitions, each an independent open-addressing table over one shared chain
// array. Partitioning makes the build phase parallel (each partition is owned
// by exactly one worker, and chain slots next[r] are written only by the owner
// of row r's partition) while probes stay lock-free single lookups. Serial
// users (SandwichHashJoin's per-group builds) run it with a single partition.
// Both directions work a batch at a time — insertRows, lookupRows — with the
// key shape's branch outside the row loop. The chain array is charged by its
// capacity, so it grows only by the one-row appends of ExtendChains.
type partJoinTable struct {
	parts []oaTable
	next  []int32
	shift uint // partition index of hash h is h >> shift
	keyed bool // every partition's key shape
}

// newPartJoinTable returns an empty table with the smallest power-of-two
// partition count ≥ workers; keyed selects the slots' key shape.
func newPartJoinTable(workers int, keyed bool) *partJoinTable {
	p := 1
	bits := uint(0)
	for p < workers {
		p <<= 1
		bits++
	}
	t := &partJoinTable{parts: make([]oaTable, p), shift: 64 - bits, keyed: keyed}
	for i := range t.parts {
		t.parts[i].keyed = keyed
	}
	return t
}

// Reset empties the table, keeping slot capacity (sandwich joins rebuild it
// once per co-clustering group).
func (t *partJoinTable) Reset() {
	for i := range t.parts {
		t.parts[i].Reset()
	}
	t.next = t.next[:0]
}

// Bytes returns the exact footprint of all slot arrays plus the chain array.
func (t *partJoinTable) Bytes() int64 {
	n := int64(cap(t.next)) * 4
	for i := range t.parts {
		n += t.parts[i].Bytes()
	}
	return n
}

// Len returns the number of indexed build rows.
func (t *partJoinTable) Len() int { return len(t.next) }

// ExtendChains makes chain slots for n more build rows, ahead of the
// insertRows that indexes them — the serial, incremental build path.
func (t *partJoinTable) ExtendChains(n int) {
	for ; n > 0; n-- {
		t.next = append(t.next, -1)
	}
}

// GrowChains presizes the chain array for n build rows so that parallel
// partition owners can insert without appends (disjoint writes only).
func (t *partJoinTable) GrowChains(n int) { t.next = make([]int32, n) }

// insertRows indexes build rows base, base+1, … under hashes: row r heads the
// chain of its key, linking to the previous head. eq's sought and stored
// sides are both the build side's key columns. Only rows whose partition p
// has p%of == stripe are touched (0, 1: all of them), so the stripes of a
// parallel build write disjoint slots and chain entries.
func (t *partJoinTable) insertRows(hashes []uint64, base int32, eq *keyEq, stripe, of int) {
	if t.keyed {
		keys := eq.sought[0].I64
		for i, h := range hashes {
			if part := int(h >> t.shift); of == 1 || part%of == stripe {
				r := base + int32(i)
				oa := &t.parts[part]
				oa.Reserve()
				slot, found := oa.FindKey(h, keys[r])
				t.link(oa, slot, found, uint64(keys[r]), r)
			}
		}
		return
	}
	for i, h := range hashes {
		if part := int(h >> t.shift); of == 1 || part%of == stripe {
			r := base + int32(i)
			oa := &t.parts[part]
			oa.Reserve()
			slot, found := oa.FindSlot(h, eq, int(r))
			t.link(oa, slot, found, h, r)
		}
	}
}

// link makes build row r the head of its key's chain in oa, given the slot
// its find returned.
func (t *partJoinTable) link(oa *oaTable, slot int, found bool, tag uint64, r int32) {
	if found {
		t.next[r] = oa.vals[slot]
		oa.vals[slot] = r
	} else {
		t.next[r] = -1
		oa.Insert(slot, tag, r)
	}
}

// lookupRows resolves every row of the sought side of eq, hashed into hashes,
// to the head of its key's chain, or -1: heads[i] for row i. Lookups are
// read-only and safe to run concurrently once the build is complete.
func (t *partJoinTable) lookupRows(hashes []uint64, eq *keyEq, heads []int32) {
	if t.keyed {
		keys := eq.sought[0].I64
		for i, h := range hashes {
			heads[i] = -1
			if oa := &t.parts[h>>t.shift]; oa.used > 0 {
				if slot, found := oa.FindKey(h, keys[i]); found {
					heads[i] = oa.vals[slot]
				}
			}
		}
		return
	}
	for i, h := range hashes {
		heads[i] = -1
		if oa := &t.parts[h>>t.shift]; oa.used > 0 {
			if slot, found := oa.FindSlot(h, eq, i); found {
				heads[i] = oa.vals[slot]
			}
		}
	}
}

// Matches appends the chain of head to dst (callers pass scratch[:0]) in
// build insertion order and returns it.
func (t *partJoinTable) Matches(head int32, dst []int32) []int32 {
	for r := head; r >= 0; r = t.next[r] {
		dst = append(dst, r)
	}
	slices.Reverse(dst)
	return dst
}

// distinctSet is an open-addressing set of scalar values backing
// COUNT(DISTINCT ...) states, replacing per-value map[string]struct{} and
// its fmt.Sprintf keys.
type distinctSet struct {
	oa       oaTable
	vals     *vector.Vector
	valBytes int64
	bytes    int64
	eq       keyEq
}

// newDistinctSet returns an empty set for values of kind k.
func newDistinctSet(k vector.Kind) *distinctSet {
	d := &distinctSet{vals: vector.NewVector(k, 0), eq: newKeyEq(1)}
	d.oa.keyed = k == vector.Int64
	return d
}

// Len returns the number of distinct values.
func (d *distinctSet) Len() int {
	if d == nil {
		return 0
	}
	return d.vals.Len()
}

// Add inserts value r of v if absent and returns the set's footprint growth
// in bytes (0 when the value was already present).
func (d *distinctSet) Add(v *vector.Vector, r int) int64 {
	h := v.HashValue(r)
	d.oa.Reserve()
	var slot int
	var found bool
	tag := h
	if d.oa.keyed {
		tag = uint64(v.I64[r])
		slot, found = d.oa.FindKey(h, v.I64[r])
	} else {
		d.eq.sought[0], d.eq.stored[0] = *v, *d.vals
		slot, found = d.oa.FindSlot(h, &d.eq, r)
	}
	if found {
		return 0
	}
	d.oa.Insert(slot, tag, int32(d.vals.Len()))
	d.vals.AppendFrom(v, r)
	before := d.bytes
	if d.vals.Kind == vector.String {
		d.valBytes += 16 + int64(len(v.Str[r]))
	} else {
		d.valBytes += 8
	}
	d.bytes = d.oa.Bytes() + d.valBytes
	return d.bytes - before
}
