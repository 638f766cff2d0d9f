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
// column holding the sought rows, by value — the typed slices themselves,
// re-bound for every new batch or build segment — and the Buffer column
// holding the stored rows the table's payloads index, read by row number,
// so stored rows need no re-binding as the buffer grows. A compare is a kind
// switch over slices with no closure. Against a keyed table equal is never
// called, and sought[0].I64 is where the batch kernels read the keys.
type keyEq struct {
	sought []vector.Vector
	stored *Buffer
	idx    []int // stored key column c is stored column idx[c]; nil: column c
}

// newKeyEq returns a comparator for keys of n columns against the stored
// columns idx of stored (nil idx: its first n), with the sought side unbound.
func newKeyEq(n int, stored *Buffer, idx []int) keyEq {
	return keyEq{sought: make([]vector.Vector, n), stored: stored, idx: idx}
}

// keyedShape reports whether tables over keys of the given kinds are keyed:
// the key, a single Int64, is stored in the slot.
func keyedShape(kinds []vector.Kind) bool { return len(kinds) == 1 && kinds[0] == vector.Int64 }

// bindKeyCols points the sought side of a comparator at columns idx of cols.
func bindKeyCols(sought []vector.Vector, cols []*vector.Vector, idx []int) {
	for c, i := range idx {
		sought[c] = *cols[i]
	}
}

// equal reports whether sought row i and stored row j hold the same key:
// floats compare by normalized bits (-0.0 equals +0.0, a NaN equals an
// identical NaN), matching the hash.
func (k *keyEq) equal(i int, j int32) bool {
	s, at := j>>segShift, j&segMask
	for c := range k.sought {
		a, sc := &k.sought[c], c
		if k.idx != nil {
			sc = k.idx[c]
		}
		b := &k.stored.cols[sc][s]
		switch a.Kind {
		case vector.Int64:
			if a.I64[i] != b.I64[at] {
				return false
			}
		case vector.Float64:
			if vector.FloatKeyBits(a.F64[i]) != vector.FloatKeyBits(b.F64[at]) {
				return false
			}
		case vector.String:
			if a.Str[i] != b.Str[at] {
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
// same keys out identically. The table doubles at ~70% load from
// oaMinSlots; a join build presizes it first from a count of its keys to at
// most the slots doubling would reach (presize). That geometry is what
// Bytes() exposes to the memory tracker and TestHashTableFootprintPinned
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

// resize re-places the occupied slots into n slots (a power of two). Equal
// keys share one slot, so re-placement needs no key equality: stored hashes
// (recomputed from the stored keys of a keyed table) alone resolve to
// distinct keys.
func (t *oaTable) resize(n int) {
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

// Reserve makes room for one more distinct key, doubling the slots (from
// oaMinSlots) at ~70% load. It must be called before a FindSlot or FindKey
// whose result may be inserted into: growth rehashes and invalidates
// previously returned slots.
func (t *oaTable) Reserve() {
	if (t.used+1)*10 > len(t.vals)*7 {
		t.resize(max(2*len(t.vals), oaMinSlots))
	}
}

// presize grows the table at once to the slots Reserve's doubling reaches
// for keys distinct keys (none for none). For keys at most the keys
// inserted afterwards, the final slot count is the one doubling alone would
// have reached.
func (t *oaTable) presize(keys int) {
	n := max(len(t.vals), oaMinSlots)
	for keys*10 > n*7 {
		n *= 2
	}
	if keys > 0 && n > len(t.vals) {
		t.resize(n)
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

// joinTable indexes the build side of a hash join: keys map to chains of
// build row numbers, duplicates linked through a flat next array, over one
// open-addressing table. Both directions work a batch at a time —
// insertRows, lookupRows — with the key shape's branch outside the row loop.
// A build drains its rows first, so the chain array is sized once, for
// exactly the rows it links (GrowChains), and charged by its capacity, and
// the slots once, from a count of the keys (joinProbe.presize). A sandwich
// join resets and rebuilds one table per co-clustering group.
type joinTable struct {
	slots oaTable
	next  []int32
}

// newJoinTable returns an empty table; keyed selects the slots' key shape.
func newJoinTable(keyed bool) *joinTable { return &joinTable{slots: oaTable{keyed: keyed}} }

// Reset empties the table, keeping slot capacity (sandwich joins rebuild it
// once per co-clustering group).
func (t *joinTable) Reset() {
	t.slots.Reset()
	t.next = t.next[:0]
}

// Bytes returns the exact footprint of the slot arrays plus the chain array.
func (t *joinTable) Bytes() int64 { return int64(cap(t.next))*4 + t.slots.Bytes() }

// Len returns the number of indexed build rows.
func (t *joinTable) Len() int { return len(t.next) }

// GrowChains sizes the chain array for n build rows, reusing its capacity
// (a sandwich join rebuilds per group).
func (t *joinTable) GrowChains(n int) {
	if cap(t.next) < n {
		t.next = make([]int32, n)
	}
	t.next = t.next[:n]
}

// insertRows indexes build rows base, base+1, … — the sought rows of eq, one
// build segment, hashed into hashes — under their keys: row r heads the
// chain of its key, linking to the previous head.
func (t *joinTable) insertRows(hashes []uint64, base int32, eq *keyEq) {
	oa := &t.slots
	if oa.keyed {
		keys := eq.sought[0].I64
		for i, h := range hashes {
			oa.Reserve()
			slot, found := oa.FindKey(h, keys[i])
			t.link(slot, found, uint64(keys[i]), base+int32(i))
		}
		return
	}
	for i, h := range hashes {
		oa.Reserve()
		slot, found := oa.FindSlot(h, eq, i)
		t.link(slot, found, h, base+int32(i))
	}
}

// link makes build row r the head of its key's chain, given the slot its
// find returned.
func (t *joinTable) link(slot int, found bool, tag uint64, r int32) {
	if found {
		t.next[r] = t.slots.vals[slot]
		t.slots.vals[slot] = r
	} else {
		t.next[r] = -1
		t.slots.Insert(slot, tag, r)
	}
}

// lookupRows resolves every row of the sought side of eq, hashed into hashes,
// to the head of its key's chain, or -1: heads[i] for row i.
func (t *joinTable) lookupRows(hashes []uint64, eq *keyEq, heads []int32) {
	oa := &t.slots
	if oa.keyed {
		keys := eq.sought[0].I64
		for i, h := range hashes {
			heads[i] = -1
			if oa.used > 0 {
				if slot, found := oa.FindKey(h, keys[i]); found {
					heads[i] = oa.vals[slot]
				}
			}
		}
		return
	}
	for i, h := range hashes {
		heads[i] = -1
		if oa.used > 0 {
			if slot, found := oa.FindSlot(h, eq, i); found {
				heads[i] = oa.vals[slot]
			}
		}
	}
}

// Matches appends the chain of head to dst (callers pass scratch[:0]) in
// build insertion order and returns it.
func (t *joinTable) Matches(head int32, dst []int32) []int32 {
	for r := head; r >= 0; r = t.next[r] {
		dst = append(dst, r)
	}
	slices.Reverse(dst)
	return dst
}
