package core

import "math/bits"

// BinSet is a set of bin numbers of one dimension at its full granularity:
// a bitset of Dimension.NumBins() bits. A nil BinSet means "unrestricted";
// an all-zero one selects nothing. A set is filled by whoever creates it and
// never mutated afterwards, so restrictions, plan memos and concurrent
// replays share sets freely.
type BinSet []uint64

// NewBinSet returns the empty set over bin numbers [0, numBins).
func NewBinSet(numBins int) BinSet {
	return make(BinSet, (numBins+63)/64)
}

// Add inserts bin b.
func (s BinSet) Add(b uint64) { s[b>>6] |= 1 << (b & 63) }

// AddRange inserts every bin of the inclusive range [lo, hi].
func (s BinSet) AddRange(lo, hi uint64) {
	first, last := lo>>6, hi>>6
	loMask := ^uint64(0) << (lo & 63)
	hiMask := ^uint64(0) >> (63 - hi&63)
	if first == last {
		s[first] |= loMask & hiMask
		return
	}
	s[first] |= loMask
	for w := first + 1; w < last; w++ {
		s[w] = ^uint64(0)
	}
	s[last] |= hiMask
}

// Has reports whether b is in the set; numbers past its size are not.
func (s BinSet) Has(b uint64) bool {
	w := b >> 6
	return w < uint64(len(s)) && s[w]>>(b&63)&1 != 0
}

// Count returns the number of bins in the set.
func (s BinSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Each calls fn with every member in ascending order.
func (s BinSet) Each(fn func(b uint64)) {
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			fn(uint64(i)<<6 | uint64(bits.TrailingZeros64(w)))
		}
	}
}

// And returns the intersection of two sets of one dimension as a fresh set;
// neither input is modified.
func (s BinSet) And(o BinSet) BinSet {
	out := make(BinSet, len(s))
	for i, w := range s {
		out[i] = w & o[i]
	}
	return out
}

// reduce returns the set of bin prefixes b>>shift of the members.
func (s BinSet) reduce(shift uint) BinSet {
	if shift == 0 {
		return s
	}
	out := NewBinSet((len(s)*64-1)>>shift + 1)
	s.Each(func(b uint64) { out.Add(b >> shift) })
	return out
}
