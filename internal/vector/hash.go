package vector

import "math"

// hashInit seeds every row hash so that a key's hash differs from the raw
// mixed value of its first column (and so that zero-column keys do not hash
// to zero).
const hashInit uint64 = 0x9E3779B97F4A7C15

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters used for string
// data; the result is finalized through Mix64.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Mix64 is the SplitMix64 finalizer: a cheap full-avalanche bijection on 64
// bits. It is the mixing step of all key hashing in the engine.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// HashString hashes the bytes of s (FNV-1a, finalized with Mix64).
func HashString(s string) uint64 {
	h := fnvOffset
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return Mix64(h)
}

// normFloatBits returns the IEEE-754 bits of f with negative zero
// normalized to positive zero, so that -0.0 and +0.0 hash (and compare)
// identically as grouping keys.
func normFloatBits(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	return math.Float64bits(f)
}

// FloatKeyBits exposes the normalized key bits of f for callers that encode
// or compare float keys outside the batch hash path.
func FloatKeyBits(f float64) uint64 { return normFloatBits(f) }

// HashKeys hashes the selected key columns of b row-wise into dst, reusing
// dst's capacity, and returns the (re)sized slice of b.Len() hashes. The
// work runs column-at-a-time: one type dispatch per key column per batch.
// A single Int64 key column takes a fused fast path; multi-column keys fold
// each column into the running row hash with an order-sensitive combine.
func HashKeys(b *Batch, cols []int, dst []uint64) []uint64 {
	n := b.Len()
	if cap(dst) < n {
		dst = make([]uint64, n)
	} else {
		dst = dst[:n]
	}
	if len(cols) == 1 && b.Cols[cols[0]].Kind == Int64 {
		for i, v := range b.Cols[cols[0]].I64 {
			dst[i] = HashInt64(v)
		}
		return dst
	}
	for i := range dst {
		dst[i] = hashInit
	}
	for _, c := range cols {
		col := b.Cols[c]
		switch col.Kind {
		case Int64:
			for i, v := range col.I64 {
				dst[i] = Mix64(dst[i] ^ uint64(v))
			}
		case Float64:
			for i, f := range col.F64 {
				dst[i] = Mix64(dst[i] ^ normFloatBits(f))
			}
		case String:
			for i, s := range col.Str {
				dst[i] = Mix64(dst[i] ^ HashString(s))
			}
		}
	}
	return dst
}

// HashInt64 is the hash HashKeys gives a single-column Int64 key of value x.
func HashInt64(x int64) uint64 { return Mix64(hashInit ^ uint64(x)) }

// HashValue hashes value r of v, consistently with HashKeys over the
// single-column key [r].
func (v *Vector) HashValue(r int) uint64 {
	switch v.Kind {
	case Int64:
		return HashInt64(v.I64[r])
	case Float64:
		return Mix64(hashInit ^ normFloatBits(v.F64[r]))
	case String:
		return Mix64(hashInit ^ HashString(v.Str[r]))
	}
	return 0
}
