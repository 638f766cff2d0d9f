package core

import (
	"fmt"
	"math/bits"
	"strconv"
)

// Bit-position convention: a _bdcc_ key clustered on b bits occupies the b
// least significant bits of a uint64; "position 0" is the most significant
// of those b bits (the paper's leftmost mask digit). A mask with bit
// (b-1-pos) set places a dimension bit at position pos.

// Ones returns ones(M), the number of set bits of a mask.
func Ones(m uint64) int { return bits.OnesCount64(m) }

// MaskString renders a mask the way the paper's tables do: as a binary
// numeral without leading zeros (so the mask of the use owning position 0
// has exactly b digits, the next one b-1, and so on).
func MaskString(m uint64) string { return strconv.FormatUint(m, 2) }

// RoundRobinMasks implements the bit-assignment step of Algorithm 1 (i) with
// the interleaving that reproduces the paper's Section IV masks: positions
// are assigned one at a time, major to minor, cycling over the dimension
// uses in their given order; a use drops out of the rotation once the full
// granularity of its dimension (bitsPerUse) is consumed. Assignment stops
// when every use exhausted its granularity, so the number of set bits across
// all masks is maximal: B = Σ bitsPerUse.
//
// It returns one mask per use, at full granularity B, and B itself.
func RoundRobinMasks(bitsPerUse []int) ([]uint64, int) {
	total := 0
	for _, b := range bitsPerUse {
		total += b
	}
	masks := make([]uint64, len(bitsPerUse))
	remaining := append([]int(nil), bitsPerUse...)
	pos := 0
	for pos < total {
		for i := range remaining {
			if remaining[i] == 0 {
				continue
			}
			masks[i] |= 1 << uint(total-1-pos)
			remaining[i]--
			pos++
		}
	}
	return masks, total
}

// MajorMinorMasks assigns all bits of each use consecutively, in use order
// (use 0 is the major dimension). This is the classical MDAM-style ordering
// the paper compares against in its "Other Orderings" experiment.
func MajorMinorMasks(bitsPerUse []int) ([]uint64, int) {
	total := 0
	for _, b := range bitsPerUse {
		total += b
	}
	masks := make([]uint64, len(bitsPerUse))
	pos := 0
	for i, n := range bitsPerUse {
		for j := 0; j < n; j++ {
			masks[i] |= 1 << uint(total-1-pos)
			pos++
		}
	}
	return masks, total
}

// TruncateMasks reduces masks from granularity fullBits to the top b bits
// (Definition 1 (vii) applied to the interleaved key): positions ≥ b are
// dropped, positions < b are kept. The returned masks are b bits wide.
func TruncateMasks(masks []uint64, fullBits, b int) []uint64 {
	out := make([]uint64, len(masks))
	shift := uint(fullBits - b)
	for i, m := range masks {
		out[i] = m >> shift
	}
	return out
}

// ValidateMasks checks the Definition 4 constraints: all b bits covered,
// no two masks overlapping.
func ValidateMasks(masks []uint64, b int) error {
	var union uint64
	for i, m := range masks {
		if m&^((1<<uint(b))-1) != 0 {
			return fmt.Errorf("core: mask %d (%s) exceeds %d bits", i, MaskString(m), b)
		}
		if union&m != 0 {
			return fmt.Errorf("core: mask %d (%s) overlaps earlier masks", i, MaskString(m))
		}
		union |= m
	}
	if b < 64 && union != (1<<uint(b))-1 {
		return fmt.Errorf("core: masks cover %s, want all %d bits", MaskString(union), b)
	}
	return nil
}

// ScatterBits places the top ones(mask) bits of bin (a bin number of width
// dimBits) at the mask's positions within a b-bit key: the most significant
// mask position receives the most significant used bin bit (Definition 4:
// "map the major ones(M(Uᵢ)) bits of nᵢ to _bdcc_ according to mask M(Uᵢ)").
// It is a software PDEP: one step per mask bit, depositing the reduced bin's
// bits from the low end into the mask's set bits from the low end. A mask
// bit at or above b takes a bin bit but is not placed.
func ScatterBits(bin uint64, dimBits int, mask uint64, b int) uint64 {
	n := Ones(mask)
	if dimBits > n {
		bin >>= uint(dimBits - n)
	}
	mask &= 1<<uint(b) - 1
	bin >>= uint(n - Ones(mask))
	var key uint64
	for m := mask; m != 0; m &= m - 1 {
		key |= m & -m & -(bin & 1)
		bin >>= 1
	}
	return key
}

// GatherBits extracts the bits of key at the mask's positions within b bits,
// returning an integer of width ones(mask) — the inverse of ScatterBits on
// the reduced bin number. It is ScatterBits' mirror, a software PEXT.
func GatherBits(key uint64, mask uint64, b int) uint64 {
	var out uint64
	k := uint(0)
	for m := mask & (1<<uint(b) - 1); m != 0; m &= m - 1 {
		out |= (key >> uint(bits.TrailingZeros64(m)) & 1) << k
		k++
	}
	return out
}

// EncodeKey composes the full _bdcc_ key of one tuple from its per-use bin
// numbers (Definition 4). masks must be at granularity b.
func EncodeKey(binNos []uint64, dimBits []int, masks []uint64, b int) uint64 {
	var key uint64
	for i, bin := range binNos {
		key |= ScatterBits(bin, dimBits[i], masks[i], b)
	}
	return key
}
