package vector

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestBitPackBulkMatchesPerValue is the bulk routines' property: for every
// bit width 0…64, every length 0…130 and a spread of non-zero start offsets,
// BitPack produces the very bytes bitPut produces value by value, and
// BitUnpack — into uint64 and int64 alike — reads back what bitGet reads,
// over the whole stream and over every sub-run [start, start+n).
func TestBitPackBulkMatchesPerValue(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for bitw := 0; bitw <= 64; bitw++ {
		w := uint8(bitw)
		for n := 0; n <= 130; n++ {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = rng.Uint64() // wider than bitw on purpose: packing truncates
			}
			want := make([]byte, BitPackLen(n, w))
			for i, v := range vals {
				bitPut(want, i, w, v)
			}
			got := make([]byte, len(want))
			BitPack(got, n, w, func(i int) uint64 { return vals[i] })
			if !bytes.Equal(got, want) {
				t.Fatalf("bitw=%d n=%d: BitPack differs from bitPut", bitw, n)
			}
			for _, start := range []int{0, 1, 3, 7, 8, 63, 64, n / 2, n} {
				if start > n {
					continue
				}
				u := make([]uint64, n-start)
				s := make([]int64, n-start)
				base := int64(start)*1_000_003 - 77 // a frame of reference, added modulo 2^64
				BitUnpack(u, want, start, w, 0)
				BitUnpack(s, want, start, w, base)
				for i := range u {
					if ref := bitGet(want, start+i, w); u[i] != ref || uint64(s[i]-base) != ref {
						t.Fatalf("bitw=%d n=%d start=%d: value %d = %d / %d, bitGet reads %d", bitw, n, start, i, u[i], s[i], ref)
					}
				}
			}
		}
	}
}

// bitPut writes value v (truncated to bitw bits) at index i of the packed
// stream dst, whose target bits must be zero: the layout, value by value.
func bitPut(dst []byte, i int, bitw uint8, v uint64) {
	bit := i * int(bitw)
	for put := 0; put < int(bitw); {
		idx := (bit + put) / 8
		off := (bit + put) % 8
		take := 8 - off
		if rem := int(bitw) - put; take > rem {
			take = rem
		}
		dst[idx] |= byte(v>>put&(uint64(1)<<take-1)) << off
		put += take
	}
}
