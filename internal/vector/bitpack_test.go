package vector

import (
	"bytes"
	"fmt"
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
			BitPack(got, vals, w, 0)
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

// bitGet reads the bitw-bit value at index i of the packed stream src: the
// layout, value by value.
func bitGet(src []byte, i int, bitw uint8) uint64 {
	bit := i * int(bitw)
	var v uint64
	for got := 0; got < int(bitw); {
		idx := (bit + got) / 8
		off := (bit + got) % 8
		take := min(8-off, int(bitw)-got)
		v |= uint64(src[idx]>>off&byte(1<<take-1)) << got
		got += take
	}
	return v
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

// FuzzBitUnpack holds BitUnpack to bitGet, value by value: a stream of n
// values of width bitw (0…64, taken modulo 65) drawn from seed, read from
// index start (modulo n+1) to back values before the stream's end (modulo
// what is left), into uint64, into int64 plus base and, at widths up to 32,
// into uint32. back 0 reads to the end of the stream, past the point where
// the kernel's loads stop fitting.
func FuzzBitUnpack(f *testing.F) {
	for _, w := range []uint8{0, 1, 3, 8, 13, 17, 31, 32, 33, 59, 64} {
		f.Add(w, uint16(4000), uint16(3), uint16(0), int64(-77), uint64(w))
		f.Add(w, uint16(1027), uint16(8), uint16(5), int64(1)<<62, uint64(w)+1)
	}
	f.Fuzz(func(t *testing.T, bitw uint8, n, start, back uint16, base int64, seed uint64) {
		w, lo := bitw%65, int(start)%(int(n)+1)
		hi := int(n) - int(back)%(int(n)-lo+1)
		rng := rand.New(rand.NewSource(int64(seed)))
		src := make([]byte, BitPackLen(int(n), w))
		for i := range int(n) {
			bitPut(src, i, w, rng.Uint64())
		}
		u, s, c := make([]uint64, hi-lo), make([]int64, hi-lo), make([]uint32, hi-lo)
		BitUnpack(u, src, lo, w, 0)
		BitUnpack(s, src, lo, w, base)
		if w <= 32 {
			BitUnpack(c, src, lo, w, 0)
		}
		for i := range u {
			ref := bitGet(src, lo+i, w)
			if u[i] != ref || uint64(s[i]-base) != ref || w <= 32 && uint64(c[i]) != ref {
				t.Fatalf("bitw=%d n=%d [%d,%d): value %d = %d / %d / %d, bitGet reads %d", w, n, lo, hi, lo+i, u[i], s[i], c[i], ref)
			}
		}
	})
}

// BenchmarkBitUnpack times BitUnpack at every width 1…32 from an aligned
// (0) and an unaligned (3) start, unpacking 1 024 values through 256-value
// blocks into int64 with a base (a FOR chunk) and into uint64 (dictionary
// codes), as Chunk.AppendRange does. It reports ns a value.
func BenchmarkBitUnpack(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(32))
	for bitw := uint8(1); bitw <= 32; bitw++ {
		src := make([]byte, BitPackLen(n+3, bitw))
		vals := make([]uint64, n+3)
		for i := range vals {
			vals[i] = rng.Uint64()
		}
		BitPack(src, vals, bitw, 0)
		for _, start := range []int{0, 3} {
			b.Run(fmt.Sprintf("w=%02d/start=%d/int64", bitw, start), func(b *testing.B) {
				benchUnpack(b, src, start, bitw, int64(-5))
			})
			b.Run(fmt.Sprintf("w=%02d/start=%d/uint64", bitw, start), func(b *testing.B) {
				benchUnpack(b, src, start, bitw, uint64(0))
			})
		}
	}
}

func benchUnpack[T int64 | uint64](b *testing.B, src []byte, start int, bitw uint8, base T) {
	var blk [256]T
	for range b.N {
		for at := 0; at < 1024; at += len(blk) {
			BitUnpack(blk[:], src, start+at, bitw, base)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1024, "ns/value")
}
