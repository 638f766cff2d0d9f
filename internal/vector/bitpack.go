package vector

import "encoding/binary"

// Bit-packing primitives of the chunk encodings (chunk.go) and of storage's
// pushdown on dictionary codes: n values of bitw bits each, laid out
// LSB-first in a byte stream. bitw 0 is the degenerate all-zero stream (no
// bytes at all), which both frame-of-reference chunks with a single value and
// dictionary chunks over a one-entry dictionary produce.
//
// BitPack and BitUnpack move values a 64-bit word at a time; the
// byte-at-a-time bitGet defines the layout and finishes the last few values
// of an unpacked stream, where a whole word no longer fits.

// BitPackLen returns the byte length of n packed values of bitw bits.
func BitPackLen(n int, bitw uint8) int {
	return (n*int(bitw) + 7) / 8
}

// BitPack writes the n values val(0), …, val(n-1), each truncated to bitw
// bits, as the packed stream dst, which must be BitPackLen(n, bitw) bytes
// long. Values collect in a 64-bit word that is stored whole once full; the
// last one's bytes end the stream.
func BitPack(dst []byte, n int, bitw uint8, val func(i int) uint64) {
	if bitw == 0 {
		return
	}
	w := uint(bitw)
	mask := ^uint64(0) >> (64 - w)
	var word uint64
	fill, at := uint(0), 0 // bits of word in use; where it is stored
	for i := 0; i < n; i++ {
		v := val(i) & mask
		if word |= v << fill; fill+w < 64 {
			fill += w
			continue
		}
		binary.LittleEndian.PutUint64(dst[at:], word)
		word, fill, at = v>>(64-fill), fill+w-64, at+8 // a shift by 64 is 0
	}
	for ; at < len(dst); at++ {
		dst[at], word = byte(word), word>>8
	}
}

// BitUnpack reads the len(dst) values at indexes start, start+1, … of the
// packed stream src into dst, each plus base (a frame of reference; 0 for
// dictionary codes). One 64-bit load serves every value that lies wholly
// inside it — dozens at the narrow widths dictionary codes have.
func BitUnpack[T int64 | uint64 | uint32](dst []T, src []byte, start int, bitw uint8, base T) {
	if bitw == 0 {
		for i := range dst {
			dst[i] = base
		}
		return
	}
	w := uint(bitw)
	mask := ^uint64(0) >> (64 - w)
	var whole [8]int // values lying wholly inside a word loaded at bit offset 0…7
	for off, n := 0, 64/int(w); off < len(whole); off++ {
		if n*int(w) > 64-off { // one division: n drops by at most 1 a bit
			n--
		}
		whole[off] = n
	}
	bit := uint(start) * w
	for i := 0; i < len(dst); {
		idx, off := int(bit>>3), bit&7
		if idx+8 > len(src) {
			dst[i] = T(bitGet(src, start+i, bitw)) + base
			i, bit = i+1, bit+w
			continue
		}
		v := binary.LittleEndian.Uint64(src[idx:]) >> off
		if off+w > 64 { // the value's top bits sit in a ninth byte
			dst[i] = T((v|uint64(src[idx+8])<<(64-off))&mask) + base
			i, bit = i+1, bit+w
			continue
		}
		run := dst[i:min(len(dst), i+whole[off])]
		for k := range run {
			run[k] = T(v&mask) + base
			v >>= w
		}
		i, bit = i+len(run), bit+uint(len(run))*w
	}
}

// bitGet reads the bitw-bit value at index i of the packed stream src.
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
