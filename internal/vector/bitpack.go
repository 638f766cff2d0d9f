package vector

import "encoding/binary"

// Bit-packing primitives of the chunk encodings (chunk.go) and of storage's
// pushdown on dictionary codes: n values of bitw bits each, laid out
// LSB-first in a byte stream. bitw 0 is the degenerate all-zero stream (no
// bytes at all), which both frame-of-reference chunks with a single value and
// dictionary chunks over a one-entry dictionary produce.
//
// BitPack moves values a 64-bit word at a time. BitUnpack reads 8 values a
// step with a kernel whose width is a compile-time constant (unpack8): the 8
// values of index 8k on start at byte k·bitw, each at a fixed byte offset and
// shift of its own, so the loads are independent and need no loop over bits.

// BitPackLen returns the byte length of n packed values of bitw bits.
func BitPackLen(n int, bitw uint8) int {
	return (n*int(bitw) + 7) / 8
}

// BitPack writes the values of vals minus base (a frame of reference; 0 for
// dictionary codes), each truncated to bitw bits, as the packed stream dst,
// which must be BitPackLen(len(vals), bitw) bytes long. Values collect in a
// 64-bit word that is stored whole once full; the last one's bytes end the
// stream.
func BitPack[T int64 | uint64 | uint32](dst []byte, vals []T, bitw uint8, base T) {
	if bitw == 0 {
		return
	}
	w := uint(bitw)
	mask := ^uint64(0) >> (64 - w)
	var word uint64
	fill, at := uint(0), 0 // bits of word in use; where it is stored
	for _, x := range vals {
		v := uint64(x-base) & mask
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
// dictionary codes). At widths 0…32, a dst of 8 or more values is read one
// value at a time up to the next index that is a multiple of 8, then 8 at a
// time, the stream's last steps from a zero-padded copy; what is left, fewer
// than 8 values, and every value wider than 32 bits, is read one at a time.
func BitUnpack[T int64 | uint64 | uint32](dst []T, src []byte, start int, bitw uint8, base T) {
	w, i := int(bitw), 0
	if w <= 32 && len(dst) >= 8 {
		i = -start & 7
		unpackEach(dst[:i], src, start, w, base)
		i += unpackW(dst[i:], src[(start+i)/8*w:], w, base)
		if len(dst)-i >= 8 { // fewer than w+8 bytes of src are left: they fit a pad with a step's loads
			var pad [40]byte
			copy(pad[:], src[(start+i)/8*w:])
			i += unpackW(dst[i:], pad[:], w, base)
		}
	}
	unpackEach(dst[i:], src, start+i, w, base)
}

// unpackEach reads dst's values one at a time from index start of src, each
// from one 64-bit load (assembled byte by byte in the last 8 bytes of src)
// and a ninth byte where the value crosses it.
func unpackEach[T int64 | uint64 | uint32](dst []T, src []byte, start, w int, base T) {
	mask, bit := ^uint64(0)>>(64-w), uint(start*w)
	for i := range dst {
		idx, off := int(bit>>3), bit&7
		var v uint64
		if idx+8 <= len(src) {
			v = binary.LittleEndian.Uint64(src[idx:])
		} else {
			for k, b := range src[idx:] {
				v |= uint64(b) << (8 * k)
			}
		}
		if v >>= off; off+uint(w) > 64 {
			v |= uint64(src[idx+8]) << (64 - off)
		}
		dst[i], bit = T(v&mask)+base, bit+uint(w)
	}
}

// packedWidth is the type set of unpack8's width: [w]byte unpacks w bits.
type packedWidth interface {
	[0]byte | [1]byte | [2]byte | [3]byte | [4]byte | [5]byte | [6]byte | [7]byte | [8]byte | [9]byte | [10]byte |
		[11]byte | [12]byte | [13]byte | [14]byte | [15]byte | [16]byte | [17]byte | [18]byte | [19]byte | [20]byte | [21]byte |
		[22]byte | [23]byte | [24]byte | [25]byte | [26]byte | [27]byte | [28]byte | [29]byte | [30]byte | [31]byte | [32]byte
}

// unpackW unpacks dst's values 8 at a time from src, which starts at a value
// whose index is a multiple of 8, with the kernel of width w (0…32), and
// returns how many it unpacked. Each case names its width as a type, so each
// kernel is compiled for its own constant width.
func unpackW[T int64 | uint64 | uint32](dst []T, src []byte, w int, base T) int {
	switch w / 4 {
	case 0:
		return unpack4[[0]byte, [1]byte, [2]byte, [3]byte](dst, src, w, base)
	case 1:
		return unpack4[[4]byte, [5]byte, [6]byte, [7]byte](dst, src, w, base)
	case 2:
		return unpack4[[8]byte, [9]byte, [10]byte, [11]byte](dst, src, w, base)
	case 3:
		return unpack4[[12]byte, [13]byte, [14]byte, [15]byte](dst, src, w, base)
	case 4:
		return unpack4[[16]byte, [17]byte, [18]byte, [19]byte](dst, src, w, base)
	case 5:
		return unpack4[[20]byte, [21]byte, [22]byte, [23]byte](dst, src, w, base)
	case 6:
		return unpack4[[24]byte, [25]byte, [26]byte, [27]byte](dst, src, w, base)
	case 7:
		return unpack4[[28]byte, [29]byte, [30]byte, [31]byte](dst, src, w, base)
	}
	return unpack8[[32]byte](dst, src, base)
}

// unpack4 calls the kernel of A0, A1, A2 or A3 by w%4.
func unpack4[A0, A1, A2, A3 packedWidth, T int64 | uint64 | uint32](dst []T, src []byte, w int, base T) int {
	switch w % 4 {
	case 0:
		return unpack8[A0](dst, src, base)
	case 1:
		return unpack8[A1](dst, src, base)
	case 2:
		return unpack8[A2](dst, src, base)
	}
	return unpack8[A3](dst, src, base)
}

// unpack8 is the kernel of width w = len(A): each step unpacks 8 values from
// the next w bytes of src, value j from the 64-bit load at byte j·w/8
// shifted by j·w%8, while the step's last load fits in src.
func unpack8[A packedWidth, T int64 | uint64 | uint32](dst []T, src []byte, base T) int {
	le, w := binary.LittleEndian, uint(len(*new(A)))
	mask, n := uint64(1)<<w-1, 0
	for ; n+8 <= len(dst) && len(src) >= int(w)+8; n, src = n+8, src[w:] {
		d, g := dst[n:n+8], src[:w+8]
		d[0] = T(le.Uint64(g)&mask) + base
		d[1] = T(le.Uint64(g[w/8:])>>(w%8)&mask) + base
		d[2] = T(le.Uint64(g[2*w/8:])>>(2*w%8)&mask) + base
		d[3] = T(le.Uint64(g[3*w/8:])>>(3*w%8)&mask) + base
		d[4] = T(le.Uint64(g[4*w/8:])>>(4*w%8)&mask) + base
		d[5] = T(le.Uint64(g[5*w/8:])>>(5*w%8)&mask) + base
		d[6] = T(le.Uint64(g[6*w/8:])>>(6*w%8)&mask) + base
		d[7] = T(le.Uint64(g[7*w/8:])>>(7*w%8)&mask) + base
	}
	return n
}
