package vector

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"bdcc/internal/wire"
)

// This file is the byte form of a chunk — the one form column values have
// outside memory, whether the chunk is part of a stored column's frame
// (internal/storage) or a batch column on the wire (codec.go). Fixed-width
// fields, counts and string lengths go to a body; every string's bytes go to
// a heap, in the same order, so a reader copies the heap once and hands out
// views of the copy: a raw string chunk is a window of it. docs/WIRE.md
// ("Partition data") has the layout and the list of checks.

// ChunkWriter appends byte forms to a body and its heap, which the caller
// frames.
type ChunkWriter struct {
	Body, Heap []byte
}

// Uvar appends a uvarint to the body.
func (w *ChunkWriter) Uvar(x uint64) { w.Body = binary.AppendUvarint(w.Body, x) }

func (w *ChunkWriter) u64(x uint64) { w.Body = binary.LittleEndian.AppendUint64(w.Body, x) }

// Vals writes the values of whichever slice matches kind: numbers as 8
// little-endian bytes (floats by bit pattern), strings as a uvarint length in
// the body and their bytes in the heap.
func (w *ChunkWriter) Vals(kind Kind, i64 []int64, f64 []float64, str []string) {
	off := len(w.Body)
	switch kind {
	case Int64:
		w.Body = slices.Grow(w.Body, 8*len(i64))[:off+8*len(i64)]
		for i, x := range i64 {
			binary.LittleEndian.PutUint64(w.Body[off+8*i:], uint64(x))
		}
	case Float64:
		w.Body = slices.Grow(w.Body, 8*len(f64))[:off+8*len(f64)]
		for i, x := range f64 {
			binary.LittleEndian.PutUint64(w.Body[off+8*i:], math.Float64bits(x))
		}
	case String:
		bytes := 0
		for _, s := range str {
			bytes += len(s)
		}
		w.Body, w.Heap = slices.Grow(w.Body, len(str)), slices.Grow(w.Heap, bytes)
		for _, s := range str {
			w.Uvar(uint64(len(s)))
			w.Heap = append(w.Heap, s...)
		}
	}
}

// Strs writes the values of a heap: lengths in the body, the bytes as one
// block in the heap.
func (w *ChunkWriter) Strs(h Heap) {
	n := h.Len()
	w.Body = slices.Grow(w.Body, n)
	for i := range n {
		w.Uvar(uint64(h.Offs[i+1] - h.Offs[i]))
	}
	w.Heap = append(w.Heap, h.Bytes[h.Offs[0]:h.Offs[n]]...)
}

// Dict writes a column's dictionary: its size, then the entries.
func (w *ChunkWriter) Dict(dict []string) {
	w.Uvar(uint64(len(dict)))
	w.Vals(String, nil, nil, dict)
}

// Chunk writes one chunk of a column of the given kind.
func (w *ChunkWriter) Chunk(kind Kind, ch *Chunk) {
	w.Body = append(w.Body, byte(ch.Enc))
	w.Uvar(uint64(ch.Rows))
	w.Uvar(uint64(ch.Bytes))
	w.Vals(kind, []int64{ch.MinI, ch.MaxI}, []float64{ch.MinF, ch.MaxF}, []string{ch.MinS, ch.MaxS})
	switch ch.Enc {
	case EncRaw:
		if kind == String {
			w.Strs(ch.ValS)
		} else {
			w.Vals(kind, ch.ValI, ch.ValF, nil)
		}
	case EncRLE:
		w.Uvar(uint64(len(ch.RunN)))
		for _, n := range ch.RunN {
			w.Uvar(uint64(n))
		}
		w.Vals(kind, ch.RunI, nil, ch.RunS)
		for _, b := range ch.RunF {
			w.u64(b)
		}
	case EncFOR:
		w.u64(uint64(ch.Base))
		w.Body = append(append(w.Body, ch.BitW), ch.Packed...)
	case EncDict:
		w.Body = append(append(w.Body, ch.BitW), ch.Packed...)
	}
}

// ChunkReader walks a body the way ChunkWriter wrote it, through the
// bounds-checked wire.Reader: the first failure sticks, and callers check Err
// where a count they read is about to size an allocation or a loop, and once
// at the end.
type ChunkReader struct {
	wire.Reader
	heap    []byte
	heapPos int
}

// NewChunkReader reads body against heap, which the strings read become views
// of: the caller hands over a copy that nothing writes again.
func NewChunkReader(body, heap []byte) *ChunkReader {
	return &ChunkReader{Reader: wire.NewReader(body), heap: heap}
}

// HeapLeft returns the heap bytes no string has claimed; a well-formed body
// leaves none.
func (r *ChunkReader) HeapLeft() int { return len(r.heap) - r.heapPos }

// heapStr returns the next string: its length from the body, its bytes from
// the heap.
func (r *ChunkReader) heapStr() string {
	n := r.Uvarint("string length", r.HeapLeft())
	r.heapPos += n
	return view(r.heap[r.heapPos-n : r.heapPos])
}

// Strs reads n strings as a window of the heap. The offsets come from lengths
// checked against the heap bytes left, so they ascend inside the heap.
func (r *ChunkReader) Strs(n int) Heap {
	if n > r.Len() {
		r.Fail("%d strings cannot fit in %d body bytes", n, r.Len())
		n = 0
	}
	h := Heap{Bytes: r.heap, Offs: make([]uint32, n+1)}
	h.Offs[0] = uint32(r.heapPos)
	for i := 1; i <= n; i++ {
		r.heapPos += r.Uvarint("string length", r.HeapLeft())
		h.Offs[i] = uint32(r.heapPos)
	}
	return h
}

// Vals reads n values of kind into the slice that matches it.
func (r *ChunkReader) Vals(kind Kind, n int) (i64 []int64, f64 []float64, str []string) {
	if kind == String {
		h := r.Strs(n)
		str = make([]string, h.Len())
		h.Views(str, 0)
		return
	}
	b := r.Take(8 * n)
	if b == nil {
		return
	}
	if kind == Int64 {
		i64 = make([]int64, n)
		for i := range i64 {
			i64[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
	} else {
		f64 = make([]float64, n)
		for i := range f64 {
			f64[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	return
}

// Dict reads a column's dictionary, which must ascend strictly — range
// predicates compare codes — and returns it with the bit width of its codes
// and its modeled size.
func (r *ChunkReader) Dict() (dict []string, bitw uint8, dictBytes int64) {
	_, _, dict = r.Vals(String, r.Uvarint("dictionary size", MaxDictEntries))
	for i, s := range dict {
		if i > 0 && dict[i-1] >= s {
			r.Fail("dictionary entry %d out of order", i)
		}
		dictBytes += 4 + int64(len(s))
	}
	return dict, uint8(bits.Len(uint(max(len(dict), 1) - 1))), dictBytes
}

// Chunk reads one chunk of at most maxRows rows. Everything a reader of the
// chunk will index by is checked here: the chunk is not empty, run lengths
// are positive and sum to the rows, packed payloads have the length their
// width implies, dictionary codes stay inside dict. Packed payloads are
// windows of the body, not copies.
func (r *ChunkReader) Chunk(kind Kind, maxRows int, dict []string) Chunk {
	ch := Chunk{Enc: Encoding(r.U8())}
	ch.Rows = r.Uvarint("chunk rows", maxRows)
	ch.Bytes = int64(r.Uvarint("chunk bytes", math.MaxInt))
	if r.Err() == nil && ch.Rows == 0 {
		r.Fail("empty chunk")
	}
	switch kind {
	case Int64:
		ch.MinI, ch.MaxI = int64(r.U64()), int64(r.U64())
	case Float64:
		ch.MinF, ch.MaxF = math.Float64frombits(r.U64()), math.Float64frombits(r.U64())
	case String:
		ch.MinS, ch.MaxS = r.heapStr(), r.heapStr()
	}
	switch {
	case ch.Enc == EncRaw && kind == String:
		ch.ValS = r.Strs(ch.Rows)
	case ch.Enc == EncRaw:
		ch.ValI, ch.ValF, _ = r.Vals(kind, ch.Rows)
	case ch.Enc == EncRLE:
		ch.RunN = make([]int32, r.Uvarint("run count", r.Len()))
		left := ch.Rows
		for i := range ch.RunN {
			n := r.Uvarint("run length", left)
			if n == 0 {
				break
			}
			ch.RunN[i], left = int32(n), left-n
		}
		if r.Err() == nil && (left != 0 || len(ch.RunN) == 0 || ch.RunN[len(ch.RunN)-1] == 0) {
			r.Fail("run lengths do not tile the chunk's %d rows", ch.Rows)
		}
		if kind != Float64 {
			ch.RunI, _, ch.RunS = r.Vals(kind, len(ch.RunN))
		} else if b := r.Take(8 * len(ch.RunN)); b != nil {
			ch.RunF = make([]uint64, len(ch.RunN)) // bit patterns, never through a float
			for i := range ch.RunF {
				ch.RunF[i] = binary.LittleEndian.Uint64(b[8*i:])
			}
		}
	case ch.Enc == EncFOR && kind == Int64, ch.Enc == EncDict && kind == String && len(dict) > 0:
		width := uint8(64) // at most, for deltas; exactly the dictionary's, for codes
		if ch.Enc == EncFOR {
			ch.Base = int64(r.U64())
		} else {
			width = uint8(bits.Len(uint(len(dict) - 1)))
		}
		if ch.BitW = r.U8(); ch.BitW > width || (ch.Enc == EncDict && ch.BitW != width) {
			r.Fail("%s chunk %d bits wide", ch.Enc, ch.BitW)
			break
		}
		ch.Packed = r.Take(BitPackLen(ch.Rows, ch.BitW))
		if ch.Enc == EncFOR || len(dict) == 1<<ch.BitW || r.Err() != nil {
			break // every bit pattern is a valid delta, or a valid code
		}
		var blk [256]uint64
		for base := 0; base < ch.Rows; base += len(blk) {
			codes := blk[:min(len(blk), ch.Rows-base)]
			BitUnpack(codes, ch.Packed, base, ch.BitW)
			if slices.Max(codes) >= uint64(len(dict)) {
				r.Fail("dictionary code %d of %d entries", slices.Max(codes), len(dict))
				break
			}
		}
	default:
		r.Fail("%s chunk in a %s column", ch.Enc, kind)
	}
	return ch
}
