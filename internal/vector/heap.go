package vector

import "unsafe"

// Heap is a sequence of strings as one byte heap and n+1 offsets: value i is
// Bytes[Offs[i]:Offs[i+1]]. It holds no pointer per value, so the collector
// never walks the values, and At hands them out as views, not copies. Views
// are sound because a heap's bytes below its length are never written again
// and no buffer views were taken from is reused; appending past the length
// is allowed. Offsets are uint32: a heap holds at most 4 GiB.
type Heap struct {
	Bytes []byte
	Offs  []uint32
}

// MakeHeap returns an empty heap with room for n values of bytes in total.
func MakeHeap(n, bytes int) Heap {
	return Heap{Bytes: make([]byte, 0, bytes), Offs: append(make([]uint32, 0, n+1), 0)}
}

// HeapOf returns a heap holding a copy of vals.
func HeapOf(vals []string) Heap {
	h := MakeHeap(len(vals), 0)
	for _, s := range vals {
		h.Append(s)
	}
	return h
}

// Len returns the number of values.
func (h Heap) Len() int { return max(len(h.Offs)-1, 0) }

// Size returns the summed length of the values.
func (h Heap) Size() int {
	if len(h.Offs) == 0 {
		return 0
	}
	return int(h.Offs[len(h.Offs)-1] - h.Offs[0])
}

// At returns value i as a view of the heap's bytes.
func (h Heap) At(i int) string { return view(h.Bytes[h.Offs[i]:h.Offs[i+1]]) }

// Views sets dst[i] to value lo+i, as At would.
func (h Heap) Views(dst []string, lo int) {
	offs, b := h.Offs[lo:lo+len(dst)+1], h.Bytes
	for i := range dst {
		dst[i] = view(b[offs[i]:offs[i+1]])
	}
}

// view returns b as a string without copying it: the one place the tree
// makes a string over bytes it does not own.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// Window returns values [lo,hi) over the same bytes.
func (h Heap) Window(lo, hi int) Heap { return Heap{h.Bytes, h.Offs[lo : hi+1]} }

// End closes the value whose bytes were appended to h.Bytes since the last
// one ended, so a value can be formatted straight into the heap.
func (h *Heap) End() {
	if len(h.Offs) == 0 {
		h.Offs = append(h.Offs, 0)
	}
	h.Offs = append(h.Offs, uint32(len(h.Bytes)))
}

// Append appends s.
func (h *Heap) Append(s string) {
	h.Bytes = append(h.Bytes, s...)
	h.End()
}

// AppendRange appends values [lo,hi) of src: their bytes as one block, their
// offsets rebased.
func (h *Heap) AppendRange(src Heap, lo, hi int) {
	if len(h.Offs) == 0 {
		h.Offs = append(h.Offs, uint32(len(h.Bytes)))
	}
	base := uint32(len(h.Bytes)) - src.Offs[lo] // modular: each sum below is in range
	h.Bytes = append(h.Bytes, src.Bytes[src.Offs[lo]:src.Offs[hi]]...)
	n := len(h.Offs)
	h.Offs = append(h.Offs, src.Offs[lo+1:hi+1]...)
	for i := n; i < len(h.Offs); i++ {
		h.Offs[i] += base
	}
}
