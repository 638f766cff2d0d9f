package vector

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"bdcc/internal/wire"
)

// This file is the batch wire codec: the byte form in which batches cross a
// transport boundary (group units to workers, result batches back, results to
// daemon clients). A batch column is one chunk — the chunk a stored column of
// the same values with a single chunk would hold, picked by the same
// modeled-cost race (chunk.go) and written by the same code (chunkwire.go) —
// so the encoding is exact: a decoded batch reproduces the original bit for
// bit, which is what keeps sharded query results byte-identical to
// single-box runs. The batch adds only an envelope (little endian):
//
//	u8  grouped (0/1)
//	u64 group id
//	u16 column count
//	u32 body length, u32 heap length
//	body: per column u8 kind, uvarint rows n, and when n > 0:
//	      a string column's dictionary (uvarint size, entries; size 0 unless
//	      the chunk is dictionary-encoded), then the chunk of n rows
//	heap: the bytes of every string of the body, in order
const batchHeaderLen = 1 + 8 + 2 + 4 + 4

// maxWireRows bounds the per-column row count a decoder will materialize.
// Legitimate batches never exceed BatchSize rows, but the run-length forms
// let a corrupt or hostile frame declare billions of rows in a handful of
// bytes — the limit turns that into an error instead of an allocation.
const maxWireRows = 1 << 22

// encodeScratch is what one Encode works in: the heap its strings collect in
// until the body is complete, the heap a string column is staged in (a stored
// column's form, for the one string encoder), the chunk its columns are
// encoded through, and the dictionary scratch of its string columns — whose
// map is most of what an encode would otherwise allocate. Encode's signature
// has no room for scratch the caller owns, so it is pooled. The staging heap
// is rewritten after views of it were taken, but none leaves Encode.
type encodeScratch struct {
	heap []byte
	strs Heap
	ch   Chunk
	dict StrDict
}

var encodeScratches = sync.Pool{New: func() any { return new(encodeScratch) }}

// Encode appends the wire encoding of b to buf and returns the extended
// slice. A nil buf allocates.
func (b *Batch) Encode(buf []byte) []byte {
	start := len(buf)
	grouped := byte(0)
	if b.Grouped {
		grouped = 1
	}
	buf = binary.LittleEndian.AppendUint64(append(buf, grouped), b.GroupID)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(b.Cols)))
	sc := encodeScratches.Get().(*encodeScratch)
	defer encodeScratches.Put(sc)
	ch, dict := &sc.ch, &sc.dict
	w := ChunkWriter{Body: append(buf, make([]byte, 8)...), Heap: sc.heap[:0]} // the lengths, known at the end
	for _, c := range b.Cols {
		w.Body = append(w.Body, byte(c.Kind))
		w.Uvar(uint64(c.Len()))
		if c.Len() == 0 {
			continue
		}
		switch c.Kind {
		case Int64:
			ch.EncodeI64(c.I64)
		case Float64:
			ch.EncodeF64(c.F64)
		case String:
			sc.strs = Heap{Bytes: sc.strs.Bytes[:0], Offs: sc.strs.Offs[:0]}
			for _, s := range c.Str {
				sc.strs.Append(s)
			}
			entries, codes, bitw, _ := dict.ColumnDict(sc.strs)
			if ch.EncodeStr(sc.strs, codes, bitw); ch.Enc != EncDict {
				entries = nil
			}
			w.Dict(entries)
		}
		w.Chunk(c.Kind, ch)
	}
	sc.heap = w.Heap
	lens := w.Body[start+batchHeaderLen-8:]
	binary.LittleEndian.PutUint32(lens, uint32(len(w.Body)-start-batchHeaderLen))
	binary.LittleEndian.PutUint32(lens[4:], uint32(len(w.Heap)))
	return append(w.Body, w.Heap...)
}

// uvarLen is the byte length of x as a uvarint.
func uvarLen(x int) int { return (bits.Len64(uint64(x)|1) + 6) / 7 }

// RawWireSize returns the size Encode would produce with every column a raw
// chunk — the baseline the transport's saved-bytes counter is measured
// against. A raw string chunk's two bounds depend on the values' order, not
// their size, and are counted empty.
func (b *Batch) RawWireSize() int {
	sz := batchHeaderLen
	for _, c := range b.Cols {
		n := c.Len()
		sz += 1 + uvarLen(n)
		if n == 0 {
			continue
		}
		modeled, payload, bounds := 8*n, 8*n, 16
		if c.Kind == String {
			modeled, payload, bounds = 0, 1, 2 // the empty dictionary's size leads
			for _, s := range c.Str {
				modeled += len(s)
				payload += uvarLen(len(s)) + len(s)
			}
		}
		sz += 1 + uvarLen(n) + uvarLen(modeled) + bounds + payload
	}
	return sz
}

// DecodeBatch decodes one batch from the front of data, returning the batch
// and the number of bytes consumed. The decoded batch owns its memory: numbers
// are decoded into arrays of their own and strings are views of one copy of
// the heap. Every length and count is checked against the bytes left
// before it sizes an allocation, the chunk reader checks everything a chunk
// is indexed by, and every column must hold as many rows as the first, so a
// garbage frame errors instead of panicking or over-allocating — here or in
// whatever indexes the batch by its Len.
func DecodeBatch(data []byte) (*Batch, int, error) {
	env := wire.NewReader(data)
	b := &Batch{Grouped: env.U8() != 0, GroupID: env.U64()}
	ncols, bodyLen, heapLen := env.U16(), env.U32(), env.U32()
	body := env.Take(int(bodyLen))
	r := NewChunkReader(body, bytes.Clone(env.Take(int(heapLen))))
	if err := env.Err(); err != nil {
		return nil, 0, fmt.Errorf("vector: batch envelope: %w", err)
	}
	b.Cols = make([]*Vector, r.Count("columns", uint32(ncols), 2))
	rows := 0
	for i := range b.Cols {
		v := &Vector{Kind: Kind(r.U8())}
		if v.Kind > String {
			r.Fail("unknown column kind %d", v.Kind)
		}
		n := r.Uvarint("column rows", maxWireRows)
		if i == 0 {
			rows = n
		} else if n != rows {
			r.Fail("column %d has %d rows, column 0 has %d", i, n, rows)
		}
		if n > 0 {
			var dict []string
			if v.Kind == String {
				dict, _, _ = r.Dict()
			}
			ch := r.Chunk(v.Kind, n, dict)
			if r.Err() == nil && ch.Rows != n {
				r.Fail("chunk of %d rows in a column of %d", ch.Rows, n)
			}
			if r.Err() != nil {
				break
			}
			if ch.Enc == EncRaw && v.Kind != String { // decoded into arrays nothing else holds
				v.I64, v.F64 = ch.ValI, ch.ValF
			} else {
				ch.AppendRange(dict, 0, n, v)
			}
		}
		b.Cols[i] = v
	}
	if r.Err() == nil && r.HeapLeft() != 0 {
		r.Fail("%d heap bytes unclaimed", r.HeapLeft())
	}
	if err := r.Close(); err != nil {
		return nil, 0, fmt.Errorf("vector: batch encoding: %w", err)
	}
	return b, len(data) - env.Len(), nil
}
