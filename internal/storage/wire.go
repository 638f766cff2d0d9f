package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"bdcc/internal/vector"
)

// This file is the byte form of a stored column: the encoded chunks as they
// sit in memory, written out in checksummed frames of whole chunks
// (Table.Frames), and a TableAdopter that turns verified frames back into a
// table without re-encoding anything — the receiver gets the sender's chunks,
// so widths, page counts and zonemaps are the sender's. docs/WIRE.md
// ("Partition data") has the byte layout and the list of checks; in short:
//
//	magic "BDC1" | u8 kind | u8 flags | body | heap | u32 heap length |
//	CRC-32 (IEEE) of everything after the magic
//
// The body holds a column header (first frame only) and chunks; an
// uncompressed column is the degenerate case, written as raw chunks and
// flattened back into plain arrays on adoption. Every string is a uvarint
// length in the body and its bytes in the heap, in the same order, so the
// decoder copies the heap once and its raw chunks are windows of the copy.

var columnFrameMagic = [4]byte{'B', 'D', 'C', '1'}

const (
	frameEncoded = 1 << 0 // the column has a chunk encoding; clear: raw chunks of a plain column
	frameFirst   = 1 << 1 // the column's first frame: ChunkRows, RawBytes and the dictionary lead

	frameOverhead = len(columnFrameMagic) + 2 + 4 + 4 // magic, kind, flags, heap length, checksum
	plainSpanRows = 4096                              // rows per raw chunk a plain column is written as
)

// frameWriter builds one frame: the body and heap of vector's chunk writer,
// between a frame's opening and its seal.
type frameWriter struct {
	vector.ChunkWriter
}

func (w *frameWriter) begin(kind vector.Kind, flags byte) {
	w.Body = append(append(w.Body[:0], columnFrameMagic[:]...), byte(kind), flags)
	w.Heap = w.Heap[:0]
}

// finish returns the completed frame in a buffer of its own.
func (w *frameWriter) finish() []byte {
	out := make([]byte, 0, len(w.Body)+len(w.Heap)+8)
	out = append(append(out, w.Body...), w.Heap...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(w.Heap)))
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out[len(columnFrameMagic):]))
}

// Frames serialises the table column by column: every column contributes at
// least one frame, and a frame is closed once it reaches about frameBytes (it
// holds whole chunks, so it may overshoot by one). A TableAdopter fed the
// frames in order rebuilds the table.
func (t *Table) Frames(frameBytes int) [][]byte {
	var out [][]byte
	var w frameWriter
	for _, c := range t.Cols {
		e, flags := c.Enc, byte(frameEncoded)
		if e == nil {
			e, flags = &ColumnEncoding{ChunkRows: plainSpanRows}, 0
			for lo, n := 0, c.Len(); lo < n; lo += plainSpanRows {
				ch := Chunk{Rows: min(plainSpanRows, n-lo)}
				rewindow(&ch, c, lo, lo+ch.Rows)
				e.Chunks = append(e.Chunks, ch)
			}
		}
		w.begin(c.Kind, flags|frameFirst)
		w.Uvar(uint64(e.ChunkRows))
		w.Uvar(uint64(e.RawBytes))
		w.Dict(e.Dict)
		for i := range e.Chunks {
			if i > 0 && len(w.Body)+len(w.Heap) >= frameBytes {
				out = append(out, w.finish())
				w.begin(c.Kind, flags)
			}
			w.Chunk(c.Kind, &e.Chunks[i])
		}
		out = append(out, w.finish())
	}
	return out
}

// openFrame checks a frame's envelope — magic, checksum, kind, flags, heap
// bounds — before a byte of its body is interpreted.
func openFrame(frame []byte, kind vector.Kind, flags byte) (*vector.ChunkReader, error) {
	if len(frame) < frameOverhead || [4]byte(frame[:4]) != columnFrameMagic {
		return nil, fmt.Errorf("%d bytes do not start a column frame", len(frame))
	}
	end := len(frame) - 4
	if got, want := crc32.ChecksumIEEE(frame[4:end]), binary.LittleEndian.Uint32(frame[end:]); got != want {
		return nil, fmt.Errorf("checksum %08x, frame says %08x", got, want)
	}
	if vector.Kind(frame[4]) != kind || frame[5] != flags {
		return nil, fmt.Errorf("kind %d flags %#x where kind %d flags %#x is due", frame[4], frame[5], kind, flags)
	}
	end -= 4
	heapLen := int(binary.LittleEndian.Uint32(frame[end:]))
	if heapLen > end-6 || (heapLen > 0 && kind != vector.String) {
		return nil, fmt.Errorf("heap of %d bytes in a %d-byte %s frame", heapLen, len(frame), kind)
	}
	return vector.NewChunkReader(frame[6:end-heapLen], bytes.Clone(frame[end-heapLen:end])), nil
}

// TableAdopter rebuilds a table from the frames Table.Frames wrote. The
// table's shape — name, page size, row count, schema, compressed or not — is
// declared up front (it travels in the shipper's manifest) and held against
// every frame. Nothing is published until every column is complete; Table
// then assembles the result without touching a value — widths from the
// encoded bytes, zonemaps from the chunk bounds. An adopted compressed table
// serves scans (Reader, ReadStats, PruneZonemap); it has no raw arrays to
// permute or extend.
type TableAdopter struct {
	name       string
	pageSize   int64
	rows       int
	compressed bool
	cols       []*Column

	// Frames arrive column by column, so only one column is ever in progress.
	cur     int  // the column the next frame belongs to
	got     int  // its rows so far
	started bool // its first frame has been adopted
}

// NewTableAdopter prepares to adopt a table of the given shape.
func NewTableAdopter(name string, pageSize int64, rows int, compressed bool, names []string, kinds []vector.Kind) (*TableAdopter, error) {
	if pageSize <= 0 || rows < 0 || len(names) == 0 || len(names) != len(kinds) {
		return nil, fmt.Errorf("storage: adopt %q: page size %d, %d rows, %d columns", name, pageSize, rows, len(names))
	}
	a := &TableAdopter{name: name, pageSize: pageSize, rows: rows, compressed: compressed}
	for i, k := range kinds {
		if k > vector.String {
			return nil, fmt.Errorf("storage: adopt %q: column %q has unknown kind %d", name, names[i], k)
		}
		a.cols = append(a.cols, &Column{Name: names[i], Kind: k, Enc: &ColumnEncoding{}})
	}
	return a, nil
}

// Add verifies the next frame — checksum first, then structure — and only
// then appends what it holds to the column in progress. It reports the bytes
// the frame leaves resident — the frame, which adopted chunks point into, and
// the copy of its heap their strings are views of — and whether the table is
// now complete. A frame that fails leaves the adopter as it was; the caller
// decides whether the transfer survives it.
func (a *TableAdopter) Add(frame []byte) (resident int64, done bool, err error) {
	if a.cur == len(a.cols) {
		return 0, true, fmt.Errorf("storage: adopt %q: frame after the last column", a.name)
	}
	c := a.cols[a.cur]
	flags := byte(0)
	if a.compressed {
		flags |= frameEncoded
	}
	if !a.started {
		flags |= frameFirst
	}
	r, err := openFrame(frame, c.Kind, flags)
	var n int
	var e ColumnEncoding
	if err == nil {
		resident = int64(len(frame) + r.HeapLeft())
		n, e = a.readChunks(r, *c.Enc, c.Kind)
		err = r.Err()
	}
	if err != nil {
		return 0, false, fmt.Errorf("storage: adopt %q: column %q frame: %w", a.name, c.Name, err)
	}
	a.started, a.got = true, a.got+n
	if a.got == a.rows {
		e.settleDict()
		a.cur, a.got, a.started = a.cur+1, 0, false
	}
	*c.Enc = e
	return resident, a.cur == len(a.cols), nil
}

// readChunks reads a whole frame body — the column header, when the frame is
// the column's first, then chunks — into e, a copy of the column's encoding
// so far, and returns the rows read with the extended copy; r.Err says
// whether the frame held up. New chunks land past the column's published
// length (in its own backing array when there is room) and stay invisible
// until Add assigns the copy back.
func (a *TableAdopter) readChunks(r *vector.ChunkReader, e ColumnEncoding, kind vector.Kind) (int, ColumnEncoding) {
	if !a.started {
		limit := plainSpanRows
		if a.compressed { // no granularity exceeds a page of one-byte values
			limit = int(min(a.pageSize, math.MaxInt32))
		}
		e.ChunkRows = r.Uvarint("chunk rows", limit)
		e.RawBytes = int64(r.Uvarint("raw bytes", math.MaxInt))
		if r.Err() == nil && e.ChunkRows == 0 {
			r.Fail("chunk granularity 0")
		}
		e.Dict, e.DictBits, e.DictBytes = r.Dict()
	}
	if r.Err() != nil {
		return 0, e
	}
	// Room for the chunks the column still lacks, or all the body could hold.
	left := a.rows - a.got
	e.Chunks = slices.Grow(e.Chunks, min((left+e.ChunkRows-1)/e.ChunkRows, r.Len()/4))
	n := 0
	short := len(e.Chunks) > 0 && e.Chunks[len(e.Chunks)-1].Rows < e.ChunkRows
	for r.Len() > 0 && r.Err() == nil {
		if short {
			r.Fail("chunk after a short chunk")
			break
		}
		ch := r.Chunk(kind, min(e.ChunkRows, left-n), e.Dict)
		if r.Err() == nil && !a.compressed && ch.Enc != EncRaw {
			r.Fail("%s chunk in a plain column", ch.Enc)
		}
		if r.Err() != nil {
			break
		}
		ch.Start = a.got + n
		n += ch.Rows
		short = ch.Rows < e.ChunkRows
		e.EncodedBytes += ch.Bytes
		e.Counts[ch.Enc]++
		e.Chunks = append(e.Chunks, ch)
	}
	switch {
	case r.Err() != nil:
	case r.HeapLeft() != 0:
		r.Fail("%d heap bytes unclaimed", r.HeapLeft())
	case n == 0 && a.started:
		r.Fail("empty frame")
	}
	return n, e
}

// Table returns the adopted table once every column is complete.
func (a *TableAdopter) Table() (*Table, error) {
	if a.cur != len(a.cols) {
		return nil, fmt.Errorf("storage: adopt %q: column %d of %d incomplete", a.name, a.cur, len(a.cols))
	}
	if !a.compressed {
		for _, c := range a.cols { // the raw chunks were the values' vehicle
			if c.Enc == nil {
				continue // flattened by an earlier call
			}
			c.reserve(a.rows)
			for _, ch := range c.Enc.Chunks {
				c.I64, c.F64 = append(c.I64, ch.ValI...), append(c.F64, ch.ValF...)
				if c.Kind == vector.String {
					c.Str.AppendRange(ch.ValS, 0, ch.Rows)
				}
			}
			c.Enc = nil
		}
		return NewTable(a.name, a.pageSize, a.cols...)
	}
	t := &Table{Name: a.name, Cols: a.cols, PageSize: a.pageSize, rows: a.rows, compressed: true}
	t.byName = make(map[string]int, len(a.cols))
	t.zones = make([]zonemap, len(a.cols))
	for i, c := range a.cols {
		if _, dup := t.byName[c.Name]; dup {
			return nil, fmt.Errorf("storage: table %q: duplicate column %q", a.name, c.Name)
		}
		t.byName[c.Name] = i
		c.width = 8
		if c.Kind == vector.String {
			c.width = strWidth(int(c.Enc.RawBytes), a.rows)
		}
		c.useEncodedWidth()
		t.zones[i] = zonemapFromChunks(c)
	}
	return t, nil
}
