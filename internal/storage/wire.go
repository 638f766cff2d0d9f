package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
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
// decoder converts the heap to one Go string and hands out substrings.

var columnFrameMagic = [4]byte{'B', 'D', 'C', '1'}

const (
	frameEncoded = 1 << 0 // the column has a chunk encoding; clear: raw chunks of a plain column
	frameFirst   = 1 << 1 // the column's first frame: ChunkRows, RawBytes and the dictionary lead

	frameOverhead = len(columnFrameMagic) + 2 + 4 + 4 // magic, kind, flags, heap length, checksum
	plainSpanRows = 4096                              // rows per raw chunk a plain column is written as
)

// frameWriter builds one frame: body and heap grow side by side.
type frameWriter struct {
	body, heap []byte
}

func (w *frameWriter) begin(kind vector.Kind, flags byte) {
	w.body = append(append(w.body[:0], columnFrameMagic[:]...), byte(kind), flags)
	w.heap = w.heap[:0]
}

func (w *frameWriter) uvar(x uint64) { w.body = binary.AppendUvarint(w.body, x) }
func (w *frameWriter) u64(x uint64)  { w.body = binary.LittleEndian.AppendUint64(w.body, x) }

// vals writes the values of whichever slice matches kind.
func (w *frameWriter) vals(kind vector.Kind, i64 []int64, f64 []float64, str []string) {
	switch kind {
	case vector.Int64:
		for _, x := range i64 {
			w.u64(uint64(x))
		}
	case vector.Float64:
		for _, x := range f64 {
			w.u64(math.Float64bits(x))
		}
	case vector.String:
		for _, s := range str {
			w.uvar(uint64(len(s)))
			w.heap = append(w.heap, s...)
		}
	}
}

func (w *frameWriter) chunk(kind vector.Kind, ch *Chunk) {
	w.body = append(w.body, byte(ch.Enc))
	w.uvar(uint64(ch.Rows))
	w.uvar(uint64(ch.Bytes))
	w.vals(kind, []int64{ch.MinI, ch.MaxI}, []float64{ch.MinF, ch.MaxF}, []string{ch.MinS, ch.MaxS})
	switch ch.Enc {
	case EncRaw:
		w.vals(kind, ch.ValI, ch.ValF, ch.ValS)
	case EncRLE:
		w.uvar(uint64(len(ch.RunN)))
		for _, n := range ch.RunN {
			w.uvar(uint64(n))
		}
		w.vals(kind, ch.RunI, nil, ch.RunS)
		for _, b := range ch.RunF {
			w.u64(b)
		}
	case EncFOR:
		w.u64(uint64(ch.Base))
		w.body = append(append(w.body, ch.BitW), ch.Packed...)
	case EncDict:
		w.body = append(append(w.body, ch.BitW), ch.Packed...)
	}
}

// finish returns the completed frame in a buffer of its own.
func (w *frameWriter) finish() []byte {
	out := make([]byte, 0, len(w.body)+len(w.heap)+8)
	out = append(append(out, w.body...), w.heap...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(w.heap)))
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
				switch c.Kind {
				case vector.Int64:
					ch.ValI = c.I64[lo : lo+ch.Rows]
				case vector.Float64:
					ch.ValF = c.F64[lo : lo+ch.Rows]
				case vector.String:
					ch.ValS = c.Str[lo : lo+ch.Rows]
				}
				e.Chunks = append(e.Chunks, ch)
			}
		}
		w.begin(c.Kind, flags|frameFirst)
		w.uvar(uint64(e.ChunkRows))
		w.uvar(uint64(e.RawBytes))
		w.uvar(uint64(len(e.Dict)))
		w.vals(vector.String, nil, nil, e.Dict)
		for i := range e.Chunks {
			if i > 0 && len(w.body)+len(w.heap) >= frameBytes {
				out = append(out, w.finish())
				w.begin(c.Kind, flags)
			}
			w.chunk(c.Kind, &e.Chunks[i])
		}
		out = append(out, w.finish())
	}
	return out
}

// frameReader walks a verified frame's body. The first failure sticks: later
// reads return zero values, and callers check err where a count they read is
// about to size an allocation or a loop, and once at the end.
type frameReader struct {
	body    []byte
	heap    string
	heapPos int
	err     error
}

func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// take returns the next n body bytes, a window of the frame; nil on failure.
func (r *frameReader) take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.body) {
		r.fail("%d bytes wanted, %d left in the body", n, len(r.body))
		return nil
	}
	b := r.body[:n:n]
	r.body = r.body[n:]
	return b
}

func (r *frameReader) byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *frameReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// uvar reads a uvarint no larger than limit. A count of items that each take
// a body byte is read with the body's length as its limit, so a damaged count
// cannot size an allocation beyond the frame.
func (r *frameReader) uvar(what string, limit int) int {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.body)
	if n <= 0 || limit < 0 || x > uint64(limit) {
		r.fail("%s unreadable or above %d", what, limit)
		return 0
	}
	r.body = r.body[n:]
	return int(x)
}

// str returns the next string: its length from the body, its bytes from the
// heap.
func (r *frameReader) str() string {
	n := r.uvar("string length", len(r.heap)-r.heapPos)
	r.heapPos += n
	return r.heap[r.heapPos-n : r.heapPos]
}

// vals reads n values of kind into the slice that matches it.
func (r *frameReader) vals(kind vector.Kind, n int) (i64 []int64, f64 []float64, str []string) {
	if kind == vector.String {
		if n > len(r.body) {
			r.fail("%d strings cannot fit in %d body bytes", n, len(r.body))
			return
		}
		str = make([]string, n)
		for i := range str {
			str[i] = r.str()
		}
		return
	}
	b := r.take(8 * n)
	if b == nil {
		return
	}
	if kind == vector.Int64 {
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

// chunk reads one chunk of at most maxRows rows. Everything a reader of the
// chunk will index by is checked here: run lengths are positive and sum to
// the rows, packed payloads have the length their width implies, dictionary
// codes stay inside dict.
func (r *frameReader) chunk(kind vector.Kind, maxRows int, dict []string) Chunk {
	ch := Chunk{Enc: Encoding(r.byte())}
	ch.Rows = r.uvar("chunk rows", maxRows)
	ch.Bytes = int64(r.uvar("chunk bytes", math.MaxInt))
	if r.err == nil && ch.Rows == 0 {
		r.fail("empty chunk")
	}
	switch kind {
	case vector.Int64:
		ch.MinI, ch.MaxI = int64(r.u64()), int64(r.u64())
	case vector.Float64:
		ch.MinF, ch.MaxF = math.Float64frombits(r.u64()), math.Float64frombits(r.u64())
	case vector.String:
		ch.MinS, ch.MaxS = r.str(), r.str()
	}
	switch {
	case ch.Enc == EncRaw:
		ch.ValI, ch.ValF, ch.ValS = r.vals(kind, ch.Rows)
	case ch.Enc == EncRLE:
		ch.RunN = make([]int32, r.uvar("run count", len(r.body)))
		left := ch.Rows
		for i := range ch.RunN {
			n := r.uvar("run length", left)
			if n == 0 {
				break
			}
			ch.RunN[i], left = int32(n), left-n
		}
		if r.err == nil && (left != 0 || len(ch.RunN) == 0 || ch.RunN[len(ch.RunN)-1] == 0) {
			r.fail("run lengths do not tile the chunk's %d rows", ch.Rows)
		}
		if kind != vector.Float64 {
			ch.RunI, _, ch.RunS = r.vals(kind, len(ch.RunN))
		} else if b := r.take(8 * len(ch.RunN)); b != nil {
			ch.RunF = make([]uint64, len(ch.RunN)) // bit patterns, never through a float
			for i := range ch.RunF {
				ch.RunF[i] = binary.LittleEndian.Uint64(b[8*i:])
			}
		}
	case ch.Enc == EncFOR && kind == vector.Int64, ch.Enc == EncDict && kind == vector.String && len(dict) > 0:
		width := uint8(64) // at most, for deltas; exactly the dictionary's, for codes
		if ch.Enc == EncFOR {
			ch.Base = int64(r.u64())
		} else {
			width = uint8(bits.Len(uint(len(dict) - 1)))
		}
		if ch.BitW = r.byte(); ch.BitW > width || (ch.Enc == EncDict && ch.BitW != width) {
			r.fail("%s chunk %d bits wide", ch.Enc, ch.BitW)
			break
		}
		ch.Packed = r.take(vector.BitPackLen(ch.Rows, ch.BitW))
		if ch.Enc == EncFOR || len(dict) == 1<<ch.BitW || r.err != nil {
			break // every bit pattern is a valid delta, or a valid code
		}
		var blk [256]uint64
		for base := 0; base < ch.Rows; base += len(blk) {
			codes := blk[:min(len(blk), ch.Rows-base)]
			vector.BitUnpack(codes, ch.Packed, base, ch.BitW)
			if slices.Max(codes) >= uint64(len(dict)) {
				r.fail("dictionary code %d of %d entries", slices.Max(codes), len(dict))
				break
			}
		}
	default:
		r.fail("%s chunk in a %s column", ch.Enc, kind)
	}
	return ch
}

// openFrame checks a frame's envelope — magic, checksum, kind, flags, heap
// bounds — before a byte of its body is interpreted.
func openFrame(frame []byte, kind vector.Kind, flags byte) (*frameReader, error) {
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
	return &frameReader{body: frame[6 : end-heapLen], heap: string(frame[end-heapLen : end])}, nil
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
// the string its heap was converted to — and whether the table is now
// complete. A frame that fails leaves the adopter as it was; the caller
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
		n, e = a.readChunks(r, *c.Enc, c.Kind)
		err = r.err
	}
	if err != nil {
		return 0, false, fmt.Errorf("storage: adopt %q: column %q frame: %w", a.name, c.Name, err)
	}
	a.started, a.got = true, a.got+n
	if a.got == a.rows {
		if e.Counts[EncDict] > 0 {
			e.EncodedBytes += e.DictBytes
		} else {
			e.Dict, e.DictBits, e.DictBytes = nil, 0, 0
		}
		a.cur, a.got, a.started = a.cur+1, 0, false
	}
	*c.Enc = e
	return int64(len(frame) + len(r.heap)), a.cur == len(a.cols), nil
}

// readChunks reads a whole frame body — the column header, when the frame is
// the column's first, then chunks — into e, a copy of the column's encoding
// so far, and returns the rows read with the extended copy; r.err says
// whether the frame held up. New chunks land past the column's published
// length (in its own backing array when there is room) and stay invisible
// until Add assigns the copy back.
func (a *TableAdopter) readChunks(r *frameReader, e ColumnEncoding, kind vector.Kind) (int, ColumnEncoding) {
	if !a.started {
		limit := plainSpanRows
		if a.compressed { // no granularity exceeds a page of one-byte values
			limit = int(min(a.pageSize, math.MaxInt32))
		}
		e.ChunkRows = r.uvar("chunk rows", limit)
		e.RawBytes = int64(r.uvar("raw bytes", math.MaxInt))
		if r.err == nil && e.ChunkRows == 0 {
			r.fail("chunk granularity 0")
		}
		_, _, e.Dict = r.vals(vector.String, r.uvar("dictionary size", maxDictEntries))
		for i, s := range e.Dict {
			if i > 0 && e.Dict[i-1] >= s {
				r.fail("dictionary entry %d out of order", i) // range predicates compare codes
			}
			e.DictBytes += 4 + int64(len(s))
		}
		e.DictBits = uint8(bits.Len(uint(max(len(e.Dict), 1) - 1)))
	}
	if r.err != nil {
		return 0, e
	}
	// Room for the chunks the column still lacks, or all the body could hold.
	left := a.rows - a.got
	e.Chunks = slices.Grow(e.Chunks, min((left+e.ChunkRows-1)/e.ChunkRows, len(r.body)/4))
	n := 0
	short := len(e.Chunks) > 0 && e.Chunks[len(e.Chunks)-1].Rows < e.ChunkRows
	for len(r.body) > 0 && r.err == nil {
		if short {
			r.fail("chunk after a short chunk")
			break
		}
		ch := r.chunk(kind, min(e.ChunkRows, left-n), e.Dict)
		if r.err == nil && !a.compressed && ch.Enc != EncRaw {
			r.fail("%s chunk in a plain column", ch.Enc)
		}
		if r.err != nil {
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
	case r.err != nil:
	case r.heapPos != len(r.heap):
		r.fail("%d heap bytes unclaimed", len(r.heap)-r.heapPos)
	case n == 0 && a.started:
		r.fail("empty frame")
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
				c.I64, c.F64, c.Str = append(c.I64, ch.ValI...), append(c.F64, ch.ValF...), append(c.Str, ch.ValS...)
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
