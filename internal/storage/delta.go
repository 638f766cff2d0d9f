package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"

	"bdcc/internal/vector"
)

// This file implements the ingest side of storage: a row-oriented delta
// store per table. Appended rows are encoded into self-validating segments
// (the delta's "on-disk" format, see EncodeDeltaSegment) and decoded back
// into columnar form when a merge consolidates base + delta. The
// delta is deliberately row-oriented and unencoded: fresh rows arrive one
// transaction at a time and are rewritten into clustered, compressed form by
// the background merge, so paying columnar encoding on the append path would
// buy nothing (the classic delta-store / read-optimized-store split).

// deltaSegMagic marks a delta segment; the trailing byte versions the format.
var deltaSegMagic = [4]byte{'B', 'D', 'L', '1'}

// Delta is the append store of one table: a bounded sequence of encoded row
// segments sharing the base table's schema. Appends are serialized by an
// internal mutex; readers never touch the Delta directly — they read the
// immutable snapshot tables built from the batch at append time and from
// Prefix at merge time.
type Delta struct {
	name     string
	cols     []string
	kinds    []vector.Kind
	pageSize int64

	mu       sync.Mutex
	segs     []deltaSeg
	rows     int
	appended int64
}

// deltaSeg is one encoded append batch.
type deltaSeg struct {
	data []byte
	rows int
}

// NewDelta returns an empty delta store adopting the base table's schema and
// page geometry.
func NewDelta(base *Table) *Delta {
	d := &Delta{name: base.Name, pageSize: base.PageSize}
	for _, c := range base.Cols {
		d.cols = append(d.cols, c.Name)
		d.kinds = append(d.kinds, c.Kind)
	}
	return d
}

// Rows returns the number of un-merged rows currently in the store.
func (d *Delta) Rows() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rows
}

// AppendedRows returns the lifetime row count appended to this store,
// including rows already merged away.
func (d *Delta) AppendedRows() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.appended
}

// Append encodes the given rows as one segment and adds it to the store. The
// rows table must match the delta's schema by name, kind and column order.
// It returns the visible row count after the append.
func (d *Delta) Append(rows *Table) (int, error) {
	if rows.Rows() == 0 {
		return 0, fmt.Errorf("storage: delta %q: empty append", d.name)
	}
	if err := d.checkSchema(rows); err != nil {
		return 0, err
	}
	seg, err := EncodeDeltaSegment(rows)
	if err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.segs = append(d.segs, deltaSeg{data: seg, rows: rows.Rows()})
	d.rows += rows.Rows()
	d.appended += int64(rows.Rows())
	return d.rows, nil
}

func (d *Delta) checkSchema(t *Table) error {
	if len(t.Cols) != len(d.cols) {
		return fmt.Errorf("storage: delta %q: %d columns appended, schema has %d", d.name, len(t.Cols), len(d.cols))
	}
	for i, c := range t.Cols {
		if c.Name != d.cols[i] || c.Kind != d.kinds[i] {
			return fmt.Errorf("storage: delta %q: column %d is %s %s, schema has %s %s",
				d.name, i, c.Kind, c.Name, d.kinds[i], d.cols[i])
		}
	}
	return nil
}

// Prefix decodes the first k rows into an uncompressed columnar table in
// arrival order. k must fall on a segment boundary — appends are atomic, so
// every snapshot's visible count does. Only a merge (and the tests) decode
// the store: an append extends the views by the columnar batch it was handed.
func (d *Delta) Prefix(k int) (*Table, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if k > d.rows {
		return nil, fmt.Errorf("storage: delta %q: prefix %d exceeds %d rows", d.name, k, d.rows)
	}
	cols := make([]*Column, len(d.cols))
	for i := range cols {
		cols[i] = &Column{Name: d.cols[i], Kind: d.kinds[i]}
	}
	got := 0
	for _, seg := range d.segs {
		if got == k {
			break
		}
		if got+seg.rows > k {
			return nil, fmt.Errorf("storage: delta %q: prefix %d splits a %d-row segment at %d", d.name, k, seg.rows, got)
		}
		part, err := DecodeDeltaSegment(seg.data, d.cols, d.kinds, d.pageSize, d.name)
		if err != nil {
			return nil, err
		}
		for i, c := range cols {
			c.appendRows(part.Cols[i], 0, part.Rows())
		}
		got += seg.rows
	}
	return NewTable(d.name, d.pageSize, cols...)
}

// TruncatePrefix drops the first k rows (a completed merge's input). k must
// fall on a segment boundary.
func (d *Delta) TruncatePrefix(k int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	got := 0
	i := 0
	for ; i < len(d.segs) && got < k; i++ {
		got += d.segs[i].rows
	}
	if got != k {
		return fmt.Errorf("storage: delta %q: truncate %d not on a segment boundary", d.name, k)
	}
	d.segs = append([]deltaSeg(nil), d.segs[i:]...)
	d.rows -= k
	return nil
}

// EncodeDeltaSegment serializes a row batch into the delta segment format:
//
//	magic "BDL1" | uvarint rows | uvarint cols | per column: kind byte |
//	row-major values (int64: 8 B LE; float64: 8 B LE IEEE bits;
//	string: uvarint length + bytes) | CRC-32 (IEEE) of everything after the
//	magic, little-endian.
//
// The checksum makes torn or corrupted segments detectable at decode time
// instead of silently surfacing wrong rows in a snapshot.
func EncodeDeltaSegment(t *Table) ([]byte, error) {
	out := append([]byte(nil), deltaSegMagic[:]...)
	out = binary.AppendUvarint(out, uint64(t.Rows()))
	out = binary.AppendUvarint(out, uint64(len(t.Cols)))
	for _, c := range t.Cols {
		out = append(out, byte(c.Kind))
	}
	var b8 [8]byte
	for r := 0; r < t.Rows(); r++ {
		for _, c := range t.Cols {
			switch c.Kind {
			case vector.Int64:
				binary.LittleEndian.PutUint64(b8[:], uint64(c.I64[r]))
				out = append(out, b8[:]...)
			case vector.Float64:
				binary.LittleEndian.PutUint64(b8[:], math.Float64bits(c.F64[r]))
				out = append(out, b8[:]...)
			case vector.String:
				out = binary.AppendUvarint(out, uint64(len(c.Str[r])))
				out = append(out, c.Str[r]...)
			default:
				return nil, fmt.Errorf("storage: delta segment: unsupported kind %s", c.Kind)
			}
		}
	}
	crc := crc32.ChecksumIEEE(out[len(deltaSegMagic):])
	binary.LittleEndian.PutUint32(b8[:4], crc)
	return append(out, b8[:4]...), nil
}

// DecodeDeltaSegment parses a segment back into an uncompressed table with
// the given column names. The segment's column kinds must match the expected
// schema and the checksum must verify; any structural damage — truncation,
// bit flips, oversized counts — returns an error, never a panic or a
// half-decoded table.
func DecodeDeltaSegment(data []byte, cols []string, kinds []vector.Kind, pageSize int64, name string) (*Table, error) {
	bad := func(format string, args ...any) (*Table, error) {
		return nil, fmt.Errorf("storage: delta segment of %q: %s", name, fmt.Sprintf(format, args...))
	}
	if len(data) < len(deltaSegMagic)+4 {
		return bad("%d bytes is shorter than magic and checksum", len(data))
	}
	if [4]byte(data[:4]) != deltaSegMagic {
		return bad("bad magic %q", data[:4])
	}
	body := data[len(deltaSegMagic) : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return bad("checksum %08x, segment says %08x", got, want)
	}
	rows, n := binary.Uvarint(body)
	if n <= 0 {
		return bad("unreadable row count")
	}
	body = body[n:]
	ncols, n := binary.Uvarint(body)
	if n <= 0 {
		return bad("unreadable column count")
	}
	body = body[n:]
	if ncols != uint64(len(kinds)) {
		return bad("%d columns, schema has %d", ncols, len(kinds))
	}
	// Eight bytes per numeric value bounds rows by the remaining payload, so
	// a corrupted count cannot drive allocation.
	if uint64(len(body)) < ncols || rows > uint64(len(body)) {
		return bad("%d rows cannot fit in %d payload bytes", rows, len(body))
	}
	for i, k := range kinds {
		if vector.Kind(body[i]) != k {
			return bad("column %d has kind %d, schema has %s", i, body[i], k)
		}
	}
	body = body[ncols:]
	out := make([]*Column, len(kinds))
	for i := range out {
		out[i] = &Column{Name: cols[i], Kind: kinds[i]}
		switch kinds[i] {
		case vector.Int64:
			out[i].I64 = make([]int64, 0, rows)
		case vector.Float64:
			out[i].F64 = make([]float64, 0, rows)
		case vector.String:
			out[i].Str = make([]string, 0, rows)
		}
	}
	for r := uint64(0); r < rows; r++ {
		for i, k := range kinds {
			switch k {
			case vector.Int64:
				if len(body) < 8 {
					return bad("row %d column %d truncated", r, i)
				}
				out[i].I64 = append(out[i].I64, int64(binary.LittleEndian.Uint64(body)))
				body = body[8:]
			case vector.Float64:
				if len(body) < 8 {
					return bad("row %d column %d truncated", r, i)
				}
				out[i].F64 = append(out[i].F64, math.Float64frombits(binary.LittleEndian.Uint64(body)))
				body = body[8:]
			case vector.String:
				ln, n := binary.Uvarint(body)
				if n <= 0 || ln > uint64(len(body[n:])) {
					return bad("row %d column %d string length %d overruns segment", r, i, ln)
				}
				out[i].Str = append(out[i].Str, string(body[n:n+int(ln)]))
				body = body[n+int(ln):]
			}
		}
	}
	if len(body) != 0 {
		return bad("%d trailing bytes after %d rows", len(body), rows)
	}
	return NewTable(name, pageSize, out...)
}

// Concat returns a new uncompressed table holding the first aRows rows of a
// followed by every row of b; schemas must match by name, kind and order.
// Snapshot views layer freshly ingested rows behind the base this way —
// consolidation re-encodes explicitly when the merge commits, so the un-merged
// tail is always served (and its I/O charged) at raw width. When all of a is
// kept, its zones — up to the page b continues — are carried over, not
// recomputed.
func Concat(a *Table, aRows int, b *Table) (*Table, error) {
	if err := checkConcat(a, aRows, b); err != nil {
		return nil, err
	}
	cols := make([]*Column, len(a.Cols))
	for i, c := range a.Cols {
		nc := &Column{Name: c.Name, Kind: c.Kind}
		nc.reserve(aRows + b.Rows())
		nc.appendRows(c, 0, aRows)
		nc.appendRows(b.Cols[i], 0, b.Rows())
		cols[i] = nc
	}
	var prev *Table
	if aRows == a.Rows() {
		prev = a
	}
	return newTable(a.Name, a.PageSize, cols, prev)
}

// Splice returns the uncompressed table whose row i is row src[i] of the
// concatenation Concat(a, aRows, b) would build: one copy and one zonemap
// build where Concat followed by Permute (and AppendRows, when src repeats
// rows) makes three of each. src may have any length.
func Splice(a *Table, aRows int, b *Table, src []int32) (*Table, error) {
	if err := checkConcat(a, aRows, b); err != nil {
		return nil, err
	}
	cols := make([]*Column, len(a.Cols))
	for i, c := range a.Cols {
		o := b.Cols[i]
		nc := &Column{Name: c.Name, Kind: c.Kind}
		switch c.Kind {
		case vector.Int64:
			nc.I64 = gather(c.I64[:aRows], o.I64, src)
		case vector.Float64:
			nc.F64 = gather(c.F64[:aRows], o.F64, src)
		case vector.String:
			nc.Str = gather(c.Str[:aRows], o.Str, src)
		}
		cols[i] = nc
	}
	return NewTable(a.Name, a.PageSize, cols...)
}

// gather returns out with out[i] = (a followed by b)[src[i]]. Runs of
// consecutive rows of a — the retained order between two spliced-in rows —
// move as one block copy.
func gather[T any](a, b []T, src []int32) []T {
	out := make([]T, len(src))
	n := int32(len(a))
	for i := 0; i < len(src); {
		p := src[i]
		if p >= n {
			out[i] = b[p-n]
			i++
			continue
		}
		j := i + 1
		for j < len(src) && src[j] == src[j-1]+1 && src[j] < n {
			j++
		}
		copy(out[i:j], a[p:])
		i = j
	}
	return out
}

// ConcatWidth returns the modeled width of the densest column of the table
// Concat(a, aRows, b) would build, without building it.
func ConcatWidth(a *Table, aRows int, b *Table) float64 {
	var widest float64
	for i, c := range a.Cols {
		w := 8.0
		if c.Kind == vector.String {
			total := 0
			for _, s := range c.Str[:aRows] {
				total += len(s)
			}
			for _, s := range b.Cols[i].Str {
				total += len(s)
			}
			w = strWidth(total, aRows+b.Rows())
		}
		widest = max(widest, w)
	}
	return widest
}

func checkConcat(a *Table, aRows int, b *Table) error {
	if aRows < 0 || aRows > a.Rows() {
		return fmt.Errorf("storage: concat keeps %d of table %q's %d rows", aRows, a.Name, a.Rows())
	}
	if len(a.Cols) != len(b.Cols) {
		return fmt.Errorf("storage: concat of %q and %q: %d vs %d columns", a.Name, b.Name, len(a.Cols), len(b.Cols))
	}
	for i, c := range a.Cols {
		o := b.Cols[i]
		if c.Name != o.Name || c.Kind != o.Kind {
			return fmt.Errorf("storage: concat of %q: column %d is %s %s vs %s %s",
				a.Name, i, c.Kind, c.Name, o.Kind, o.Name)
		}
	}
	return nil
}
