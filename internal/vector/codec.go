package vector

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// This file is the batch wire codec: the byte form in which batches cross a
// transport boundary (the shard backends ship sandwich-group work units as
// encoded batch sets instead of sharing memory). The encoding is exact —
// floats travel as their IEEE-754 bits, strings as raw bytes — so a decoded
// batch reproduces the original bit for bit, which is what keeps sharded
// query results byte-identical to single-box runs.
//
// Each column carries a one-byte encoding tag and ships in the cheapest of
// the candidate forms, mirroring the storage chunk encoder: BDCC group units
// are value-homogeneous, so run-length, frame-of-reference and dictionary
// forms routinely beat the raw width on the wire (net_ms is charged on
// encoded size). Raw is always a valid fallback.
//
// Layout (little endian):
//
//	u8  grouped (0/1)
//	u64 group id
//	u16 column count
//	per column: u8 kind, u32 row count n, u8 tag, then the payload
//	  tag 0 (raw):
//	    Int64/Float64: 8 bytes each (float bits via math.Float64bits)
//	    String:        u32 byte length + raw bytes each
//	  tag 1 (rle): u32 run count, then per run the value (as in raw form)
//	    followed by a u32 run length; run lengths sum to n
//	  tag 2 (for, Int64 only): i64 base, u8 bit width, then n bit-packed
//	    unsigned deltas (BitPackLen bytes)
//	  tag 3 (dict, String only): u32 dictionary size, the sorted dictionary
//	    entries (u32 byte length + raw bytes each), u8 code bit width, then
//	    n bit-packed codes
const (
	wireRaw  = 0
	wireRLE  = 1
	wireFOR  = 2
	wireDict = 3
)

// maxWireRows bounds the per-column row count a decoder will materialize.
// Legitimate batches never exceed BatchSize rows, but the run-length forms
// let a corrupt or hostile frame declare billions of rows in a handful of
// bytes — the limit turns that into an error instead of an allocation.
const maxWireRows = 1 << 22

// Encode appends the wire encoding of b to buf and returns the extended
// slice. A nil buf allocates. Each column independently picks the cheapest
// encoding by exact byte cost.
func (b *Batch) Encode(buf []byte) []byte {
	if b.Grouped {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint64(buf, b.GroupID)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(b.Cols)))
	var dict StrDict // scratch shared by the batch's string columns
	for _, c := range b.Cols {
		buf = append(buf, byte(c.Kind))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Len()))
		switch c.Kind {
		case Int64:
			buf = encodeI64Col(buf, c.I64)
		case Float64:
			buf = encodeF64Col(buf, c.F64)
		case String:
			buf = encodeStrCol(buf, c.Str, &dict)
		}
	}
	return buf
}

// RawWireSize returns the size Encode would produce with every column forced
// to the raw tag — the baseline the transport's wire_bytes_saved counter is
// measured against.
func (b *Batch) RawWireSize() int {
	sz := 1 + 8 + 2
	for _, c := range b.Cols {
		sz += 1 + 4 + 1
		switch c.Kind {
		case Int64, Float64:
			sz += 8 * c.Len()
		case String:
			for _, s := range c.Str {
				sz += 4 + len(s)
			}
		}
	}
	return sz
}

// encodeI64Col writes one int64 column: one pass costs the candidates
// (raw 8/value, RLE 12/run, FOR 9 + packed deltas), the cheapest wins.
func encodeI64Col(buf []byte, v []int64) []byte {
	n := len(v)
	if n == 0 {
		return append(buf, wireRaw)
	}
	runs := 1
	mn, mx := v[0], v[0]
	for i := 1; i < n; i++ {
		if v[i] != v[i-1] {
			runs++
		}
		if v[i] < mn {
			mn = v[i]
		}
		if v[i] > mx {
			mx = v[i]
		}
	}
	bitw := uint8(bits.Len64(uint64(mx) - uint64(mn)))
	tag, best := wireRaw, 8*n
	if rleB := 12 * runs; rleB < best {
		tag, best = wireRLE, rleB
	}
	if forB := 9 + BitPackLen(n, bitw); forB < best {
		tag = wireFOR
	}
	buf = append(buf, byte(tag))
	switch tag {
	case wireRaw:
		off := len(buf)
		buf = append(buf, make([]byte, 8*n)...)
		for i, x := range v {
			binary.LittleEndian.PutUint64(buf[off+8*i:], uint64(x))
		}
	case wireRLE:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(runs))
		cur, cnt := v[0], uint32(1)
		for _, x := range v[1:] {
			if x == cur {
				cnt++
				continue
			}
			buf = binary.LittleEndian.AppendUint64(buf, uint64(cur))
			buf = binary.LittleEndian.AppendUint32(buf, cnt)
			cur, cnt = x, 1
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(cur))
		buf = binary.LittleEndian.AppendUint32(buf, cnt)
	case wireFOR:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(mn))
		buf = append(buf, bitw)
		off := len(buf)
		buf = append(buf, make([]byte, BitPackLen(n, bitw))...)
		BitPack(buf[off:], n, bitw, func(i int) uint64 { return uint64(v[i]) - uint64(mn) })
	}
	return buf
}

// encodeF64Col writes one float64 column: raw, or RLE over the IEEE-754 bit
// patterns (bit equality, so -0.0 and NaN payloads survive exactly).
func encodeF64Col(buf []byte, v []float64) []byte {
	n := len(v)
	if n == 0 {
		return append(buf, wireRaw)
	}
	runs := 1
	prev := math.Float64bits(v[0])
	for i := 1; i < n; i++ {
		if b := math.Float64bits(v[i]); b != prev {
			runs++
			prev = b
		}
	}
	if 12*runs >= 8*n {
		buf = append(buf, wireRaw)
		off := len(buf)
		buf = append(buf, make([]byte, 8*n)...)
		for i, x := range v {
			binary.LittleEndian.PutUint64(buf[off+8*i:], math.Float64bits(x))
		}
		return buf
	}
	buf = append(buf, wireRLE)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(runs))
	cur, cnt := math.Float64bits(v[0]), uint32(1)
	for _, x := range v[1:] {
		if b := math.Float64bits(x); b == cur {
			cnt++
			continue
		}
		buf = binary.LittleEndian.AppendUint64(buf, cur)
		buf = binary.LittleEndian.AppendUint32(buf, cnt)
		cur, cnt = math.Float64bits(x), 1
	}
	buf = binary.LittleEndian.AppendUint64(buf, cur)
	buf = binary.LittleEndian.AppendUint32(buf, cnt)
	return buf
}

// StrDict is the scratch both dictionary encoders — the wire codec here and
// storage's chunk encoder — number a string column's distinct values with,
// in one scan, before deciding on a dictionary: viability needs only Len and
// Bytes, so a column that will not dictionary-encode never pays for sorting
// its values, and one that will takes its codes from IDs instead of hashing
// every value a second time. The zero value is ready; Collect reuses its
// memory from one column to the next.
type StrDict struct {
	// IDs[i] is the number of row i's value: by first occurrence after
	// Collect, by value order after Sort.
	IDs []uint32
	// Bytes is the summed length of the distinct values.
	Bytes int

	ids map[string]uint32
}

// Collect scans vals. With limit > 0 it gives up, returning false, as soon as
// more than limit distinct values were seen.
func (d *StrDict) Collect(vals []string, limit int) bool {
	if d.ids == nil {
		d.ids = make(map[string]uint32, 64)
	}
	clear(d.ids)
	if cap(d.IDs) < len(vals) {
		d.IDs = make([]uint32, len(vals))
	}
	d.IDs = d.IDs[:len(vals)]
	d.Bytes = 0
	for i, s := range vals {
		id, ok := d.ids[s]
		if !ok {
			if limit > 0 && len(d.ids) == limit {
				return false
			}
			id = uint32(len(d.ids))
			d.ids[s] = id
			d.Bytes += len(s)
		}
		d.IDs[i] = id
	}
	return true
}

// Len returns the number of distinct values collected.
func (d *StrDict) Len() int { return len(d.ids) }

// Sort returns the distinct values in ascending order and renumbers IDs to
// match, so that code order is value order.
func (d *StrDict) Sort() []string {
	vals := make([]string, 0, len(d.ids))
	for s := range d.ids {
		vals = append(vals, s)
	}
	slices.Sort(vals)
	code := make([]uint32, len(vals))
	for c, s := range vals {
		code[d.ids[s]] = uint32(c)
	}
	for i, id := range d.IDs {
		d.IDs[i] = code[id]
	}
	return vals
}

// encodeStrCol writes one string column: raw, a per-batch sorted dictionary
// with bit-packed codes, or RLE — whichever models smallest. The candidates
// are costed from counts; the dictionary is sorted only if it wins.
func encodeStrCol(buf []byte, v []string, dict *StrDict) []byte {
	n := len(v)
	if n == 0 {
		return append(buf, wireRaw)
	}
	rawB, rleB := 0, 0
	for i, s := range v {
		rawB += 4 + len(s)
		if i == 0 || s != v[i-1] {
			rleB += 8 + len(s)
		}
	}
	dict.Collect(v, 0)
	bitw := uint8(bits.Len(uint(dict.Len() - 1)))
	dictB := 4 + 1 + 4*dict.Len() + dict.Bytes + BitPackLen(n, bitw)
	tag, best := wireRaw, rawB
	if dictB < best {
		tag, best = wireDict, dictB
	}
	if rleB < best {
		tag = wireRLE
	}
	buf = append(buf, byte(tag))
	switch tag {
	case wireRaw:
		for _, s := range v {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			buf = append(buf, s...)
		}
	case wireRLE:
		appendRun := func(s string, cnt uint32) {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			buf = append(buf, s...)
			buf = binary.LittleEndian.AppendUint32(buf, cnt)
		}
		runs := uint32(1)
		for i := 1; i < n; i++ {
			if v[i] != v[i-1] {
				runs++
			}
		}
		buf = binary.LittleEndian.AppendUint32(buf, runs)
		cur, cnt := v[0], uint32(1)
		for _, s := range v[1:] {
			if s == cur {
				cnt++
				continue
			}
			appendRun(cur, cnt)
			cur, cnt = s, 1
		}
		appendRun(cur, cnt)
	case wireDict:
		vals := dict.Sort()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vals)))
		for _, s := range vals {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			buf = append(buf, s...)
		}
		buf = append(buf, bitw)
		off := len(buf)
		buf = append(buf, make([]byte, BitPackLen(n, bitw))...)
		BitPack(buf[off:], n, bitw, func(i int) uint64 { return uint64(dict.IDs[i]) })
	}
	return buf
}

// DecodeBatch decodes one batch from the front of data, returning the batch
// and the number of bytes consumed. The decoded batch owns its memory (no
// aliasing of data for scalar columns; string bytes are copied). Lengths and
// run counts from the wire are validated against the remaining bytes before
// they size any allocation, and run totals and dictionary codes are checked,
// so a garbage frame errors instead of panicking or over-allocating.
func DecodeBatch(data []byte) (*Batch, int, error) {
	pos := 0
	need := func(n int) error {
		if len(data)-pos < n {
			return fmt.Errorf("vector: truncated batch encoding at byte %d (need %d of %d)", pos, n, len(data))
		}
		return nil
	}
	if err := need(1 + 8 + 2); err != nil {
		return nil, 0, err
	}
	grouped := data[pos] != 0
	pos++
	gid := binary.LittleEndian.Uint64(data[pos:])
	pos += 8
	ncols := int(binary.LittleEndian.Uint16(data[pos:]))
	pos += 2
	b := &Batch{Cols: make([]*Vector, ncols), GroupID: gid, Grouped: grouped}
	for i := 0; i < ncols; i++ {
		if err := need(1 + 4 + 1); err != nil {
			return nil, 0, err
		}
		kind := Kind(data[pos])
		pos++
		n := int(binary.LittleEndian.Uint32(data[pos:]))
		pos += 4
		tag := data[pos]
		pos++
		if n > maxWireRows {
			return nil, 0, fmt.Errorf("vector: batch column %d declares %d rows (limit %d)", i, n, maxWireRows)
		}
		switch kind {
		case Int64, Float64, String:
		default:
			return nil, 0, fmt.Errorf("vector: batch encoding has unknown column kind %d", kind)
		}
		v := NewVector(kind, n)
		var err error
		switch {
		case tag == wireRaw:
			pos, err = decodeRawCol(data, pos, v, n)
		case tag == wireRLE:
			pos, err = decodeRLECol(data, pos, v, n)
		case tag == wireFOR && kind == Int64:
			pos, err = decodeFORCol(data, pos, v, n)
		case tag == wireDict && kind == String:
			pos, err = decodeDictCol(data, pos, v, n)
		default:
			return nil, 0, fmt.Errorf("vector: batch column %d has invalid encoding tag %d for kind %v", i, tag, kind)
		}
		if err != nil {
			return nil, 0, err
		}
		b.Cols[i] = v
	}
	return b, pos, nil
}

// decodeRawCol reads a raw-tagged column payload, bulk-decoding scalars.
func decodeRawCol(data []byte, pos int, v *Vector, n int) (int, error) {
	need := func(k int) error {
		if len(data)-pos < k {
			return fmt.Errorf("vector: truncated batch encoding at byte %d (need %d of %d)", pos, k, len(data))
		}
		return nil
	}
	switch v.Kind {
	case Int64:
		if err := need(8 * n); err != nil {
			return pos, err
		}
		v.I64 = v.I64[:n]
		for j := range v.I64 {
			v.I64[j] = int64(binary.LittleEndian.Uint64(data[pos+8*j:]))
		}
		pos += 8 * n
	case Float64:
		if err := need(8 * n); err != nil {
			return pos, err
		}
		v.F64 = v.F64[:n]
		for j := range v.F64 {
			v.F64[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[pos+8*j:]))
		}
		pos += 8 * n
	case String:
		if err := need(4 * n); err != nil {
			return pos, err
		}
		for j := 0; j < n; j++ {
			if err := need(4); err != nil {
				return pos, err
			}
			sl := int(binary.LittleEndian.Uint32(data[pos:]))
			pos += 4
			if err := need(sl); err != nil {
				return pos, err
			}
			v.Str = append(v.Str, string(data[pos:pos+sl]))
			pos += sl
		}
	}
	return pos, nil
}

// decodeRLECol reads an RLE-tagged column payload. Run lengths must sum to
// exactly the declared row count.
func decodeRLECol(data []byte, pos int, v *Vector, n int) (int, error) {
	need := func(k int) error {
		if len(data)-pos < k {
			return fmt.Errorf("vector: truncated batch encoding at byte %d (need %d of %d)", pos, k, len(data))
		}
		return nil
	}
	if err := need(4); err != nil {
		return pos, err
	}
	runs := int(binary.LittleEndian.Uint32(data[pos:]))
	pos += 4
	perRun := 12 // value + count for scalars; len + count minimum for strings
	if v.Kind == String {
		perRun = 8
	}
	if err := need(perRun * runs); err != nil {
		return pos, err
	}
	total := 0
	for r := 0; r < runs; r++ {
		var cnt int
		switch v.Kind {
		case Int64:
			val := int64(binary.LittleEndian.Uint64(data[pos:]))
			cnt = int(binary.LittleEndian.Uint32(data[pos+8:]))
			pos += 12
			if total+cnt > n {
				break
			}
			for k := 0; k < cnt; k++ {
				v.I64 = append(v.I64, val)
			}
		case Float64:
			val := math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
			cnt = int(binary.LittleEndian.Uint32(data[pos+8:]))
			pos += 12
			if total+cnt > n {
				break
			}
			for k := 0; k < cnt; k++ {
				v.F64 = append(v.F64, val)
			}
		case String:
			if err := need(4); err != nil {
				return pos, err
			}
			sl := int(binary.LittleEndian.Uint32(data[pos:]))
			pos += 4
			if err := need(sl + 4); err != nil {
				return pos, err
			}
			val := string(data[pos : pos+sl])
			pos += sl
			cnt = int(binary.LittleEndian.Uint32(data[pos:]))
			pos += 4
			if total+cnt > n {
				break
			}
			for k := 0; k < cnt; k++ {
				v.Str = append(v.Str, val)
			}
		}
		total += cnt
	}
	if total != n {
		return pos, fmt.Errorf("vector: rle column runs cover %d of %d declared rows", total, n)
	}
	return pos, nil
}

// decodeFORCol reads a frame-of-reference int64 column payload.
func decodeFORCol(data []byte, pos int, v *Vector, n int) (int, error) {
	need := func(k int) error {
		if len(data)-pos < k {
			return fmt.Errorf("vector: truncated batch encoding at byte %d (need %d of %d)", pos, k, len(data))
		}
		return nil
	}
	if err := need(9); err != nil {
		return pos, err
	}
	base := binary.LittleEndian.Uint64(data[pos:])
	bitw := data[pos+8]
	pos += 9
	if bitw > 64 {
		return pos, fmt.Errorf("vector: for column has bit width %d", bitw)
	}
	packed := BitPackLen(n, bitw)
	if err := need(packed); err != nil {
		return pos, err
	}
	v.I64 = v.I64[:n]
	BitUnpack(v.I64, data[pos:pos+packed], 0, bitw)
	for j := range v.I64 {
		v.I64[j] += int64(base)
	}
	pos += packed
	return pos, nil
}

// decodeDictCol reads a dictionary string column payload, validating every
// code against the dictionary size.
func decodeDictCol(data []byte, pos int, v *Vector, n int) (int, error) {
	need := func(k int) error {
		if len(data)-pos < k {
			return fmt.Errorf("vector: truncated batch encoding at byte %d (need %d of %d)", pos, k, len(data))
		}
		return nil
	}
	if err := need(4); err != nil {
		return pos, err
	}
	dn := int(binary.LittleEndian.Uint32(data[pos:]))
	pos += 4
	if err := need(4 * dn); err != nil {
		return pos, err
	}
	dict := make([]string, 0, dn)
	for j := 0; j < dn; j++ {
		if err := need(4); err != nil {
			return pos, err
		}
		sl := int(binary.LittleEndian.Uint32(data[pos:]))
		pos += 4
		if err := need(sl); err != nil {
			return pos, err
		}
		dict = append(dict, string(data[pos:pos+sl]))
		pos += sl
	}
	if err := need(1); err != nil {
		return pos, err
	}
	bitw := data[pos]
	pos++
	if bitw > 64 {
		return pos, fmt.Errorf("vector: dict column has code bit width %d", bitw)
	}
	packed := BitPackLen(n, bitw)
	if err := need(packed); err != nil {
		return pos, err
	}
	var blk [256]uint64
	for lo := 0; lo < n; lo += len(blk) {
		codes := blk[:min(len(blk), n-lo)]
		BitUnpack(codes, data[pos:pos+packed], lo, bitw)
		for _, code := range codes {
			if code >= uint64(dn) {
				return pos, fmt.Errorf("vector: dict column code %d outside dictionary of %d", code, dn)
			}
			v.Str = append(v.Str, dict[code])
		}
	}
	pos += packed
	return pos, nil
}
