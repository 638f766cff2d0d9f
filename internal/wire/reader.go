// Package wire is the byte and session layer the two protocols stand on
// (docs/WIRE.md): one bounds-checked Reader for bytes that crossed a trust
// boundary, the 13-byte frame both protocols put around a payload, the hello
// exchange that opens a session, and the sessions themselves (session.go) —
// the listening side's accept loop, session registry and drain, the dialing
// side's call registry and read loop. It knows no payload: the worker
// protocol (internal/shard) and the client protocol (internal/serve) keep
// their magic, version, frame-type tables and frame handlers; the codecs
// (internal/vector, internal/expr, internal/storage, internal/shard,
// internal/serve) keep their layouts and read them through Reader.
package wire

import (
	"encoding/binary"
	"fmt"
)

// MaxDepth bounds how deep a Reader's caller may nest (Enter). Plans nest
// their expressions a few dozen levels at most; without a bound a payload of
// nothing but one-byte nesting tags recurses until the stack overflows, which
// no recover catches.
const MaxDepth = 256

// Reader walks untrusted bytes front to back. The first failure sticks: every
// later read returns a zero value, so a decoder reads a whole structure and
// checks Err once at the end — and before any count it read sizes an
// allocation or a loop (Count and Uvarint check those against the bytes left).
type Reader struct {
	b     []byte
	err   error
	depth int
}

// NewReader returns a reader over b, which it never writes to.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Fail records the reader's first failure.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first failure, nil when every read so far held up.
func (r *Reader) Err() error { return r.err }

// Len returns the number of bytes not yet read.
func (r *Reader) Len() int { return len(r.b) }

// Rest returns the bytes not yet read without consuming them, for a nested
// decoder that reports how many it used (Take them afterwards).
func (r *Reader) Rest() []byte { return r.b }

// Close returns the first failure, or an error when bytes are left over: a
// payload is exactly one structure.
func (r *Reader) Close() error {
	if r.err == nil && len(r.b) > 0 {
		r.Fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

// Take returns the next n bytes, a window of the input; nil on failure.
func (r *Reader) Take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.b) {
		r.Fail("%d bytes wanted, %d left", n, len(r.b))
		return nil
	}
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.Take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Uvarint reads a uvarint no larger than limit. A count of items that each
// take at least one byte is read with Len() as its limit, so a damaged count
// cannot size an allocation beyond the input.
func (r *Reader) Uvarint(what string, limit int) int {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b)
	if n <= 0 || limit < 0 || x > uint64(limit) {
		r.Fail("%s unreadable or above %d", what, limit)
		return 0
	}
	r.b = r.b[n:]
	return int(x)
}

// Count checks a fixed-width count just read — n items of at least each bytes
// — against the bytes left and returns it, 0 on failure.
func (r *Reader) Count(what string, n uint32, each int) int {
	if r.err != nil || int64(n)*int64(each) > int64(len(r.b)) {
		r.Fail("%d %s cannot fit in %d bytes", n, what, len(r.b))
		return 0
	}
	return int(n)
}

// Str reads the protocols' string form (AppendString): a u32 byte length,
// then the bytes, copied out of the input.
func (r *Reader) Str() string {
	return string(r.Take(r.Count("string bytes", r.U32(), 1)))
}

// AppendString appends the protocols' string form of s to buf.
func AppendString(buf []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(buf, uint32(len(s))), s...)
}

// Enter marks one more level of nesting in a recursive decoder and reports
// whether the decoder may descend; past MaxDepth it fails the reader. Leave
// undoes it on the way out.
func (r *Reader) Enter() bool {
	if r.depth++; r.depth > MaxDepth {
		r.Fail("nested deeper than %d", MaxDepth)
	}
	return r.err == nil
}

// Leave undoes one Enter.
func (r *Reader) Leave() { r.depth-- }
