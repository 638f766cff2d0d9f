package wire

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"bdcc/internal/iosim"
)

// HeaderLen is the size of the frame header: u32 payload length, u64 id,
// u8 type. Every message of either protocol is one frame.
const HeaderLen = 4 + 8 + 1

// TypeHello is the frame type of the hello exchange, in both protocols; the
// other types are the protocol's own.
const TypeHello = byte(1)

// MaxPayload bounds what a peer can make us allocate from a 13-byte header:
// well above any real message, well below an OOM-by-garbage. Read refuses a
// frame claiming more; senders check their payload against it first, so that
// an oversized unit or result fails alone instead of costing the session.
const MaxPayload = 1 << 30

// CheckPayload is the sender's side of MaxPayload: it names what and its size
// when an n-byte payload is over the cap, nil otherwise.
func CheckPayload(n int, what string) error {
	if n > MaxPayload {
		return fmt.Errorf("%s encodes to %d bytes, over the %d-byte frame cap", what, n, MaxPayload)
	}
	return nil
}

// HandshakeTimeout bounds a dial and the hello exchange on both sides, so a
// black-holed address or a non-protocol listener fails instead of hanging.
const HandshakeTimeout = 10 * time.Second

// WriteTimeout bounds every single frame write. A peer that is alive at the
// TCP level but not consuming would otherwise park the writer forever once
// the transport window fills; with the deadline a stall becomes a write
// error the caller handles like any lost connection. Generous — a 1 GiB
// frame crosses a 1 Gbps link in ~10 s.
const WriteTimeout = 2 * time.Minute

// Buf returns a buffer with the frame header reserved up front, so encoders
// append the payload directly behind it and Write ships the single buffer
// with no second copy.
func Buf() []byte { return make([]byte, HeaderLen) }

func putHeader(hdr []byte, n int, id uint64, typ byte) {
	binary.LittleEndian.PutUint32(hdr, uint32(n))
	binary.LittleEndian.PutUint64(hdr[4:], id)
	hdr[12] = typ
}

// Write patches the reserved header of frame (a Buf-based buffer) and sends
// it as one message; acct, when non-nil, charges the message to the network
// model. One frame at a time per direction: callers hold their write mutex.
func Write(conn net.Conn, acct *iosim.Accountant, id uint64, typ byte, frame []byte) error {
	putHeader(frame, len(frame)-HeaderLen, id, typ)
	if acct != nil {
		acct.AddRun(1, int64(len(frame)))
	}
	conn.SetWriteDeadline(time.Now().Add(WriteTimeout))
	_, err := conn.Write(frame)
	return err
}

// WriteShared sends payload as one frame without owning it: the header goes
// out from a buffer of its own and the payload from where it lies (one
// writev on a TCP connection), so bytes shared by many sessions are never
// copied behind a fresh header.
func WriteShared(conn net.Conn, acct *iosim.Accountant, id uint64, typ byte, payload []byte) error {
	bufs := net.Buffers{Buf(), payload}
	putHeader(bufs[0], len(payload), id, typ)
	if acct != nil {
		acct.AddRun(1, int64(HeaderLen+len(payload)))
	}
	conn.SetWriteDeadline(time.Now().Add(WriteTimeout))
	_, err := bufs.WriteTo(conn)
	return err
}

// Read reads one frame, charging it to acct when non-nil (the side that
// meters a session meters both directions, so every message is charged
// exactly once).
func Read(conn net.Conn, acct *iosim.Accountant) (id uint64, typ byte, payload []byte, err error) {
	var hdr [HeaderLen]byte
	if _, err = io.ReadFull(conn, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxPayload {
		return 0, 0, nil, fmt.Errorf("wire: frame claims %d-byte payload (cap %d)", n, MaxPayload)
	}
	payload = make([]byte, n)
	if _, err = io.ReadFull(conn, payload); err != nil {
		return 0, 0, nil, err
	}
	if acct != nil {
		acct.AddRun(1, int64(HeaderLen)+int64(n))
	}
	return binary.LittleEndian.Uint64(hdr[4:]), hdr[12], payload, nil
}

// Hello is the dialing half of the hello exchange, bounded by
// HandshakeTimeout: it presents magic, version and the shared secret (empty =
// none) and returns the capacity the peer announces. Versions must match
// exactly; a peer whose secret differs drops the connection without a reply,
// which surfaces here as a read error.
func Hello(conn net.Conn, acct *iosim.Accountant, magic string, version uint16, token string) (capacity int, err error) {
	if len(token) > math.MaxUint16 {
		return 0, fmt.Errorf("auth token longer than the hello's u16 length field")
	}
	conn.SetDeadline(time.Now().Add(HandshakeTimeout))
	hello := binary.LittleEndian.AppendUint16(append(Buf(), magic...), version)
	hello = append(binary.LittleEndian.AppendUint16(hello, uint16(len(token))), token...)
	if err := Write(conn, acct, 0, TypeHello, hello); err != nil {
		return 0, fmt.Errorf("hello: %w", err)
	}
	_, typ, payload, err := Read(conn, acct)
	if err != nil {
		return 0, fmt.Errorf("hello reply: %w", err)
	}
	conn.SetDeadline(time.Time{})
	r := NewReader(payload)
	v, announced := r.U16(), r.U16()
	if typ != TypeHello || r.Err() != nil {
		return 0, fmt.Errorf("malformed hello reply (type %d, %d bytes)", typ, len(payload))
	}
	if v != version {
		return 0, fmt.Errorf("peer speaks %s version %d, this build speaks %d", magic, v, version)
	}
	return int(announced), nil
}

// Accept is the listening half: it reports whether the session may proceed.
// A peer that is not one of ours — wrong frame, wrong magic, or one that
// stalls — is owed no reply. Neither is one presenting the wrong shared
// secret (compared in constant time, before anything is written): it learns
// nothing, not the version, not that anything listens here beyond TCP. A
// hello too short to hold a token presents none, which only matches a side
// that requires none. Every other peer gets our version and capacity, and the
// session proceeds only if its version is ours: it reports the mismatch.
func Accept(conn net.Conn, magic string, version uint16, token string, capacity int) bool {
	conn.SetReadDeadline(time.Now().Add(HandshakeTimeout))
	_, typ, payload, err := Read(conn, nil)
	r := NewReader(payload)
	if err != nil || typ != TypeHello || string(r.Take(len(magic))) != magic {
		return false
	}
	v := r.U16()
	if r.Err() != nil {
		return false
	}
	conn.SetReadDeadline(time.Time{})
	if subtle.ConstantTimeCompare(r.Take(int(r.U16())), []byte(token)) != 1 {
		return false
	}
	reply := binary.LittleEndian.AppendUint16(Buf(), version)
	reply = binary.LittleEndian.AppendUint16(reply, uint16(capacity))
	return Write(conn, nil, 0, TypeHello, reply) == nil && v == version
}
