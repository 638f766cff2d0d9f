package wire

import (
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"testing"

	"bdcc/internal/iosim"
)

// TestReader: reads come back in order, the first failure sticks and zeroes
// every later read, and no count is honoured beyond the bytes left.
func TestReader(t *testing.T) {
	buf := []byte{7}
	buf = binary.LittleEndian.AppendUint16(buf, 0x0102)
	buf = binary.LittleEndian.AppendUint32(buf, 0x03040506)
	buf = binary.LittleEndian.AppendUint64(buf, 0x0708090a0b0c0d0e)
	buf = binary.AppendUvarint(buf, 300)
	buf = AppendString(buf, "snow☃man")
	buf = append(buf, 1, 2, 3)
	r := NewReader(buf)
	if a, b, c, d := r.U8(), r.U16(), r.U32(), r.U64(); a != 7 || b != 0x0102 || c != 0x03040506 || d != 0x0708090a0b0c0d0e {
		t.Fatalf("fixed-width reads: %d %#x %#x %#x", a, b, c, d)
	}
	if v, s := r.Uvarint("value", 300), r.Str(); v != 300 || s != "snow☃man" {
		t.Fatalf("uvarint %d, string %q", v, s)
	}
	if !bytes.Equal(r.Rest(), []byte{1, 2, 3}) || r.Len() != 3 {
		t.Fatalf("rest %v, %d left", r.Rest(), r.Len())
	}
	if got := r.Take(2); !bytes.Equal(got, []byte{1, 2}) || cap(got) != 2 {
		t.Fatalf("take: %v with capacity %d", got, cap(got))
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if err := r.Close(); err == nil || !strings.Contains(err.Error(), "1 trailing") {
		t.Fatalf("close over a left-over byte: %v", err)
	}
	if r.U8() != 0 || r.Take(0) != nil || r.Str() != "" || r.Uvarint("x", 9) != 0 {
		t.Fatal("a failed reader still reads")
	}

	for name, read := range map[string]func(r *Reader){
		"take past the end":        func(r *Reader) { r.Take(4) },
		"negative take":            func(r *Reader) { r.Take(-1) },
		"u64 of three bytes":       func(r *Reader) { r.U64() },
		"uvarint above its limit":  func(r *Reader) { r.Uvarint("count", 1) },
		"uvarint, negative limit":  func(r *Reader) { r.Uvarint("count", -1) },
		"count beyond the bytes":   func(r *Reader) { r.Count("items", 2, 2) },
		"count that overflows int": func(r *Reader) { r.Count("items", 1<<31, 1<<31) },
		"string longer than input": func(r *Reader) { r.Str() },
	} {
		r := NewReader([]byte{0xff, 0xff, 0x03})
		if read(&r); r.Err() == nil {
			t.Errorf("%s: no error", name)
		}
	}
	short := NewReader([]byte{0x80}) // a uvarint cut off mid-value
	if short.Uvarint("count", 1<<20); short.Err() == nil {
		t.Error("truncated uvarint: no error")
	}
	if r := NewReader([]byte{1, 2}); r.Count("items", 2, 1) != 2 || r.Close() == nil {
		t.Error("a count that fits must pass and leave the bytes unread")
	}
}

// TestReaderDepth: Enter admits MaxDepth levels, fails the next, and Leave
// gives a level back.
func TestReaderDepth(t *testing.T) {
	r := NewReader(nil)
	for i := 0; i < MaxDepth; i++ {
		if !r.Enter() {
			t.Fatalf("level %d refused", i+1)
		}
	}
	r.Leave()
	if !r.Enter() {
		t.Fatal("a level given back was refused")
	}
	if r.Enter() || r.Err() == nil {
		t.Fatalf("level %d admitted", MaxDepth+1)
	}
}

// TestFrames: a frame written is the frame read, owned or shared payload, each
// charged once to the side that meters; a header claiming more than
// MaxPayload is refused before anything is allocated for it.
func TestFrames(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	acct := iosim.NewAccountant(iosim.PaperSSD())
	payload := []byte("sixteen byte pay")
	go func() {
		Write(a, nil, 42, 9, append(Buf(), payload...))
		WriteShared(a, nil, 43, 8, payload)
		Write(a, nil, 44, 7, Buf())
		hdr := Buf()
		binary.LittleEndian.PutUint32(hdr, MaxPayload+1)
		a.Write(hdr)
	}()
	for i, want := range []struct {
		id      uint64
		typ     byte
		payload []byte
	}{{42, 9, payload}, {43, 8, payload}, {44, 7, nil}} {
		id, typ, got, err := Read(b, acct)
		if err != nil || id != want.id || typ != want.typ || !bytes.Equal(got, want.payload) {
			t.Fatalf("frame %d: id %d type %d payload %q: %v", i, id, typ, got, err)
		}
	}
	if st := acct.Stats(); st.Runs != 3 || st.Bytes != int64(3*HeaderLen+2*len(payload)) {
		t.Fatalf("accountant saw %d messages, %d bytes", st.Runs, st.Bytes)
	}
	if _, _, _, err := Read(b, acct); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversized claim: %v", err)
	}
}

// TestCheckPayload: the cap admits MaxPayload bytes and names the size of
// anything over it.
func TestCheckPayload(t *testing.T) {
	if err := CheckPayload(MaxPayload, "unit"); err != nil {
		t.Fatalf("a payload at the cap: %v", err)
	}
	if err := CheckPayload(MaxPayload+1, "unit"); err == nil || !strings.Contains(err.Error(), "unit encodes to 1073741825 bytes") {
		t.Fatalf("a payload one byte over the cap: %v", err)
	}
}

// TestHello drives both halves against each other and against hand-written
// peers: matching sessions proceed with the announced capacity; a version
// mismatch is answered (so the dialer can name both versions) and refused; a
// wrong or missing secret, a wrong magic and a non-hello frame get no reply.
func TestHello(t *testing.T) {
	exchange := func(serverToken, clientMagic string, clientVersion uint16, clientToken string) (accepted bool, capacity int, err error) {
		a, b := net.Pipe()
		defer a.Close()
		done := make(chan bool, 1)
		go func() {
			done <- Accept(b, "BDCT", 5, serverToken, 3)
			b.Close()
		}()
		capacity, err = Hello(a, nil, clientMagic, clientVersion, clientToken)
		return <-done, capacity, err
	}
	if ok, capacity, err := exchange("", "BDCT", 5, ""); !ok || capacity != 3 || err != nil {
		t.Fatalf("open session: accepted %v, capacity %d, %v", ok, capacity, err)
	}
	if ok, capacity, err := exchange("sesame", "BDCT", 5, "sesame"); !ok || capacity != 3 || err != nil {
		t.Fatalf("shared secret: accepted %v, capacity %d, %v", ok, capacity, err)
	}
	if ok, _, err := exchange("", "BDCT", 4, ""); ok || err == nil || !strings.Contains(err.Error(), "version 5, this build speaks 4") {
		t.Fatalf("version mismatch: accepted %v, %v", ok, err)
	}
	for name, c := range map[string]struct{ serverToken, magic, token string }{
		"wrong secret":      {"sesame", "BDCT", "guess"},
		"missing secret":    {"sesame", "BDCT", ""},
		"unexpected secret": {"", "BDCT", "extra"},
		"wrong magic":       {"", "BDCX", ""},
	} {
		if ok, _, err := exchange(c.serverToken, c.magic, 5, c.token); ok || err == nil || !strings.Contains(err.Error(), "hello reply") {
			t.Errorf("%s: accepted %v, dialer saw %v (want a dropped connection)", name, ok, err)
		}
	}
	if _, err := Hello(nil, nil, "BDCT", 5, strings.Repeat("x", 1<<16)); err == nil {
		t.Error("a token past the u16 length field was sent")
	}

	// A hello with no token field presents none; a frame that is no hello, or
	// a hello cut inside its version, is not a peer.
	for name, c := range map[string]struct {
		typ     byte
		payload string
		want    bool
	}{
		"no token field":   {TypeHello, "BDCT\x05\x00", true},
		"token cut short":  {TypeHello, "BDCT\x05\x00\x09\x00abc", true},
		"not a hello":      {9, "BDCT\x05\x00\x00\x00", false},
		"version cut":      {TypeHello, "BDCT\x05", false},
		"empty":            {TypeHello, "", false},
		"another protocol": {TypeHello, "BDCQ\x05\x00\x00\x00", false},
	} {
		a, b := net.Pipe()
		go func() {
			Write(a, nil, 0, c.typ, append(Buf(), c.payload...))
			Read(a, nil) // the reply, when one is owed
			a.Close()
		}()
		if got := Accept(b, "BDCT", 5, "", 1); got != c.want {
			t.Errorf("%s: accepted %v, want %v", name, got, c.want)
		}
		b.Close()
	}
}
