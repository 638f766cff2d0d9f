package wire

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Frame types of the test protocol: a request carries the number of frames
// (0–3) its answer has; an answer is parts closed by a last frame.
const (
	tRequest = byte(2)
	tPart    = byte(3)
	tLast    = byte(4)
)

// The three faults a faultConn does at byte `at` of what it writes.
const (
	faultCut      = iota // close at the first frame boundary from `at` on
	faultTruncate        // write up to `at`, mid-frame, then close
	faultFlip            // set the high bit of the length of the first frame from `at` on
)

// faultConn is one end of a pipe that does one fault in the stream it
// writes. Every frame is one Write, and the writers of a session take turns,
// so n needs no lock.
type faultConn struct {
	net.Conn
	fault, at, n int
	hit          bool
}

func (f *faultConn) Write(b []byte) (int, error) {
	start := f.n
	f.n += len(b)
	switch {
	case f.hit:
	case f.fault == faultCut && start >= f.at:
		f.hit = true
		f.Conn.Close()
		return 0, net.ErrClosed
	case f.fault == faultTruncate && f.n > f.at:
		f.hit = true
		if f.at > start {
			f.Conn.Write(b[:f.at-start])
		}
		f.Conn.Close()
		return f.at - start, net.ErrClosed
	case f.fault == faultFlip && start >= f.at:
		f.hit = true
		flipped := append([]byte(nil), b...)
		flipped[3] ^= 0x80 // past MaxPayload: no reader accepts the frame
		return f.Conn.Write(flipped)
	}
	return f.Conn.Write(b)
}

// recorder is a test call: it counts its parts, its terminal deliveries (a
// last frame or a Fail) and any frame delivered after the terminal one.
type recorder struct {
	mu                    sync.Mutex
	parts, terminal, late int
	ended                 chan struct{}
}

func (r *recorder) Frame(typ byte, _ []byte) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.terminal > 0 {
		r.late++
	}
	switch typ {
	case tPart:
		r.parts++
		return false, nil
	case tLast:
		r.end()
		return true, nil
	}
	return false, fmt.Errorf("frame type %d", typ)
}

func (r *recorder) Fail(error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.end()
}

func (r *recorder) end() {
	if r.terminal++; r.terminal == 1 {
		close(r.ended)
	}
}

// TestSessionUnderFaults drives a Listener and a Client over a pipe whose
// one end — either end, by seed — cuts, truncates or corrupts its stream at
// a seeded byte, hello included. Concurrent calls are each answered with 0–3
// frames from work the session joins. Whatever the fault, every registered
// call sees exactly one terminal delivery and nothing after it, a refused
// call sees none, both sides close, and no goroutine outlives them.
func TestSessionUnderFaults(t *testing.T) {
	base := runtime.NumGoroutine()
	for seed := int64(0); seed < 256; seed++ {
		faultSeed(t, seed)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines alive, %d before\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

func faultSeed(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	l := &Listener{Magic: "BDCT", Version: 1, Capacity: 2, Open: func(s *Session) Handler {
		return func(id uint64, typ byte, payload []byte) error {
			if typ != tRequest || len(payload) != 1 {
				return fmt.Errorf("not a request")
			}
			end := s.Begin()
			go func() {
				defer end()
				for i, n := 1, int(payload[0]); i <= n; i++ {
					typ := tPart
					if i == n {
						typ = tLast
					}
					if s.Write(id, typ, Buf()) != nil {
						return
					}
				}
			}()
			return nil
		}
	}}
	a, b := net.Pipe()
	fc := &faultConn{fault: rng.Intn(3), at: rng.Intn(400)}
	server, client := net.Conn(a), net.Conn(b)
	if rng.Intn(2) == 0 {
		fc.Conn, server = a, fc
	} else {
		fc.Conn, client = b, fc
	}
	within := func(what string, f func()) {
		done := make(chan struct{})
		go func() {
			f()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("seed %d: %s never returned", seed, what)
		}
	}
	l.ServeConn(server)
	c, err := NewClient(client, nil, "BDCT", 1, "", func(err error) error { return fmt.Errorf("down: %w", err) })
	if err != nil { // the fault hit the hello
		within("Listener.Close", func() { l.Close(0) })
		return
	}

	recs := make([]*recorder, 8)
	answer := make([]int, len(recs))
	registered := make([]bool, len(recs))
	var wg sync.WaitGroup
	for i := range recs {
		recs[i], answer[i] = &recorder{ended: make(chan struct{})}, rng.Intn(4)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := c.Register(recs[i])
			if registered[i] = err == nil; err != nil {
				return
			}
			if err := c.Write(id, tRequest, append(Buf(), byte(answer[i]))); err != nil {
				c.Fail(err)
			}
		}(i)
	}
	wg.Wait()
	// A call whose answer has frames ends by its last one or by the
	// session's failure; a call answered by none waits for Close.
	for i, r := range recs {
		if registered[i] && answer[i] > 0 {
			within("an answered call", func() { <-r.ended })
		}
	}
	within("Client.Close", func() { c.Close() })
	within("Listener.Close", func() { l.Close(0) })
	for i, r := range recs {
		r.mu.Lock()
		terminal, late := r.terminal, r.late
		r.mu.Unlock()
		want := 0
		if registered[i] {
			want = 1
		}
		if terminal != want || late != 0 {
			t.Fatalf("seed %d (fault %d at byte %d): call %d saw %d terminal deliveries and %d late frames, want %d and 0",
				seed, fc.fault, fc.at, i, terminal, late, want)
		}
	}
}
