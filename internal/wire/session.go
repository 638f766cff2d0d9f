package wire

import (
	"errors"
	"net"
	"sync"
	"time"

	"bdcc/internal/iosim"
)

// This file is the session layer both protocols run above the frame. A
// Listener accepts sessions — hello, one read loop each, the drain at
// shutdown — and hands every frame to the protocol's handler; a Client dials
// one session, numbers its calls, and hands every answer to the call it
// belongs to. A protocol brings only its frame handlers and codecs.

// ErrClosed is what a closed Listener's Serve and a closed Client's Register
// return.
var ErrClosed = errors.New("wire: closed")

// Handler receives one session's frames in arrival order, on the session's
// read loop. An error drops the session.
type Handler func(id uint64, typ byte, payload []byte) error

// Listener is the listening half of a protocol. Set the exported fields
// before serving; the zero value of the rest is ready.
type Listener struct {
	Magic    string
	Version  uint16
	Token    string // the shared secret every hello must present ("" = none)
	Capacity int    // announced in the hello reply
	// Open is called once per session, after its hello, and returns the
	// handler of the session's frames; per-session protocol state lives in
	// its closure.
	Open func(*Session) Handler

	mu     sync.Mutex
	lns    []net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Session is one accepted connection.
type Session struct {
	conn  net.Conn
	wmu   sync.Mutex
	tasks sync.WaitGroup
	end   func() // tasks.Done, bound once so that Begin allocates nothing
	ended []func()
}

// Write sends one frame on the session; concurrent writers take turns. A
// failed write means the peer is gone, which the read loop sees too.
func (s *Session) Write(id uint64, typ byte, frame []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return Write(s.conn, nil, id, typ, frame)
}

// Begin registers work that outlives the frame that started it (a unit task,
// a query goroutine); the session does not end before end is called. A
// session ends by closing its connection first — failing any write the work
// is parked on — and then joining the work.
func (s *Session) Begin() (end func()) {
	s.tasks.Add(1)
	return s.end
}

// OnEnd registers fn to run once the session has ended — its connection
// closed and its work joined — on the session's own goroutine. Call it from
// Open or from the session's handler.
func (s *Session) OnEnd(fn func()) { s.ended = append(s.ended, fn) }

// Serve accepts sessions on ln until ln fails or the listener closes, and
// returns nil after Close.
func (l *Listener) Serve(ln net.Listener) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	l.lns = append(l.lns, ln)
	l.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			l.mu.Lock()
			closed := l.closed
			l.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		l.ServeConn(conn)
	}
}

// ServeConn starts one session over an established connection (an accepted
// socket, a net.Pipe end) and returns at once; the session runs on its own
// goroutine until the peer or the listener closes it. The returned channel
// closes when the session has ended: its work joined and its OnEnd
// functions run.
func (l *Listener) ServeConn(conn net.Conn) <-chan struct{} {
	ended := make(chan struct{})
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		conn.Close()
		close(ended)
		return ended
	}
	if l.conns == nil {
		l.conns = make(map[net.Conn]struct{})
	}
	l.conns[conn] = struct{}{}
	l.wg.Add(1)
	l.mu.Unlock()
	go func() {
		defer l.wg.Done()
		defer close(ended)
		l.session(conn)
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
	}()
	return ended
}

// session is one connection's lifetime: hello, the read loop, then the
// teardown — connection closed, work joined.
func (l *Listener) session(conn net.Conn) {
	defer conn.Close()
	if !Accept(conn, l.Magic, l.Version, l.Token, l.Capacity) {
		return
	}
	s := &Session{conn: conn}
	s.end = s.tasks.Done
	handle := l.Open(s)
	for {
		id, typ, payload, err := Read(conn, nil)
		if err == nil {
			err = handle(id, typ, payload)
		}
		if err != nil {
			break
		}
	}
	conn.Close()
	s.tasks.Wait()
	for _, fn := range s.ended {
		fn()
	}
}

// Close stops every listener, closes every session's connection — failing
// its peer's calls — and waits for the sessions to end. With d > 0 it waits
// at most d and returns the number of sessions still running, which are
// abandoned: a session wedged in its work would otherwise hold Close
// forever. With d <= 0 it waits for the whole drain and returns 0.
func (l *Listener) Close(d time.Duration) (abandoned int) {
	l.mu.Lock()
	l.closed = true
	lns := l.lns
	l.lns = nil
	conns := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	if d <= 0 {
		l.wg.Wait()
		return 0
	}
	drained := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(drained)
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-drained:
		return 0
	case <-t.C:
	}
	l.mu.Lock()
	n := len(l.conns)
	l.mu.Unlock()
	if n == 0 {
		<-drained // the last session ended between the timeout and the count
	}
	return n
}

// Call is one request in flight on a Client. Frame is handed every frame
// that carries the call's id, on the read loop, and reports whether it was
// the call's last; an error fails the session. Fail ends the call with the
// session's failure instead. A registered call sees exactly one of a last
// Frame and a Fail, and never two deliveries at once.
type Call interface {
	Frame(typ byte, payload []byte) (last bool, err error)
	Fail(err error)
}

// Client is the dialing half of a session: the hello, the id space, the
// registry of calls in flight and the read loop that delivers their answers.
// Every delivery and the failure drain run on the read loop, one at a time,
// which is what makes every call complete exactly once.
type Client struct {
	conn     net.Conn
	acct     *iosim.Accountant
	down     func(error) error
	capacity int

	wmu sync.Mutex // one frame at a time on the stream

	mu     sync.Mutex
	calls  map[uint64]Call
	nextID uint64
	broken error
	closed bool

	loop sync.WaitGroup
}

// NewClient performs the hello on conn (Hello; acct, when non-nil, is charged
// every frame either way) and starts the read loop. The client owns conn from
// here on; a failed hello closes it. down wraps the session's first failure
// once: the wrapped error ends every call then in flight and refuses every
// later one.
func NewClient(conn net.Conn, acct *iosim.Accountant, magic string, version uint16, token string, down func(error) error) (*Client, error) {
	capacity, err := Hello(conn, acct, magic, version, token)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c := &Client{conn: conn, acct: acct, down: down, capacity: capacity, calls: make(map[uint64]Call)}
	c.loop.Add(1)
	go c.readLoop()
	return c, nil
}

// Capacity returns what the peer announced in its hello reply.
func (c *Client) Capacity() int { return c.capacity }

// Register files call under the session's next id, for the caller to send
// its request under. It refuses — ErrClosed after Close, else the session's
// failure — once the session can answer nothing more.
func (c *Client) Register(call Call) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	if c.broken != nil {
		return 0, c.broken
	}
	id := c.nextID
	c.nextID++
	c.calls[id] = call
	return id, nil
}

// Forget takes back a call its caller gives up on — one whose request was
// never sent, or that timed out — and reports whether it was still
// registered. When it was not, the call has been or is being completed.
func (c *Client) Forget(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.calls[id]
	delete(c.calls, id)
	return ok
}

// Write sends one frame; concurrent writers take turns. A caller whose write
// fails calls Fail.
func (c *Client) Write(id uint64, typ byte, frame []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return Write(c.conn, c.acct, id, typ, frame)
}

// WriteShared is Write for a payload the caller does not own (WriteShared).
func (c *Client) WriteShared(id uint64, typ byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return WriteShared(c.conn, c.acct, id, typ, payload)
}

// Fail breaks the session over err unless it already broke, and returns the
// session's failure. The connection closes, and the read loop then ends every
// call in flight; Fail itself completes no call, so it is safe under the
// caller's own locks.
func (c *Client) Fail(err error) error {
	c.mu.Lock()
	if c.broken == nil {
		c.broken = c.down(err)
	}
	err = c.broken
	c.mu.Unlock()
	c.conn.Close()
	return err
}

// readLoop delivers each frame to the call its id names — a frame for no
// registered call is dropped — until the stream or a call's Frame fails, and
// then drains the registry with the session's failure.
func (c *Client) readLoop() {
	defer c.loop.Done()
	var err error
	for err == nil {
		var id uint64
		var typ byte
		var payload []byte
		if id, typ, payload, err = Read(c.conn, c.acct); err != nil {
			break
		}
		c.mu.Lock()
		call := c.calls[id]
		c.mu.Unlock()
		if call == nil {
			continue
		}
		var last bool
		if last, err = call.Frame(typ, payload); last && err == nil {
			c.Forget(id)
		}
	}
	c.mu.Lock()
	if c.broken == nil {
		c.broken = c.down(err)
	}
	err = c.broken
	calls := c.calls
	c.calls = nil
	c.mu.Unlock()
	c.conn.Close()
	for _, call := range calls {
		call.Fail(err)
	}
}

// Close tears the session down and joins the read loop, which ends every
// call still in flight with the session's failure first. It must not be
// called from a Call's Frame or Fail, which run on that loop.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.conn.Close()
	c.loop.Wait()
	return nil
}
