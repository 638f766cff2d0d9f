package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"

	"bdcc/internal/engine"
	"bdcc/internal/wire"
)

// Client is one session against a bdccd daemon: a framed connection whose
// requests multiplex freely — Query and Stats are safe to call from any
// number of goroutines, responses are matched by request id.
type Client struct {
	conn net.Conn
	name string

	wmu sync.Mutex

	mu      sync.Mutex
	pending map[uint64]chan response
	nextID  uint64
	broken  error
	closed  bool

	pools int
	loop  sync.WaitGroup
}

type response struct {
	typ     byte
	payload []byte
}

// Dial connects to a daemon at addr, presenting token in the hello (empty =
// none). A token-mismatched daemon drops the connection without a reply,
// surfacing here as a hello-reply read error.
func Dial(addr, token string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, wire.HandshakeTimeout)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	return NewClient(conn, addr, token)
}

// NewClient performs the hello exchange on an established connection and
// starts the response reader; it owns conn from this point on.
func NewClient(conn net.Conn, name, token string) (*Client, error) {
	c := &Client{conn: conn, name: name, pending: make(map[uint64]chan response)}
	var err error
	if c.pools, err = wire.Hello(conn, nil, ProtoMagic, ProtoVersion, token); err != nil {
		conn.Close()
		return nil, fmt.Errorf("serve: %s: %w", name, err)
	}
	c.loop.Add(1)
	go c.readLoop()
	return c, nil
}

// Pools returns the daemon's announced concurrent-query capacity.
func (c *Client) Pools() int { return c.pools }

// call registers a request id, ships the frame, and awaits the response.
func (c *Client) call(typ byte, frame []byte) (response, error) {
	ch := make(chan response, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return response{}, errClosed
	}
	if c.broken != nil {
		err := c.broken
		c.mu.Unlock()
		return response{}, err
	}
	id := c.nextID
	c.nextID++
	c.pending[id] = ch
	c.mu.Unlock()
	c.wmu.Lock()
	err := wire.Write(c.conn, nil, id, typ, frame)
	c.wmu.Unlock()
	if err != nil {
		c.fail(err)
	}
	r, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.broken
		c.mu.Unlock()
		if err == nil {
			err = errClosed
		}
		return response{}, err
	}
	return r, nil
}

// Query runs one query on the daemon and returns its materialized result,
// decoded bit-exactly. A daemon-side admission or memory rejection returns
// an ErrRejected-wrapped error; a query failure returns its error text.
func (c *Client) Query(scheme, query string) (*engine.Result, error) {
	r, err := c.call(frameQuery, encodeQuery(scheme, query, wire.Buf()))
	if err != nil {
		return nil, err
	}
	if r.typ != frameResult || len(r.payload) < 1 {
		return nil, fmt.Errorf("serve: %s: malformed result frame (type %d, %d bytes)", c.name, r.typ, len(r.payload))
	}
	switch r.payload[0] {
	case statusOK:
		return decodeResult(r.payload[1:])
	case statusRejected:
		return nil, fmt.Errorf("%w: %s", ErrRejected, string(r.payload[1:]))
	default:
		return nil, errors.New(string(r.payload[1:]))
	}
}

// Stats fetches the daemon's admission and memory counters.
func (c *Client) Stats() (Stats, error) {
	r, err := c.call(frameStats, wire.Buf())
	if err != nil {
		return Stats{}, err
	}
	if r.typ != frameStatsReply {
		return Stats{}, fmt.Errorf("serve: %s: malformed stats reply (type %d)", c.name, r.typ)
	}
	var st Stats
	if err := json.Unmarshal(r.payload, &st); err != nil {
		return Stats{}, fmt.Errorf("serve: %s: stats reply: %w", c.name, err)
	}
	return st, nil
}

// fail breaks the session: the connection closes and every pending and
// later request resolves with the first failure.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.broken == nil {
		c.broken = fmt.Errorf("serve: %s: session down: %w", c.name, err)
	}
	chans := make([]chan response, 0, len(c.pending))
	for id, ch := range c.pending {
		chans = append(chans, ch)
		delete(c.pending, id)
	}
	c.mu.Unlock()
	c.conn.Close()
	for _, ch := range chans {
		close(ch)
	}
}

func (c *Client) readLoop() {
	defer c.loop.Done()
	for {
		id, typ, payload, err := wire.Read(c.conn, nil)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		ch := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ch != nil {
			ch <- response{typ: typ, payload: payload}
		}
	}
}

// Close tears the session down and joins the reader; pending requests
// resolve with a session-down error.
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
	c.fail(errClosed)
	return nil
}
