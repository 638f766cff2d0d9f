package serve

import (
	"errors"
	"fmt"
	"net"

	"bdcc/internal/engine"
	"bdcc/internal/wire"
)

// Client is one session against a bdccd daemon: requests multiplex freely —
// Query and Stats are safe to call from any number of goroutines, and each
// request is a call of the session, answered by id.
type Client struct {
	sess *wire.Client
	name string
}

// Dial connects to a daemon at addr, presenting token in the hello (empty =
// none). A token-mismatched daemon drops the connection without a reply,
// surfacing here as a hello-reply read error.
func Dial(addr, token string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, wire.HandshakeTimeout)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	sess, err := wire.NewClient(conn, nil, ProtoMagic, ProtoVersion, token, func(err error) error {
		return fmt.Errorf("serve: %s: session down: %w", addr, err)
	})
	if err != nil {
		return nil, fmt.Errorf("serve: %s: %w", addr, err)
	}
	return &Client{sess: sess, name: addr}, nil
}

// Pools returns the daemon's announced concurrent-query capacity.
func (c *Client) Pools() int { return c.sess.Capacity() }

// Close tears the session down; pending requests resolve with a session-down
// error.
func (c *Client) Close() error { return c.sess.Close() }

// response is a request's one answer frame, or the session's failure.
type response struct {
	typ     byte
	payload []byte
	err     error
}

// reply is one request in flight.
type reply chan response

func (r reply) Frame(typ byte, payload []byte) (bool, error) {
	r <- response{typ: typ, payload: payload}
	return true, nil
}

func (r reply) Fail(err error) { r <- response{err: err} }

// call sends one request and returns the payload of its answer, which must
// be a want frame.
func (c *Client) call(typ byte, frame []byte, want byte) ([]byte, error) {
	ch := make(reply, 1)
	id, err := c.sess.Register(ch)
	if err != nil {
		return nil, err
	}
	if err := c.sess.Write(id, typ, frame); err != nil {
		c.sess.Fail(err) // the read loop fails the call
	}
	a := <-ch
	if a.err == nil && a.typ != want {
		a.err = fmt.Errorf("serve: %s: frame type %d answers a type-%d request", c.name, a.typ, typ)
	}
	return a.payload, a.err
}

// Query runs one query on the daemon and returns its materialized result,
// decoded bit-exactly. A daemon-side admission or memory rejection returns
// an ErrRejected-wrapped error; a query failure returns its error text.
func (c *Client) Query(scheme, query string) (*engine.Result, error) {
	p, err := c.call(frameQuery, encodeQuery(scheme, query, wire.Buf()), frameResult)
	if err != nil {
		return nil, err
	}
	if len(p) < 1 {
		return nil, fmt.Errorf("serve: %s: result frame without a status", c.name)
	}
	switch p[0] {
	case statusOK:
		return decodeResult(p[1:])
	case statusRejected:
		return nil, fmt.Errorf("%w: %s", ErrRejected, string(p[1:]))
	default:
		return nil, errors.New(string(p[1:]))
	}
}

// Stats fetches the daemon's admission and memory counters.
func (c *Client) Stats() (Stats, error) {
	p, err := c.call(frameStats, wire.Buf(), frameStatsReply)
	if err != nil {
		return Stats{}, err
	}
	return decodeStats(p)
}
