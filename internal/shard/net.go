package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bdcc/internal/engine"
	"bdcc/internal/expr"
	"bdcc/internal/iosim"
	"bdcc/internal/vector"
	"bdcc/internal/wire"
)

// This file is the network backend: the framed byte-stream protocol between
// a query (client half, engine.Backend) and a worker (Server half, the core
// of cmd/bdccworker), plus Dial for real TCP connections. Both halves are
// frame handlers over internal/wire's sessions. The simulated remote
// (sim.go) runs exactly this client against exactly this server over an
// in-process net.Pipe, so the simulation and the real network share one
// protocol implementation end to end. The full wire specification lives in
// docs/WIRE.md.

// Protocol identity. ProtoMagic opens every session's hello frame;
// ProtoVersion is negotiated in the hello exchange and must match exactly:
// any change to a payload layout is a new version, never an addition an old
// peer could misparse (docs/WIRE.md describes the protocol as it stands).
const (
	ProtoMagic   = "BDCW"
	ProtoVersion = 9
)

// Transport frame types; wire.TypeHello (1) opens the session. Every frame
// is one message on the stream (internal/wire): u32 payload length, u64 id,
// u8 type, payload. A sender checks its payload against wire.MaxPayload
// first, failing only the oversized unit — a work error, not a backend
// failure, so failover does not cascade it through the set (see
// docs/WIRE.md). A frame write that hits wire.WriteTimeout is a write error:
// the query side reroutes (ErrBackendDown) instead of blocking the feeder,
// the worker side abandons the stalled session's unit instead of parking
// tasks on the daemon's shared scheduler.
const (
	frameSetup      = byte(2)  // query → worker: one plan fragment; id = fragment id
	frameUnit       = byte(3)  // query → worker: one group unit; id = unit id
	frameBatch      = byte(4)  // worker → query: one result batch; id = unit id
	frameDone       = byte(5)  // worker → query: unit finished; payload = status (+stats or error)
	framePing       = byte(6)  // query → worker: liveness probe; id = a call id, like a unit's
	framePong       = byte(7)  // worker → query: ping echo; id = the ping's id
	framePartOffer  = byte(8)  // query → worker: partition digest + manifest; id = a call id
	framePartData   = byte(9)  // query → worker: one column frame of a partition; id = the offer's id
	framePartAnswer = byte(10) // worker → query: offer answer; payload = partResident or partSend
)

// Answers to a partition offer.
const (
	partResident = byte(0) // the worker holds the partition; no data follows
	partSend     = byte(1) // the worker needs the data frames
)

// ErrBackendDown marks transport-level backend failures — refused dials,
// connection loss, protocol corruption — as opposed to unit work errors,
// which cross the transport as frameDone text. The failover wrapper retries
// a unit on a surviving backend exactly when its error wraps ErrBackendDown;
// work errors are never retried (a rerun would fail identically).
var ErrBackendDown = errors.New("shard: backend down")

// client is the query half of the protocol: an engine.Backend over one
// wire session. It ships each operator's plan fragment once (frameSetup,
// keyed by fragment pointer), then one frameUnit per group, each a call of
// the session whose frameBatch/frameDone answers reach the unit's emit/done
// callbacks. The session's failure fails every pending and later unit with
// an ErrBackendDown-wrapped error.
type client struct {
	sess    *wire.Client
	name    string // dial address, or "sim" for the in-process pipe
	net     *iosim.Accountant
	workers int

	// wmu is the registry lock. It is held across a fragment's setup frame
	// and the first unit naming it, so the worker always has a fragment
	// before anything that uses it. frags is the by-pointer registry of
	// shipped fragments; fragsByKey indexes the same registrations by encoded
	// content, so two Fragment values with identical wire forms — e.g. the
	// same cached plan instantiated by two queries sharing this session —
	// ship one setup frame and alias one fragment id.
	wmu        sync.Mutex
	frags      map[*engine.Fragment]uint64
	fragsByKey map[string]uint64
	nextFrag   uint64

	// pmu serialises partition shipping on the session, and parts records
	// the digests the worker has bound for it, so a partition shipped twice
	// to one session (plan-time ship racing a re-admission re-ship) is
	// offered once.
	pmu   sync.Mutex
	parts map[partDigest]struct{}

	// scanIO, when set, receives the per-unit modeled read stats a done
	// frame carries for scan units — the worker's local device reads, fed
	// into the query's per-worker scan accountant.
	scanIO atomic.Pointer[func(runs, pages, bytes int64)]
}

// newClient performs the hello exchange on conn (bounded by
// wire.HandshakeTimeout), presenting token as the shared secret (empty = none
// configured), and starts the session. It owns conn from this point on
// (Close closes it). A worker whose token differs drops the connection
// without a reply, which surfaces here as a hello-reply read error.
func newClient(conn net.Conn, name, token string, acct *iosim.Accountant) (*client, error) {
	sess, err := wire.NewClient(conn, acct, ProtoMagic, ProtoVersion, token, func(err error) error {
		return fmt.Errorf("%w: %s: %v", ErrBackendDown, name, err)
	})
	if err != nil {
		return nil, fmt.Errorf("shard: %s: %w", name, err)
	}
	return &client{
		sess:       sess,
		name:       name,
		net:        acct,
		workers:    max(sess.Capacity(), 1),
		frags:      make(map[*engine.Fragment]uint64),
		fragsByKey: make(map[string]uint64),
		parts:      make(map[partDigest]struct{}),
	}, nil
}

// Workers implements engine.Backend, reporting the parallelism the worker
// announced in its hello.
func (c *client) Workers() int { return c.workers }

// SetScanIO installs the hook that receives the per-unit scan read stats
// carried by done frames (the worker's modeled local device reads). The
// failover layer installs one per slot, feeding the query's per-worker scan
// accountants.
func (c *client) SetScanIO(fn func(runs, pages, bytes int64)) { c.scanIO.Store(&fn) }

// shipPartition has the worker bind one table partition: it offers the
// shipment's digest and manifest as a call and, when the worker answers that
// it does not hold that partition, sends the column frames under the offer's
// id. A partition already bound on this session is not offered again. The
// shipment's raw-minus-shipped byte saving is credited to the network
// accountant only when its frames were sent. The payloads are shared across
// sessions and only read here. An offer unanswered within wire.WriteTimeout
// fails the session, as a stalled write would.
func (c *client) shipPartition(s *partShipment) error {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if _, done := c.parts[s.digest]; done {
		return nil
	}
	answer := make(offerCall, 1)
	id, err := c.sess.Register(answer)
	if err != nil {
		return err
	}
	if err := c.sess.WriteShared(id, framePartOffer, s.offer); err != nil {
		return c.sess.Fail(fmt.Errorf("offer partition: %w", err)) // the read loop fails the call
	}
	t := time.NewTimer(wire.WriteTimeout)
	defer t.Stop()
	var send bool
	select {
	case a := <-answer:
		if a.err != nil {
			return a.err
		}
		send = a.send
	case <-t.C:
		c.sess.Forget(id)
		return c.sess.Fail(fmt.Errorf("no answer to a partition offer within %v", wire.WriteTimeout))
	}
	if send {
		for _, d := range s.data {
			if err := c.sess.WriteShared(id, framePartData, d); err != nil {
				return c.sess.Fail(fmt.Errorf("ship partition: %w", err))
			}
		}
		if s.saved > 0 && c.net != nil {
			c.net.AddSaved(s.saved)
		}
	}
	c.parts[s.digest] = struct{}{}
	return nil
}

// offerCall is one partition offer in flight: the worker's answer, or the
// session's failure.
type offerCall chan offerAnswer

type offerAnswer struct {
	send bool
	err  error
}

func (o offerCall) Frame(typ byte, payload []byte) (bool, error) {
	if typ != framePartAnswer || len(payload) != 1 || payload[0] > partSend {
		return false, fmt.Errorf("query side received frame type %d (%d bytes) for a partition offer", typ, len(payload))
	}
	o <- offerAnswer{send: payload[0] == partSend}
	return true, nil
}

func (o offerCall) Fail(err error) { o <- offerAnswer{err: err} }

// RunGroup implements engine.Backend: register the unit as a call, ship the
// fragment on first use, ship the unit. The session's read loop delivers
// the results. done is always invoked exactly once, possibly synchronously
// when the session is already down.
func (c *client) RunGroup(u *engine.GroupUnit, frag *engine.Fragment, emit func(*vector.Batch), done func(error)) {
	id, err := c.sess.Register(&unitCall{c: c, emit: emit, done: done})
	if err != nil {
		done(err)
		return
	}
	// The unit payload is encoded outside the registry lock (units can be
	// large, and reroutes run RunGroup concurrently with the feeder); the
	// fragment-id slot after the frame header is patched once the id is
	// known.
	pl := EncodeUnit(u, append(wire.Buf(), make([]byte, 8)...))
	// Network time is charged on the encoded frame; the raw-form difference is
	// recorded as wire savings (query side meters both directions, so each
	// message's saving is counted exactly once).
	if saved := RawUnitWireSize(u) - (len(pl) - wire.HeaderLen - 8); saved > 0 && c.net != nil {
		c.net.AddSaved(int64(saved))
	}
	// An oversized group fails alone, as a work error, not a backend
	// failure, so it cannot cascade through every backend of the set via
	// failover.
	if err = wire.CheckPayload(len(pl)-wire.HeaderLen, "unit"); err != nil {
		err = fmt.Errorf("shard: group %d: %w", u.GID, err)
	} else {
		c.wmu.Lock()
		var fid uint64
		if fid, err = c.fragment(frag); err == nil {
			binary.LittleEndian.PutUint64(pl[wire.HeaderLen:], fid)
			if werr := c.sess.Write(id, frameUnit, pl); werr != nil {
				c.sess.Fail(fmt.Errorf("ship unit: %w", werr)) // the read loop fails the call
			}
		}
		c.wmu.Unlock()
	}
	if err != nil && c.sess.Forget(id) {
		done(err) // never sent; unless the session's failure already ended it
	}
}

// Preload ships frag's setup frame now, instead of lazily on the first
// unit. Re-admission preloads every fragment the session already shipped,
// so a recovered worker can take any later unit of the query without a
// first-unit setup race.
func (c *client) Preload(frag *engine.Fragment) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := c.fragment(frag)
	return err
}

// fragment returns frag's id on the session, shipping its setup frame on
// first use; the caller holds wmu. A fragment that fails to encode is a plan
// bug, returned as it is (a work error: no reroute); a setup frame that fails
// to send fails the session, whose failure is returned.
func (c *client) fragment(frag *engine.Fragment) (uint64, error) {
	if fid, ok := c.frags[frag]; ok {
		return fid, nil
	}
	fpl, err := EncodeFragment(frag, wire.Buf())
	if err != nil {
		return 0, err
	}
	key := string(fpl[wire.HeaderLen:])
	fid, ok := c.fragsByKey[key]
	if !ok {
		fid = c.nextFrag
		c.nextFrag++
		if err := c.sess.Write(fid, frameSetup, fpl); err != nil {
			return 0, c.sess.Fail(fmt.Errorf("ship fragment: %w", err))
		}
		// Registered only after the setup frame shipped: a failed encode or
		// send must not leave later units referencing a fragment the worker
		// never received.
		c.fragsByKey[key] = fid
	}
	c.frags[frag] = fid
	return fid, nil
}

// unitCall is one unit in flight: its result batches and its done frame.
type unitCall struct {
	c    *client
	emit func(*vector.Batch)
	done func(error)
}

// Frame delivers a result batch (in shipped order) to emit, or completes the
// unit from its done frame. Work errors cross the transport as done text —
// error identity does not survive the wire — while an undecodable frame
// fails the session.
func (u *unitCall) Frame(typ byte, payload []byte) (bool, error) {
	switch typ {
	case frameBatch:
		b, n, err := vector.DecodeBatch(payload)
		if err == nil && n != len(payload) {
			err = fmt.Errorf("%d trailing bytes after result batch", len(payload)-n)
		}
		if err != nil {
			return false, err
		}
		if saved := b.RawWireSize() - len(payload); saved > 0 && u.c.net != nil {
			u.c.net.AddSaved(int64(saved))
		}
		u.emit(b)
		return false, nil
	case frameDone:
		// Done payload: status byte (0 success, 1 work error), then —
		// success only, scan units only — 24 bytes of little-endian per-unit
		// scan read stats (runs, pages, bytes); on failure the error text.
		r := wire.NewReader(payload)
		switch status := r.U8(); {
		case r.Err() != nil:
			return false, fmt.Errorf("done frame with empty payload")
		case status != 0:
			u.done(errors.New(string(r.Rest())))
		default:
			if runs, pages, bytes := r.U64(), r.U64(), r.U64(); r.Err() == nil {
				if fn := u.c.scanIO.Load(); fn != nil {
					(*fn)(int64(runs), int64(pages), int64(bytes))
				}
			}
			u.done(nil)
		}
		return true, nil
	}
	return false, fmt.Errorf("query side received frame type %d for a unit", typ)
}

// Fail completes the unit with the session's failure.
func (u *unitCall) Fail(err error) { u.done(err) }

// Ping performs one application-level liveness round-trip, bounded by
// timeout: the worker echoes the ping's call id as a pong. A pong proves the
// whole session — socket, frame loop, hello state — is live, which is
// stronger than a successful dial. The health prober pings a fresh
// connection before re-admitting its backend to the routing set.
func (c *client) Ping(timeout time.Duration) error {
	ch := make(pingCall, 1)
	id, err := c.sess.Register(ch)
	if err != nil {
		return err
	}
	if err := c.sess.Write(id, framePing, wire.Buf()); err != nil {
		c.sess.Fail(fmt.Errorf("ping: %w", err)) // the read loop fails the call
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case err := <-ch:
		return err
	case <-t.C:
		c.sess.Forget(id)
		return fmt.Errorf("%w: %s: no pong within %v", ErrBackendDown, c.name, timeout)
	}
}

// pingCall is one ping in flight: its pong, or the session's failure.
type pingCall chan error

func (p pingCall) Frame(typ byte, _ []byte) (bool, error) {
	if typ != framePong {
		return false, fmt.Errorf("query side received frame type %d for a ping", typ)
	}
	p <- nil
	return true, nil
}

func (p pingCall) Fail(err error) { p <- err }

// Close implements engine.Backend: it tears down the session and joins its
// read loop, so a closed backend leaves no goroutines behind. Units must not
// be in flight (the engine's exchange joins every done callback before
// operators close); any that are anyway fail with the session's failure, and
// later ones with wire.ErrClosed.
func (c *client) Close() error { return c.sess.Close() }

// Dial connects to a bdccworker daemon at addr (host:port), performs the
// hello exchange, and returns the connection as an engine.Backend. Dial
// failures are wrapped in ErrBackendDown so a set built around survivors
// can treat an unreachable worker like a lost one.
func Dial(addr string, acct *iosim.Accountant) (engine.Backend, error) {
	return DialToken(addr, "", acct)
}

// DialToken is Dial presenting a shared-secret auth token in the hello
// (empty = no token). A token-mismatched worker drops the connection
// without a reply, which surfaces as an ErrBackendDown-wrapped dial error.
func DialToken(addr, token string, acct *iosim.Accountant) (engine.Backend, error) {
	conn, err := net.DialTimeout("tcp", addr, wire.HandshakeTimeout)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrBackendDown, addr, err)
	}
	return newClient(conn, addr, token, acct)
}

// Server is the worker half of the protocol: the core of the bdccworker
// daemon, usable in-process (the simulated remote and the loopback tests
// serve net.Pipe and local TCP connections through it). One Server owns one
// scheduler, one memory tracker and one store of resident table partitions
// shared by every session; each accepted connection is an independent
// session with its own fragment registry and its own binding of table names
// to partitions, so concurrent queries do not observe each other. The
// scheduler is retained while a session is live: an idle server holds no
// goroutines.
type Server struct {
	sched    *engine.Sched
	mem      *engine.MemTracker
	parts    *partStore
	sessions wire.Listener

	// OnUnitDone, when set before serving, is called after each unit
	// completes with the total completed so far — a diagnostic and test
	// hook (the failover tests use it to kill a worker mid-stream at a
	// deterministic point). It must not block; calling Close from the hook
	// must be done asynchronously.
	OnUnitDone func(total int64)

	// OnUnitStart, when set before serving, runs at the start of each unit
	// task, on the scheduler goroutine that executes it. Unlike OnUnitDone
	// it may block — the chaos and drain tests use it to throttle a worker
	// or wedge a session at a deterministic point.
	OnUnitStart func()

	unitsDone atomic.Int64
}

// NewServer returns a worker over its own scheduler of `workers` pool
// goroutines and its own memory tracker (remote group joins are metered on
// the box that runs them).
func NewServer(workers int) *Server {
	s := &Server{
		sched: engine.NewSched(max(workers, 1)),
		mem:   &engine.MemTracker{},
		parts: newPartStore(0),
	}
	s.sessions = wire.Listener{
		Magic: ProtoMagic, Version: ProtoVersion, Capacity: s.sched.Workers(), Open: s.open,
	}
	return s
}

// SetAuthToken configures the shared secret sessions must present in their
// hello frames (empty, the default, accepts only clients presenting no
// token). Set before serving; the comparison is constant-time and a
// mismatch drops the connection without a reply.
func (s *Server) SetAuthToken(token string) { s.sessions.Token = token }

// SetPartLimit caps the bytes the worker's shipped table partitions keep
// resident, across all sessions — the received column frames the adopted
// tables point into, plus their dictionary, run and raw-chunk strings (0, the
// default, means unlimited). A transfer that would cross the cap first
// evicts partitions no session binds, oldest first; when that is not enough
// it poisons the affected table, failing its scan units as work errors
// without dropping the session — back-pressure for a coordinator shipping
// more data than the worker box should hold. Set before serving.
func (s *Server) SetPartLimit(bytes int64) { s.parts.limit = bytes }

// Workers returns the server's scheduler parallelism (announced to clients
// in the hello exchange).
func (s *Server) Workers() int { return s.sched.Workers() }

// Mem returns the server's memory tracker: the worker-side analogue of the
// query's tracker, charged with every remote group's hash table.
func (s *Server) Mem() *engine.MemTracker { return s.mem }

// UnitsDone returns the number of units completed across all sessions.
func (s *Server) UnitsDone() int64 { return s.unitsDone.Load() }

// Serve accepts connections on l until the listener fails or the server is
// closed, serving each connection as an independent session. It returns nil
// after Close.
func (s *Server) Serve(l net.Listener) error { return s.sessions.Serve(l) }

// ServeConn starts one session over an established connection (net.Pipe end,
// accepted socket) and returns immediately; the session runs on server-owned
// goroutines until the peer closes or the server does. The returned channel
// closes once the session has ended and its unit tasks are joined.
func (s *Server) ServeConn(conn net.Conn) <-chan struct{} { return s.sessions.ServeConn(conn) }

// open is one session's frame handler: setup frames fill the session's
// fragment registry, partition offers and data bind its tables (answered
// inline on the read loop, like a ping), and each unit becomes one scheduler
// task the session joins before it ends, so Close never returns while a
// unit still runs. The session retains the scheduler and pins the
// partitions it binds until it ends. A protocol violation drops the session.
func (s *Server) open(sess *wire.Session) wire.Handler {
	frags := make(map[uint64]*engine.Fragment)
	fragErrs := make(map[uint64]error)
	parts := s.parts.session()
	s.sched.Retain()
	sess.OnEnd(func() {
		parts.end()
		s.sched.Release()
	})
	return func(id uint64, typ byte, payload []byte) error {
		switch typ {
		case frameSetup:
			frag, err := DecodeFragment(payload)
			if err == nil {
				frag.Mem = s.mem
				if frag.Kind == engine.FragScan {
					// The session's shipped partitions are the scan source;
					// a table never shipped (or poisoned by the part limit)
					// surfaces here as a Prepare error, failing the scan's
					// units as work errors.
					frag.Src = parts.source
				}
				err = frag.Prepare()
			}
			if err != nil {
				fragErrs[id] = err
			} else {
				frags[id] = frag
			}
		case framePartOffer:
			resident, err := parts.offer(id, payload)
			if err != nil {
				return err
			}
			answer := partSend
			if resident {
				answer = partResident
			}
			sess.Write(id, framePartAnswer, append(wire.Buf(), answer))
		case framePartData:
			return parts.addData(id, payload)
		case framePing:
			sess.Write(id, framePong, wire.Buf())
		case frameUnit:
			r := wire.NewReader(payload)
			fid := r.U64()
			if err := r.Err(); err != nil {
				return err
			}
			frag := frags[fid]
			if frag == nil {
				err := fragErrs[fid]
				if err == nil {
					err = fmt.Errorf("shard: unit references unknown fragment %d", fid)
				}
				s.finishUnit(sess, id, nil, err)
				return nil
			}
			body, end := r.Rest(), sess.Begin()
			s.sched.Submit(-1, func(int) {
				defer end()
				s.runUnit(sess, id, frag, body)
			})
		default:
			return fmt.Errorf("worker received frame type %d", typ)
		}
		return nil
	}
}

// runUnit is one unit task: decode the unit, check it against the fragment,
// run it, and report it done.
func (s *Server) runUnit(sess *wire.Session, id uint64, frag *engine.Fragment, body []byte) {
	if s.OnUnitStart != nil {
		s.OnUnitStart()
	}
	u, err := DecodeUnit(body)
	if err == nil {
		err = conforms(u, frag)
	}
	var stats *scanStats
	if err == nil && frag.Kind == engine.FragScan {
		// The unit's modeled local read cost rides its done frame; computing
		// it before the scan keeps a mapping error a clean unit failure.
		var st scanStats
		if st.runs, st.pages, st.bytes, err = frag.ScanStats(u); err == nil {
			stats = &st
		}
	}
	var oversized error
	if err == nil {
		err = frag.Run(u, func(b *vector.Batch) {
			if oversized != nil {
				return // unit already failed; drop the rest
			}
			pl := b.Encode(wire.Buf())
			// Mirror the client's send-side cap: shipping an over-cap result
			// would make the client drop the session and failover cascade
			// the same group — deterministically oversized — through every
			// backend. Failing just this unit keeps it a work error.
			if oversized = wire.CheckPayload(len(pl)-wire.HeaderLen, "result batch"); oversized != nil {
				oversized = fmt.Errorf("shard: group %d: %w", u.GID, oversized)
				return
			}
			// A send failure here means the client is gone; the done frame
			// below fails the same way and the read loop ends the session.
			sess.Write(id, frameBatch, pl)
		})
		if err == nil {
			err = oversized
		}
	}
	s.finishUnit(sess, id, stats, err)
}

// conforms checks a decoded unit's batches against the schemas its fragment
// was prepared for. Run indexes them by those schemas, so a batch of other
// columns would otherwise panic on a scheduler goroutine instead of failing
// its unit. Only the worker pays for the check: a local run's batches come
// from the operator that built the fragment.
func conforms(u *engine.GroupUnit, f *engine.Fragment) error {
	check := func(side string, schema expr.Schema, batches []*vector.Batch) error {
		for i, b := range batches {
			if len(b.Cols) != len(schema) {
				return fmt.Errorf("shard: group %d: %s batch %d has %d columns, the fragment %d", u.GID, side, i, len(b.Cols), len(schema))
			}
			for c, col := range b.Cols {
				if col.Kind != schema[c].Kind {
					return fmt.Errorf("shard: group %d: %s batch %d column %d is %v, the fragment's %q %v",
						u.GID, side, i, c, col.Kind, schema[c].Name, schema[c].Kind)
				}
			}
		}
		return nil
	}
	if err := check("probe", f.Probe, u.Probe); err != nil {
		return err
	}
	return check("build", f.Build, u.Build)
}

// scanStats is one scan unit's modeled local read cost, reported to the
// client in the unit's done frame.
type scanStats struct {
	runs, pages, bytes int64
}

// finishUnit reports a unit's completion (err == nil) or its work error.
// The done payload is a status byte — 0 success, 1 failure — followed on
// failure by the error text and on a scan unit's success by the 24-byte
// read stats. The counter (and hook) advance before the done frame ships,
// so a client that observed a completion always finds it counted.
func (s *Server) finishUnit(sess *wire.Session, id uint64, stats *scanStats, err error) {
	n := s.unitsDone.Add(1)
	if s.OnUnitDone != nil {
		s.OnUnitDone(n)
	}
	msg := wire.Buf()
	switch {
	case err != nil:
		msg = append(msg, 1)
		msg = append(msg, err.Error()...)
	case stats != nil:
		msg = append(msg, 0)
		msg = binary.LittleEndian.AppendUint64(msg, uint64(stats.runs))
		msg = binary.LittleEndian.AppendUint64(msg, uint64(stats.pages))
		msg = binary.LittleEndian.AppendUint64(msg, uint64(stats.bytes))
	default:
		msg = append(msg, 0)
	}
	sess.Write(id, frameDone, msg)
}

// Close shuts the worker down: listeners stop accepting, every session's
// connection is closed (failing the clients' pending units with
// ErrBackendDown, which is what lets a query fail over to surviving
// workers), and in-flight unit tasks and session goroutines are joined —
// each ended session releasing the scheduler, so a closed server leaves no
// goroutines behind.
func (s *Server) Close() error {
	_, err := s.CloseWithin(0)
	return err
}

// CloseWithin is Close with a bounded drain: sessions that have not ended
// within d are abandoned rather than waited for, and their count is
// returned (d <= 0 waits for the whole drain). A wedged session — a unit
// task parked on a blocked write or a stuck hook — can otherwise hang Close
// forever; the bdccworker daemon bounds its SIGTERM drain with this and
// exits, letting the OS reap the wedged work. An abandoned session keeps
// the scheduler retained (its tasks may still be running on it); an
// abandoning caller is expected to exit the process.
func (s *Server) CloseWithin(d time.Duration) (abandoned int, err error) {
	return s.sessions.Close(d), nil
}
