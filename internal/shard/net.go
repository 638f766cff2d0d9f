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
	"bdcc/internal/iosim"
	"bdcc/internal/vector"
	"bdcc/internal/wire"
)

// This file is the network backend: the framed byte-stream protocol between
// a query (client half, engine.Backend) and a worker (Server half, the core
// of cmd/bdccworker), plus Dial for real TCP connections. The simulated
// remote (sim.go) runs exactly this client against exactly this server over
// an in-process net.Pipe, so the simulation and the real network share one
// protocol implementation end to end. The full wire specification lives in
// docs/WIRE.md.

// Protocol identity. ProtoMagic opens every session's hello frame;
// ProtoVersion is negotiated in the hello exchange and must match exactly:
// any change to a payload layout is a new version, never an addition an old
// peer could misparse (docs/WIRE.md describes the protocol as it stands).
const (
	ProtoMagic   = "BDCW"
	ProtoVersion = 7
)

// Transport frame types; wire.TypeHello (1) opens the session. Every frame
// is one message on the stream (internal/wire): u32 payload length, u64 id,
// u8 type, payload. A sender checks its payload against wire.MaxPayload
// first, failing only the oversized unit — a work error, not a backend
// failure, so failover does not cascade it through the set (see
// docs/WIRE.md). A frame write that hits wire.WriteTimeout is a write error:
// the query side reroutes (ErrBackendDown) instead of blocking the feeder
// under wmu, the worker side abandons the stalled session's unit instead of
// parking tasks on the daemon's shared scheduler.
const (
	frameSetup     = byte(2) // query → worker: one plan fragment; id = fragment id
	frameUnit      = byte(3) // query → worker: one group unit; id = unit id
	frameBatch     = byte(4) // worker → query: one result batch; id = unit id
	frameDone      = byte(5) // worker → query: unit finished; payload = status (+stats or error)
	framePing      = byte(6) // query → worker: liveness probe; id = ping id
	framePong      = byte(7) // worker → query: ping echo; id = the ping's id
	framePartTable = byte(8) // query → worker: partition manifest; id = partition id
	framePartData  = byte(9) // query → worker: one column frame of a partition; id = partition id
)

// ErrBackendDown marks transport-level backend failures — refused dials,
// connection loss, protocol corruption — as opposed to unit work errors,
// which cross the transport as frameDone text. The failover wrapper retries
// a unit on a surviving backend exactly when its error wraps ErrBackendDown;
// work errors are never retried (a rerun would fail identically).
var ErrBackendDown = errors.New("shard: backend down")

var errClosed = errors.New("shard: backend closed")

// client is the query half of the protocol: an engine.Backend over one
// framed byte-stream connection. It ships each operator's plan fragment
// once (frameSetup, keyed by fragment pointer), then one frameUnit per
// group, and delivers frameBatch/frameDone responses to the unit's
// emit/done callbacks. Transport failures fail every pending and later
// unit with an ErrBackendDown-wrapped error.
type client struct {
	conn net.Conn
	name string // dial address, or "sim" for the in-process pipe
	net  *iosim.Accountant

	wmu sync.Mutex // frames the request stream; also guards frags and parts
	// frags is the by-pointer registry of shipped fragments; fragsByKey
	// indexes the same registrations by encoded content, so two Fragment
	// values with identical wire forms — e.g. the same cached plan
	// instantiated by two queries sharing this session — ship one setup
	// frame and alias one fragment id.
	frags      map[*engine.Fragment]uint64
	fragsByKey map[string]uint64
	nextFrag   uint64
	// parts records shipped table partitions by content key, so a partition
	// offered twice to one session (plan-time ship racing a re-admission
	// re-ship) crosses the wire once.
	parts    map[string]uint64
	nextPart uint64

	// dmu serializes callback delivery: the read loop's emit/done calls and
	// fail's drain of pending dones are mutually exclusive, so a unit never
	// sees emit or done concurrently (the backend contract the failover
	// buffer and the exchange depend on), and a unit drained by fail is
	// never emitted to afterwards.
	dmu sync.Mutex

	mu       sync.Mutex
	pending  map[uint64]*call
	nextID   uint64
	pings    map[uint64]chan error
	nextPing uint64
	broken   error
	closed   bool
	// onScanIO, when set, receives the per-unit modeled read stats a done
	// frame carries for scan units — the worker's local device reads, fed
	// into the query's per-worker scan accountant.
	onScanIO func(runs, pages, bytes int64)

	workers int
	loop    sync.WaitGroup
}

// call is the query-side registration of one in-flight unit.
type call struct {
	emit func(*vector.Batch)
	done func(error)
}

// newClient performs the hello exchange on conn (bounded by
// wire.HandshakeTimeout), presenting token as the shared secret (empty = none
// configured), and starts the response reader. It owns conn from this point
// on (Close closes it). A worker whose token differs drops the connection
// without a reply, which surfaces here as a hello-reply read error.
func newClient(conn net.Conn, name, token string, acct *iosim.Accountant) (*client, error) {
	c := &client{
		conn:       conn,
		name:       name,
		net:        acct,
		frags:      make(map[*engine.Fragment]uint64),
		fragsByKey: make(map[string]uint64),
		parts:      make(map[string]uint64),
		pending:    make(map[uint64]*call),
		pings:      make(map[uint64]chan error),
	}
	var err error
	if c.workers, err = wire.Hello(conn, acct, ProtoMagic, ProtoVersion, token); err != nil {
		conn.Close()
		return nil, fmt.Errorf("shard: %s: %w", name, err)
	}
	c.workers = max(c.workers, 1)
	c.loop.Add(1)
	go c.readLoop()
	return c, nil
}

// Workers implements engine.Backend, reporting the parallelism the worker
// announced in its hello.
func (c *client) Workers() int { return c.workers }

// SetScanIO installs the hook that receives the per-unit scan read stats
// carried by done frames (the worker's modeled local device reads). The
// failover layer installs one per slot, feeding the query's per-worker scan
// accountants.
func (c *client) SetScanIO(fn func(runs, pages, bytes int64)) {
	c.mu.Lock()
	c.onScanIO = fn
	c.mu.Unlock()
}

// ShipPartition sends one table partition to the worker: the manifest
// payload, then the column-frame payloads, each as its own frame sharing the
// partition id. key identifies the shipment's content (table name, worker,
// worker count); a partition already shipped under the same key on this
// session is skipped, so a plan-time ship racing a re-admission re-ship
// crosses the wire once. saved is the partition's raw-minus-shipped byte
// saving, credited to the network accountant like any other compressed
// frame's. The payloads are shared across sessions and only read here.
func (c *client) ShipPartition(key string, manifest []byte, data [][]byte, saved int64) error {
	c.mu.Lock()
	if err := c.unusable(); err != nil {
		c.mu.Unlock()
		return err
	}
	c.mu.Unlock()
	c.wmu.Lock()
	if _, done := c.parts[key]; done {
		c.wmu.Unlock()
		return nil
	}
	id := c.nextPart
	c.nextPart++
	err := wire.WriteShared(c.conn, c.net, id, framePartTable, manifest)
	for i := 0; err == nil && i < len(data); i++ {
		err = wire.WriteShared(c.conn, c.net, id, framePartData, data[i])
	}
	if err == nil {
		c.parts[key] = id
	}
	c.wmu.Unlock()
	if err != nil {
		c.fail(fmt.Errorf("ship partition: %w", err))
		return fmt.Errorf("%w: %s: ship partition: %v", ErrBackendDown, c.name, err)
	}
	if saved > 0 && c.net != nil {
		c.net.AddSaved(saved)
	}
	return nil
}

// RunGroup implements engine.Backend: register the call, ship the fragment
// on first use, ship the unit. The read loop delivers results. done is
// always invoked exactly once, possibly synchronously when the transport is
// already down.
func (c *client) RunGroup(u *engine.GroupUnit, frag *engine.Fragment, emit func(*vector.Batch), done func(error)) {
	c.mu.Lock()
	if err := c.unusable(); err != nil {
		c.mu.Unlock()
		done(err)
		return
	}
	id := c.nextID
	c.nextID++
	c.pending[id] = &call{emit: emit, done: done}
	c.mu.Unlock()

	// The unit payload is encoded outside the write lock (units can be
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
	if len(pl)-wire.HeaderLen > wire.MaxPayload {
		// Failing only this unit — as a work error, not a backend failure —
		// keeps an oversized group from cascading through every backend of
		// the set via failover.
		c.resolve(id, fmt.Errorf("shard: group %d encodes to %d bytes, over the %d frame cap",
			u.GID, len(pl)-wire.HeaderLen, wire.MaxPayload))
		return
	}

	// wmu is held across the fragment check and both writes: no other
	// unit's frame can interleave between a fragment's setup frame and its
	// first unit, so the worker always sees the fragment before any unit
	// that references it.
	c.wmu.Lock()
	fid, known := c.frags[frag]
	if !known {
		fpl, err := EncodeFragment(frag, wire.Buf())
		if err != nil {
			c.wmu.Unlock()
			c.resolve(id, err) // a plan bug, not a transport failure: no reroute
			return
		}
		key := string(fpl[wire.HeaderLen:])
		if aliased, ok := c.fragsByKey[key]; ok {
			// Identical wire form already on the worker (another query's
			// instantiation of the same cached plan): alias its id.
			fid = aliased
			c.frags[frag] = fid
		} else {
			fid = c.nextFrag
			c.nextFrag++
			if err := wire.Write(c.conn, c.net, fid, frameSetup, fpl); err != nil {
				c.wmu.Unlock()
				c.fail(fmt.Errorf("ship fragment: %w", err))
				return
			}
			// Registered only after the setup frame shipped: a failed encode
			// or send must not leave later units referencing a fragment the
			// worker never received.
			c.frags[frag] = fid
			c.fragsByKey[key] = fid
		}
	}
	binary.LittleEndian.PutUint64(pl[wire.HeaderLen:], fid)
	err := wire.Write(c.conn, c.net, id, frameUnit, pl)
	c.wmu.Unlock()
	if err != nil {
		c.fail(fmt.Errorf("ship unit: %w", err))
	}
}

// Ping performs one application-level liveness round-trip, bounded by
// timeout: the worker echoes the ping id as a pong. A pong proves the whole
// session — socket, frame loop, hello state — is live, which is stronger
// than a successful dial. The health prober pings a fresh connection before
// re-admitting its backend to the routing set.
func (c *client) Ping(timeout time.Duration) error {
	ch := make(chan error, 1)
	c.mu.Lock()
	if err := c.unusable(); err != nil {
		c.mu.Unlock()
		return err
	}
	id := c.nextPing
	c.nextPing++
	c.pings[id] = ch
	c.mu.Unlock()
	c.wmu.Lock()
	err := wire.Write(c.conn, c.net, id, framePing, wire.Buf())
	c.wmu.Unlock()
	if err != nil {
		// fail drains c.pings, so the select below resolves promptly.
		c.fail(fmt.Errorf("ping: %w", err))
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case err := <-ch:
		return err
	case <-t.C:
		c.mu.Lock()
		delete(c.pings, id)
		c.mu.Unlock()
		return fmt.Errorf("%w: %s: no pong within %v", ErrBackendDown, c.name, timeout)
	}
}

// Preload ships frag's setup frame now, instead of lazily on the first
// unit. Re-admission preloads every fragment the session already shipped,
// so a recovered worker can take any later unit of the query without a
// first-unit setup race.
func (c *client) Preload(frag *engine.Fragment) error {
	c.wmu.Lock()
	if _, known := c.frags[frag]; known {
		c.wmu.Unlock()
		return nil
	}
	fpl, err := EncodeFragment(frag, wire.Buf())
	if err != nil {
		c.wmu.Unlock()
		return err
	}
	key := string(fpl[wire.HeaderLen:])
	if aliased, ok := c.fragsByKey[key]; ok {
		c.frags[frag] = aliased
		c.wmu.Unlock()
		return nil
	}
	fid := c.nextFrag
	c.nextFrag++
	werr := wire.Write(c.conn, c.net, fid, frameSetup, fpl)
	if werr == nil {
		c.frags[frag] = fid
		c.fragsByKey[key] = fid
	}
	c.wmu.Unlock()
	if werr != nil {
		c.fail(fmt.Errorf("ship fragment: %w", werr))
		return fmt.Errorf("%w: %s: ship fragment: %v", ErrBackendDown, c.name, werr)
	}
	return nil
}

// unusable reports why new units cannot be accepted. Called with c.mu held.
func (c *client) unusable() error {
	if c.closed {
		return errClosed
	}
	return c.broken
}

// resolve completes one registered unit with err, preserving exactly-once
// delivery of done.
func (c *client) resolve(id uint64, err error) {
	c.mu.Lock()
	cl := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if cl != nil {
		cl.done(err)
	}
}

// fail marks the transport broken (wrapping the cause in ErrBackendDown so
// the failover wrapper reroutes), tears the connection down (unblocking any
// writer parked on the stream), and fails every pending unit; later units
// fail on arrival. Exactly-once delivery of done is preserved: a call is
// removed from pending before its done runs.
func (c *client) fail(err error) {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	c.mu.Lock()
	if c.broken == nil {
		if !errors.Is(err, ErrBackendDown) {
			err = fmt.Errorf("%w: %s: %v", ErrBackendDown, c.name, err)
		}
		c.broken = err
	}
	err = c.broken
	calls := make([]*call, 0, len(c.pending))
	for id, cl := range c.pending {
		calls = append(calls, cl)
		delete(c.pending, id)
	}
	waiters := make([]chan error, 0, len(c.pings))
	for id, ch := range c.pings {
		waiters = append(waiters, ch)
		delete(c.pings, id)
	}
	c.mu.Unlock()
	c.conn.Close()
	for _, cl := range calls {
		cl.done(err)
	}
	for _, ch := range waiters {
		ch <- err
	}
}

// readLoop is the query side of the response stream: it decodes result
// batches and delivers them (in shipped order) to the unit's emit, then
// completes the unit. Work errors cross the transport as frameDone text —
// error identity does not survive the wire — while a broken stream fails
// everything through fail.
func (c *client) readLoop() {
	defer c.loop.Done()
	for {
		id, typ, payload, err := wire.Read(c.conn, c.net)
		if err != nil {
			c.fail(err)
			return
		}
		if typ != frameBatch && typ != frameDone && typ != framePong {
			c.fail(fmt.Errorf("query side received frame type %d", typ))
			return
		}
		if typ == framePong {
			c.mu.Lock()
			ch := c.pings[id]
			delete(c.pings, id)
			c.mu.Unlock()
			if ch != nil {
				ch <- nil // a timed-out ping already removed its channel
			}
			continue
		}
		var b *vector.Batch
		if typ == frameBatch {
			var n int
			var derr error
			b, n, derr = vector.DecodeBatch(payload)
			if derr == nil && n != len(payload) {
				derr = fmt.Errorf("%d trailing bytes after result batch", len(payload)-n)
			}
			if derr != nil {
				c.fail(derr)
				return
			}
			if saved := b.RawWireSize() - len(payload); saved > 0 && c.net != nil {
				c.net.AddSaved(int64(saved))
			}
		}
		// The pending lookup happens under dmu so it cannot interleave with
		// fail's drain: a unit fail already completed is skipped here, never
		// emitted to or completed twice.
		c.dmu.Lock()
		c.mu.Lock()
		cl := c.pending[id]
		if typ == frameDone {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		if cl != nil {
			switch typ {
			case frameBatch:
				cl.emit(b)
			case frameDone:
				// Done payload: status byte (0 success, 1 work error),
				// then — success only, scan units only — 24 bytes of
				// little-endian per-unit scan read stats (runs, pages,
				// bytes); on failure the error text.
				r := wire.NewReader(payload)
				switch status := r.U8(); {
				case r.Err() != nil:
					c.dmu.Unlock()
					c.fail(fmt.Errorf("done frame with empty payload"))
					return
				case status != 0:
					cl.done(errors.New(string(r.Rest())))
				default:
					if runs, pages, bytes := r.U64(), r.U64(), r.U64(); r.Err() == nil {
						c.mu.Lock()
						fn := c.onScanIO
						c.mu.Unlock()
						if fn != nil {
							fn(int64(runs), int64(pages), int64(bytes))
						}
					}
					cl.done(nil)
				}
			}
		}
		c.dmu.Unlock()
	}
}

// Close implements engine.Backend: it tears down the connection and joins
// the read loop, so a closed backend leaves no goroutines behind. Units
// must not be in flight (the engine's exchange joins every done callback
// before operators close); any that are anyway fail with errClosed.
func (c *client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.conn.Close()
	c.loop.Wait()
	c.fail(errClosed) // defensively complete contract-violating stragglers
	return nil
}

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
// scheduler and one memory tracker shared by every session; each accepted
// connection is an independent session with its own fragment registry, so
// concurrent queries do not observe each other.
type Server struct {
	sched     *engine.Sched
	mem       *engine.MemTracker
	token     string
	partLimit int64

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

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	closed    bool

	unitsDone atomic.Int64
	wg        sync.WaitGroup
	release   sync.Once
}

// NewServer returns a worker over its own scheduler of `workers` pool
// goroutines and its own memory tracker (remote group joins are metered on
// the box that runs them).
func NewServer(workers int) *Server {
	if workers < 1 {
		workers = 1
	}
	s := &Server{
		sched: engine.NewSched(workers),
		mem:   &engine.MemTracker{},
		conns: make(map[net.Conn]struct{}),
	}
	s.sched.Retain()
	return s
}

// SetAuthToken configures the shared secret sessions must present in their
// hello frames (empty, the default, accepts only clients presenting no
// token). Set before serving; the comparison is constant-time and a
// mismatch drops the connection without a reply.
func (s *Server) SetAuthToken(token string) { s.token = token }

// SetPartLimit caps the bytes the shipped table partitions of one session
// keep resident — the received column frames its adopted tables point into,
// plus their dictionary, run and raw-chunk strings (0, the default, means
// unlimited). Crossing the cap
// poisons the affected table, failing its scan units as work errors without
// dropping the session — back-pressure for a coordinator shipping more data
// than the worker box should hold. Set before serving.
func (s *Server) SetPartLimit(bytes int64) { s.partLimit = bytes }

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
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return errClosed
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.ServeConn(conn)
	}
}

// ServeConn starts one session over an established connection (net.Pipe end,
// accepted socket) and returns immediately; the session runs on server-owned
// goroutines until the peer closes or the server does.
func (s *Server) ServeConn(conn net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		s.session(conn)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
}

// session is one connection's lifetime: hello exchange, then a setup/unit
// frame loop spawning one scheduler task per unit, then teardown — the
// connection is closed first (unblocking any task parked writing a result)
// and in-flight tasks are joined before the session ends, so Close never
// returns while a unit still runs.
func (s *Server) session(conn net.Conn) {
	defer conn.Close()
	if !wire.Accept(conn, ProtoMagic, ProtoVersion, s.token, s.sched.Workers()) {
		return
	}
	var wmu sync.Mutex

	frags := make(map[uint64]*engine.Fragment)
	fragErrs := make(map[uint64]error)
	parts := newPartStore(s.partLimit)
	var tasks sync.WaitGroup
	defer tasks.Wait()
	for {
		id, typ, payload, err := wire.Read(conn, nil)
		if err != nil {
			conn.Close() // unblock tasks parked writing before joining them
			return
		}
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
				continue
			}
			frags[id] = frag
		case framePartTable:
			if err := parts.addManifest(id, payload); err != nil {
				conn.Close() // protocol corruption: drop the session
				return
			}
		case framePartData:
			if err := parts.addData(id, payload); err != nil {
				conn.Close()
				return
			}
		case framePing:
			wmu.Lock()
			wire.Write(conn, nil, id, framePong, wire.Buf())
			wmu.Unlock()
		case frameUnit:
			r := wire.NewReader(payload)
			fid := r.U64()
			if r.Err() != nil {
				conn.Close() // protocol corruption: drop the session
				return
			}
			frag := frags[fid]
			if frag == nil {
				err := fragErrs[fid]
				if err == nil {
					err = fmt.Errorf("shard: unit references unknown fragment %d", fid)
				}
				s.finishUnit(conn, &wmu, id, nil, err)
				continue
			}
			body := r.Rest()
			tasks.Add(1)
			s.sched.Submit(-1, func(int) {
				defer tasks.Done()
				if s.OnUnitStart != nil {
					s.OnUnitStart()
				}
				u, err := DecodeUnit(body)
				var stats *scanStats
				if err == nil && frag.Kind == engine.FragScan {
					// The unit's modeled local read cost rides its done
					// frame; computing it before the scan keeps a mapping
					// error a clean unit failure.
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
						// Mirror the client's send-side cap: shipping an
						// over-cap result would make the client drop the
						// session and failover cascade the same group —
						// deterministically oversized — through every
						// backend. Failing just this unit keeps it a work
						// error.
						if len(pl)-wire.HeaderLen > wire.MaxPayload {
							if oversized == nil {
								oversized = fmt.Errorf("shard: group %d result batch encodes to %d bytes, over the %d frame cap",
									u.GID, len(pl)-wire.HeaderLen, wire.MaxPayload)
							}
							return
						}
						// A send failure here means the client is gone; the
						// done frame below fails the same way and the read
						// loop tears the session down.
						wmu.Lock()
						wire.Write(conn, nil, id, frameBatch, pl)
						wmu.Unlock()
					})
					if err == nil {
						err = oversized
					}
				}
				s.finishUnit(conn, &wmu, id, stats, err)
			})
		default:
			conn.Close()
			return
		}
	}
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
func (s *Server) finishUnit(conn net.Conn, wmu *sync.Mutex, id uint64, stats *scanStats, err error) {
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
	wmu.Lock()
	wire.Write(conn, nil, id, frameDone, msg)
	wmu.Unlock()
}

// Close shuts the worker down: listeners stop accepting, every session's
// connection is closed (failing the clients' pending units with
// ErrBackendDown, which is what lets a query fail over to surviving
// workers), in-flight unit tasks and session goroutines are joined, and
// the scheduler is released — a closed server leaves no goroutines behind.
func (s *Server) Close() error {
	_, err := s.shutdown(0)
	return err
}

// CloseWithin is Close with a bounded drain: sessions that have not ended
// within d are abandoned rather than waited for, and their count is
// returned. A wedged session — a unit task parked on a blocked write or a
// stuck hook — can otherwise hang Close forever; the bdccworker daemon
// bounds its SIGTERM drain with this and exits, letting the OS reap the
// wedged work. The scheduler is only released on a clean drain (abandoned
// tasks may still be running on it); an abandoning caller is expected to
// exit the process.
func (s *Server) CloseWithin(d time.Duration) (abandoned int, err error) {
	return s.shutdown(d)
}

// shutdown is the shared teardown: d <= 0 waits for the drain forever.
func (s *Server) shutdown(d time.Duration) (int, error) {
	s.mu.Lock()
	s.closed = true
	listeners := s.listeners
	s.listeners = nil
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, l := range listeners {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	if d > 0 {
		drained := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(drained)
		}()
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-drained:
		case <-t.C:
			s.mu.Lock()
			n := len(s.conns)
			s.mu.Unlock()
			if n > 0 {
				return n, nil
			}
			<-drained // the last session ended between the timeout and the count
		}
	} else {
		s.wg.Wait()
	}
	s.release.Do(s.sched.Release)
	return 0, nil
}
