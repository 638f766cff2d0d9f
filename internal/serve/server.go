package serve

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"bdcc/internal/engine"
	"bdcc/internal/wire"
)

// Handler runs one admitted query on the prepared context and returns its
// materialized result. The tpch layer provides the implementation (name
// lookup, plan cache, execution); serve owns everything around it —
// admission, the scheduler pool, the memory budget lease.
type Handler func(ctx *engine.Context, scheme, query string) (*engine.Result, error)

// Config assembles a daemon.
type Config struct {
	// Pools is the number of queries that execute simultaneously, each on
	// its own pre-created process-lifetime scheduler pool (<1 means 1).
	Pools int
	// Workers is the goroutine count of each pool (<2 keeps pools serial).
	Workers int
	// QueueCap bounds how many admitted-but-waiting queries may queue for a
	// pool; a query arriving past it is rejected immediately (0 = no queue).
	QueueCap int
	// QueueWait bounds how long a queued query waits for a pool before
	// rejection; <=0 waits indefinitely.
	QueueWait time.Duration
	// MemBudget is the process-global operator memory budget shared by all
	// running queries (0 = ungoverned). Per-query trackers reserve against
	// it in quanta; a query it cannot cover queues inside the budget for up
	// to MemWait and is then rejected (see engine.MemBudget).
	MemBudget int64
	// MemWait bounds a query's wait for budget headroom (<=0: reject
	// immediately when hot).
	MemWait time.Duration
	// MemQuantum is the reservation granularity (0 = engine default).
	MemQuantum int64
	// AuthToken is the shared secret client hellos must present (empty
	// accepts only token-less hellos). Constant-time compared; a mismatch
	// drops the connection without a reply.
	AuthToken string
	// NewContext returns a fresh execution context per query: device meters,
	// knobs, and — when the daemon shares worker sessions across queries —
	// the pre-installed backend set with Context.SharedBackends set. serve
	// then installs the scheduler pool and the memory budget lease on it.
	NewContext func() *engine.Context
	// Handler executes one query on the prepared context.
	Handler Handler
}

// Stats is a snapshot of the daemon's admission and memory counters.
type Stats struct {
	// Active is the number of queries executing right now; Queued the number
	// waiting for a pool.
	Active int
	Queued int
	// Admitted counts queries that reached a pool; QueuedTotal how many of
	// all arrivals had to queue first; Rejected those turned away (queue
	// full, queue wait expired, or memory budget); Done completed runs.
	Admitted    int64
	QueuedTotal int64
	Rejected    int64
	Done        int64
	// Memory budget counters (zero when ungoverned): current and peak
	// reserved bytes, queued and rejected reservations.
	MemReserved int64
	MemPeak     int64
	MemQueued   int64
	MemRejected int64
}

// Server is the daemon: client sessions (internal/wire) whose frames it
// answers, an admission gate in front of Config.Pools scheduler pools, and
// one optional process-global memory budget over every admitted query.
type Server struct {
	cfg      Config
	budget   *engine.MemBudget
	pools    chan *engine.Sched
	owned    []*engine.Sched
	sessions wire.Listener

	mu        sync.Mutex
	closed    bool
	queued    int
	active    int
	admitted  int64
	queuedTot int64
	rejected  int64
	done      int64
}

// NewServer assembles a daemon from cfg; start serving with Serve, tear down
// with Close.
func NewServer(cfg Config) *Server {
	cfg.Pools = max(cfg.Pools, 1)
	s := &Server{
		cfg:   cfg,
		pools: make(chan *engine.Sched, cfg.Pools),
	}
	s.sessions = wire.Listener{
		Magic: ProtoMagic, Version: ProtoVersion, Token: cfg.AuthToken, Capacity: cfg.Pools, Open: s.open,
	}
	if cfg.MemBudget > 0 {
		s.budget = engine.NewMemBudget(cfg.MemBudget, cfg.MemWait)
	}
	for i := 0; i < cfg.Pools; i++ {
		var pool *engine.Sched
		if cfg.Workers >= 2 {
			pool = engine.NewSched(cfg.Workers)
			pool.Retain() // process-lifetime: queries' Retain/Release never drop it
			s.owned = append(s.owned, pool)
		}
		s.pools <- pool
	}
	return s
}

// Budget exposes the process memory budget (nil when ungoverned).
func (s *Server) Budget() *engine.MemBudget { return s.budget }

// Stats snapshots the admission and memory counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Active:      s.active,
		Queued:      s.queued,
		Admitted:    s.admitted,
		QueuedTotal: s.queuedTot,
		Rejected:    s.rejected,
		Done:        s.done,
	}
	s.mu.Unlock()
	if s.budget != nil {
		st.MemReserved = s.budget.Reserved()
		st.MemPeak = s.budget.PeakReserved()
		st.MemQueued = s.budget.Queued()
		st.MemRejected = s.budget.Rejected()
	}
	return st
}

// admit gates one query: an idle pool admits immediately; otherwise the
// query joins the bounded queue and waits up to QueueWait. The returned
// error (ErrRejected-wrapped) names which bound turned it away.
func (s *Server) admit() (*engine.Sched, error) {
	select {
	case p := <-s.pools:
		s.noteAdmit()
		return p, nil
	default:
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errClosed
	}
	if s.queued >= s.cfg.QueueCap {
		s.rejected++
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: all %d pools busy, queue full (%d waiting)",
			ErrRejected, s.cfg.Pools, s.cfg.QueueCap)
	}
	s.queued++
	s.queuedTot++
	s.mu.Unlock()
	var timeout <-chan time.Time
	if s.cfg.QueueWait > 0 {
		t := time.NewTimer(s.cfg.QueueWait)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case p := <-s.pools:
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
		s.noteAdmit()
		return p, nil
	case <-timeout:
	}
	s.mu.Lock()
	s.queued--
	s.mu.Unlock()
	// A pool may have freed between the timeout firing and our giving up;
	// prefer admission over a racy rejection.
	select {
	case p := <-s.pools:
		s.noteAdmit()
		return p, nil
	default:
	}
	s.mu.Lock()
	s.rejected++
	s.mu.Unlock()
	return nil, fmt.Errorf("%w: no pool freed within the %v queue wait", ErrRejected, s.cfg.QueueWait)
}

func (s *Server) noteAdmit() {
	s.mu.Lock()
	s.admitted++
	s.active++
	s.mu.Unlock()
}

// runQuery executes one admitted query end to end: fresh context, the
// pool installed, a budget lease attached, the handler run, everything
// released — pool last, so a freed slot always means a fully unwound query.
func (s *Server) runQuery(scheme, query string) (*engine.Result, error) {
	pool, err := s.admit()
	if err != nil {
		return nil, err
	}
	defer func() {
		s.mu.Lock()
		s.active--
		s.done++
		s.mu.Unlock()
		s.pools <- pool
	}()
	ctx := s.cfg.NewContext()
	if pool != nil {
		ctx.SetScheduler(pool)
	}
	if s.budget != nil {
		ctx.Mem.AttachBudget(s.budget, s.cfg.MemQuantum)
		defer ctx.Mem.DetachBudget()
	}
	defer ctx.CloseBackends() // no-op for daemon-shared sets (SharedBackends)
	res, err := s.cfg.Handler(ctx, scheme, query)
	if err != nil && errors.Is(err, engine.ErrMemBudget) {
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	return res, err
}

// Serve accepts client sessions on l until the listener fails or the server
// closes. It returns nil after Close.
func (s *Server) Serve(l net.Listener) error { return s.sessions.Serve(l) }

// open is one client session's frame handler. A session is a multiplexed
// pipe, not a serial one: each query runs on its own goroutine and
// concurrent requests from one client interleave freely.
func (s *Server) open(sess *wire.Session) wire.Handler {
	return func(id uint64, typ byte, payload []byte) error {
		switch typ {
		case frameStats:
			sess.Write(id, frameStatsReply, encodeStats(s.Stats(), wire.Buf()))
		case frameQuery:
			scheme, query, err := decodeQuery(payload)
			if err != nil {
				return err
			}
			end := sess.Begin()
			go func() {
				defer end()
				sess.Write(id, frameResult, s.answer(scheme, query))
			}()
		default:
			return fmt.Errorf("daemon received frame type %d", typ)
		}
		return nil
	}
}

// answer runs one query and returns its result frame: the encoded result, or
// the status and text of the error — a result over the frame cap among them.
func (s *Server) answer(scheme, query string) []byte {
	res, err := s.runQuery(scheme, query)
	if err == nil {
		out := encodeResult(res, append(wire.Buf(), statusOK))
		if err = wire.CheckPayload(len(out)-wire.HeaderLen, "serve: result"); err == nil {
			return out
		}
	}
	status := statusError
	if errors.Is(err, ErrRejected) {
		status = statusRejected
	}
	return append(append(wire.Buf(), status), err.Error()...)
}

// Close shuts the daemon down: listeners stop, sessions close (in-flight
// queries finish against their closed connections and unwind), request
// goroutines are joined, and the owned scheduler pools are released.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.sessions.Close(0)
	for _, p := range s.owned {
		p.Release()
	}
	return nil
}
