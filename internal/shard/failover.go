package shard

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"bdcc/internal/engine"
	"bdcc/internal/iosim"
	"bdcc/internal/vector"
)

// Failover: unit-level retry across a backend set, plus the recovery half —
// re-admission and graceful degradation. Every backend of a set is wrapped;
// a unit routed to wrapper i first runs on backend i, and when the attempt
// fails with an ErrBackendDown-wrapped error (connection loss, a killed
// worker, a refused dial) the unit is rerouted to the next surviving
// backend, excluding every backend that already failed it in its current
// incarnation. Work errors (frameDone text) are never retried: a
// deterministic group join that failed once fails identically everywhere,
// so rerouting would only mask the error.
//
// A backend observed down is marked so later units skip it up front, and —
// when the slot has a dialable address — a health prober (health.go) starts
// re-dialing it under bounded jittered backoff. On reconnect the prober
// re-ships the session's plan fragments over the fresh connection and
// re-admits the slot: its epoch advances, so the per-unit exclusion chain
// (which records the epoch a slot failed at) resets and later units — even
// ones that failed on the dead incarnation — can land on the recovered
// worker again.
//
// When no backend survives a unit's exclusion chain, the set degrades
// gracefully instead of failing the query: the unit runs on the
// coordinator's own copy of the fragment (every sharded fragment is also
// prepared query-side), and a counter records the downgrade.
//
// Result batches stream straight through to the real emit as they arrive —
// buffering them until done would hide a whole window of unit output from
// the exchange's buffer cap and the query's memory meter. What makes
// streaming retry-safe is determinism: a group join's output is a pure
// function of (fragment, unit), emitted sequentially, so a retry — on a
// survivor, a re-admitted worker, or the local fallback — replays the exact
// batch sequence the failed attempt produced and the wrapper simply skips
// the prefix that was already delivered. A backend that died halfway
// through a group therefore contributes exactly its delivered prefix, and
// the survivor contributes the rest — byte-identical to an undisturbed run.

// failover is the shared state of one wrapped backend set.
type failover struct {
	mu            sync.Mutex
	slots         []*slot
	health        []engine.BackendHealth
	frags         map[*engine.Fragment]struct{}
	fallbackUnits int64
	closed        bool

	// parts registers each partitioned table's per-slot shipments, partsVer
	// counting registrations: a re-admission ships the registry to the fresh
	// session and re-checks the version before publishing, so a partition
	// registered concurrently is never missing from an admitted worker.
	// scanIO, when enabled, holds the per-slot hooks fed each scan unit's
	// done-frame read stats.
	parts    map[string][]*partShipment
	partsVer uint64
	scanIO   []func(runs, pages, bytes int64)

	probe ProbeConfig
	token string // auth token the prober presents on re-dials
	acct  *iosim.Accountant
	rng   *rand.Rand

	ctx     context.Context
	cancel  context.CancelFunc
	probers sync.WaitGroup
}

// slot is one position of the set: the live backend (nil while down with no
// connection), the address the prober re-dials ("" = not reconnectable, e.g.
// a simulated remote), and the down → probing → up state. epoch counts
// re-admissions: a unit excludes (slot, epoch) pairs, so a slot that failed
// it becomes eligible again once a fresh incarnation is admitted.
type slot struct {
	backend engine.Backend
	addr    string
	workers int
	down    bool
	probing bool
	epoch   uint64
}

// failoverBackend is the wrapper at one set index; it implements
// engine.Backend and preserves 1:1 index alignment with Set.Route.
type failoverBackend struct {
	f   *failover
	idx int
}

// failoverOptions configures newFailover beyond the slot list.
type failoverOptions struct {
	probe ProbeConfig
	token string
	acct  *iosim.Accountant
}

// newFailover builds the wrapped set over prepared slots and starts a
// prober for every slot that is already down (a worker unreachable at dial
// time joins the set down and is re-admitted when it comes up).
func newFailover(slots []*slot, opt failoverOptions) ([]engine.Backend, *failover) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &failover{
		slots:  slots,
		health: make([]engine.BackendHealth, len(slots)),
		frags:  make(map[*engine.Fragment]struct{}),
		parts:  make(map[string][]*partShipment),
		probe:  opt.probe.withDefaults(),
		token:  opt.token,
		acct:   opt.acct,
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
		ctx:    ctx,
		cancel: cancel,
	}
	out := make([]engine.Backend, len(slots))
	for i, s := range slots {
		out[i] = &failoverBackend{f: f, idx: i}
		if s.backend == nil {
			s.down = true
			f.health[i].Downs++
			if s.addr != "" {
				s.probing = true
				f.startProber(i)
			}
		}
	}
	return out, f
}

// startProber launches the probe loop of slot i. Callers hold f.mu or own
// the set exclusively (construction); slot i's probing flag is already set.
func (f *failover) startProber(i int) {
	f.probers.Add(1)
	go func() {
		defer f.probers.Done()
		f.probeLoop(i)
	}()
}

// Workers implements engine.Backend. The worker count is the slot's cached
// one, so a down slot still reports its last-known parallelism (sizing the
// exchange lookahead must not collapse mid-query).
func (b *failoverBackend) Workers() int {
	b.f.mu.Lock()
	defer b.f.mu.Unlock()
	if w := b.f.slots[b.idx].workers; w > 1 {
		return w
	}
	return 1
}

// Close implements engine.Backend. The first wrapper closed shuts the whole
// set's recovery machinery down — the context cancels, stopping every
// prober mid-backoff or mid-dial — then each wrapper closes its own slot's
// backend.
func (b *failoverBackend) Close() error {
	f := b.f
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		f.cancel()
	}
	s := f.slots[b.idx]
	bk := s.backend
	s.backend = nil
	f.mu.Unlock()
	f.probers.Wait()
	if bk != nil {
		return bk.Close()
	}
	return nil
}

// RunGroup implements engine.Backend: run the unit on the preferred
// backend, rerouting to survivors on transport failure. The fragment is
// remembered for the session so re-admission can re-ship it to recovered
// workers.
func (b *failoverBackend) RunGroup(u *engine.GroupUnit, frag *engine.Fragment, emit func(*vector.Batch), done func(error)) {
	f := b.f
	f.mu.Lock()
	f.frags[frag] = struct{}{}
	f.mu.Unlock()
	t := &try{
		u: u, frag: frag, emit: emit, done: done,
		excluded: make([]uint64, len(f.slots)),
		home:     b.idx,
		pinned:   u.ScanRanges != nil,
	}
	f.attempt(t, b.idx)
}

// partShipper is the capability surface partition shipping needs from a
// slot's backend: the network client implements it (and the simulated
// remote inherits it); a backend without it simply never receives
// partitions, and its scan units fail Prepare as work errors.
type partShipper interface {
	shipPartition(s *partShipment) error
	SetScanIO(fn func(runs, pages, bytes int64))
}

// shipPartition registers table's per-slot shipments (index-aligned with
// the slots) and ships each live slot its own, the slots concurrently so
// that their offers' round trips overlap. Transport errors are deliberately not handled here: a failed ship breaks
// that session, the slot's units fail with ErrBackendDown, and re-admission
// re-ships the whole registry over the fresh connection. Idempotent per
// table.
func (f *failover) shipPartition(table string, ships []*partShipment) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	if _, done := f.parts[table]; done {
		f.mu.Unlock()
		return
	}
	f.parts[table] = ships
	f.partsVer++
	type target struct {
		cl   partShipper
		ship *partShipment
	}
	var targets []target
	for i, s := range f.slots {
		if s.down || s.backend == nil || ships[i] == nil {
			continue
		}
		if cl, ok := s.backend.(partShipper); ok {
			targets = append(targets, target{cl, ships[i]})
		}
	}
	f.mu.Unlock()
	var wg sync.WaitGroup
	for _, t := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.cl.shipPartition(t.ship)
		}()
	}
	wg.Wait()
}

// setScanIO installs the per-slot scan-read-stats hooks (index-aligned with
// the slots) on every live session; re-admissions install them on fresh
// sessions before publishing. First call wins — the hooks feed long-lived
// per-worker accountants, not per-query state.
func (f *failover) setScanIO(hooks []func(runs, pages, bytes int64)) {
	f.mu.Lock()
	if f.scanIO != nil || f.closed {
		f.mu.Unlock()
		return
	}
	f.scanIO = hooks
	type target struct {
		cl   partShipper
		hook func(runs, pages, bytes int64)
	}
	var targets []target
	for i, s := range f.slots {
		if s.backend == nil || hooks[i] == nil {
			continue
		}
		if cl, ok := s.backend.(partShipper); ok {
			targets = append(targets, target{cl, hooks[i]})
		}
	}
	f.mu.Unlock()
	for _, t := range targets {
		t.cl.SetScanIO(t.hook)
	}
}

// try is the cross-attempt state of one unit: the delivered-batch prefix
// and the exclusion chain. excluded[i] holds epoch+1 of slot i at the
// attempt that failed on it (0 = never failed there), so a re-admitted
// incarnation — a higher epoch — is eligible again. A pinned try (a scan
// unit) only ever runs on its home slot: the unit's partition lives there
// and nowhere else among the workers, so on failure the only retry targets
// are a re-admitted incarnation of home (which re-ships the partition
// first) and the coordinator's local fallback, which holds the full table.
type try struct {
	u         *engine.GroupUnit
	frag      *engine.Fragment
	emit      func(*vector.Batch)
	done      func(error)
	delivered int
	excluded  []uint64
	attempts  int
	home      int
	pinned    bool
}

// pick returns the first usable slot at or after pref (cyclically): not
// down, holding a live backend, and not excluded by this unit's chain at
// its current epoch. It returns the backend and epoch observed under the
// lock, so a concurrent readmit between pick and the attempt's failure is
// detected as a stale epoch.
func (f *failover) pick(pref int, t *try) (int, engine.Backend, uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if t.pinned {
		s := f.slots[t.home]
		if s.down || s.backend == nil || t.excluded[t.home] == s.epoch+1 {
			return -1, nil, 0
		}
		return t.home, s.backend, s.epoch
	}
	n := len(f.slots)
	for k := 0; k < n; k++ {
		i := (pref + k) % n
		s := f.slots[i]
		if s.down || s.backend == nil {
			continue
		}
		if t.excluded[i] == s.epoch+1 {
			continue
		}
		return i, s.backend, s.epoch
	}
	return -1, nil, 0
}

// attempt runs one try of the unit, chaining the next try from the done
// callback on transport failure. delivered counts the batches already
// passed to the real emit across attempts: a retry replays the unit's
// deterministic batch sequence and skips that prefix, so the merged output
// never duplicates and never misses a batch. The backend contract
// serializes a unit's emit and done calls, so the try needs no lock.
// Exactly-once delivery of done holds: every chain ends in exactly one
// call — success, a non-retryable error, or the local fallback.
func (f *failover) attempt(t *try, pref int) {
	// Epoch churn bounds each (slot, epoch) pair to one attempt, but a
	// worker flapping in lockstep with retries could in principle chain
	// forever; cap the chain and degrade.
	t.attempts++
	exhausted := t.attempts > 2*len(f.slots)+2
	i, bk, epoch := -1, engine.Backend(nil), uint64(0)
	if !exhausted {
		i, bk, epoch = f.pick(pref, t)
	}
	if i < 0 {
		f.runLocal(t)
		return
	}
	seen := 0
	bk.RunGroup(t.u, t.frag,
		func(b *vector.Batch) {
			seen++
			if seen > t.delivered {
				t.emit(b)
				t.delivered = seen
			}
		},
		func(err error) {
			if err == nil {
				if epoch > 0 {
					// A re-admitted incarnation served this unit: the proof
					// the chaos harness asserts on.
					f.mu.Lock()
					f.health[i].ReadmitUnits++
					f.mu.Unlock()
				}
				t.done(nil)
				return
			}
			if !errors.Is(err, ErrBackendDown) {
				t.done(err) // a work error: deterministic, not worth rerouting
				return
			}
			f.noteFailure(i, epoch)
			t.excluded[i] = epoch + 1
			f.attempt(t, (i+1)%len(f.slots))
		})
}

// noteFailure records a failed attempt on slot i at the given epoch: the
// retry counter always advances, but the slot is only marked down if the
// failing connection is still the slot's current incarnation — a failure
// observed on a connection that was already replaced by a readmit must not
// take the fresh one down. Marking down starts the prober when the slot is
// reconnectable.
func (f *failover) noteFailure(i int, epoch uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.health[i].Retries++
	s := f.slots[i]
	if s.epoch != epoch || s.down {
		return
	}
	s.down = true
	f.health[i].Downs++
	if s.addr != "" && !s.probing && !f.closed {
		s.probing = true
		f.startProber(i)
	}
}

// readmitResult is the outcome of offering a fresh connection to a slot.
type readmitResult int

const (
	readmitOK     readmitResult = iota // published; the prober is done
	readmitRetry                       // preload failed; keep probing
	readmitClosed                      // the set closed; stop probing
)

// readmit re-admits slot i over the fresh connection cl: the slot's table
// partitions and the session's plan fragments are re-shipped first (a fresh
// session has bound no partition and holds no fragment, units may reference
// any fragment of the query, and a scan unit pinned to this slot needs its
// partition bound before it can land), then the slot is published up with
// its epoch advanced — resetting every unit's exclusion of it. Partitions
// re-ship through the same offer as at plan time, so a worker that only lost
// its connection answers that it holds them, and only a restarted one is
// sent the data. A partition registered while shipping was under way is
// caught by the version re-check and shipped in another pass (the client's
// per-session dedup makes the re-pass cheap). The previous dead backend, if
// any, is closed.
func (f *failover) readmit(i int, cl *client) readmitResult {
	for {
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return readmitClosed
		}
		ver := f.partsVer
		var ships []*partShipment
		for _, perSlot := range f.parts {
			if perSlot[i] != nil {
				ships = append(ships, perSlot[i])
			}
		}
		var hook func(runs, pages, bytes int64)
		if f.scanIO != nil {
			hook = f.scanIO[i]
		}
		frags := make([]*engine.Fragment, 0, len(f.frags))
		for fr := range f.frags {
			frags = append(frags, fr)
		}
		f.mu.Unlock()
		if hook != nil {
			cl.SetScanIO(hook)
		}
		for _, sh := range ships {
			if err := cl.shipPartition(sh); err != nil {
				return readmitRetry
			}
		}
		for _, fr := range frags {
			if err := cl.Preload(fr); err != nil {
				return readmitRetry
			}
		}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return readmitClosed
		}
		if f.partsVer != ver {
			f.mu.Unlock()
			continue
		}
		s := f.slots[i]
		old := s.backend
		s.backend = cl
		s.workers = cl.Workers()
		s.down, s.probing = false, false
		s.epoch++
		f.health[i].Readmits++
		f.mu.Unlock()
		if old != nil {
			old.Close()
		}
		return readmitOK
	}
}

// runLocal is graceful degradation: with no backend surviving the unit's
// exclusion chain, the unit runs on the coordinator's own copy of the
// fragment (sharded fragments are always prepared query-side too) instead
// of failing the query. The same delivered-prefix skip applies, so a unit
// that streamed half its batches from a now-dead worker finishes locally
// byte-identically. Runs on its own goroutine — the caller may be a
// client read loop, which must not block on local join work.
func (f *failover) runLocal(t *try) {
	f.mu.Lock()
	f.fallbackUnits++
	f.mu.Unlock()
	go func() {
		seen := 0
		t.done(t.frag.Run(t.u, func(b *vector.Batch) {
			seen++
			if seen > t.delivered {
				t.emit(b.Clone()) // Run lends its batches; the exchange keeps them
				t.delivered = seen
			}
		}))
	}()
}

// Health returns a snapshot of the per-slot failover health counters and
// prober states.
func (f *failover) Health() []engine.BackendHealth {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]engine.BackendHealth, len(f.health))
	copy(out, f.health)
	for i, s := range f.slots {
		switch {
		case !s.down:
			out[i].State = "up"
		case s.probing:
			out[i].State = "probing"
		default:
			out[i].State = "down"
		}
	}
	return out
}

// FallbackUnits returns how many units ran on the coordinator's local
// fallback because no remote survived them.
func (f *failover) FallbackUnits() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fallbackUnits
}
