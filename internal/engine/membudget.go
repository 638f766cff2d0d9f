// Process-global memory governance: a MemBudget is the single budget a
// daemon's concurrently running queries reserve their operator memory
// against, and the hierarchical side of MemTracker (AttachBudget) bridges
// the per-query meter to it.
//
// The split of responsibilities keeps the paper's Figure 3 metric exact
// while making the process bound hard:
//
//   - MemTracker.Grow/Shrink/Peak account *exact* bytes, bit-for-bit the
//     same arithmetic whether or not a budget is attached — the per-query
//     peak series is untouched by governance.
//   - Reservations against the budget are made in coarse quanta (default
//     1 MiB) so the hot Grow path hits the process-global mutex once per
//     quantum, not once per batch.
//   - The budget never lends more than its limit: a reservation that does
//     not fit waits in FIFO order for releases, up to the budget's bounded
//     wait, and then fails. Grow cannot return an error (and runs on
//     scheduler pool goroutines that must not panic), so a failed
//     reservation latches an error on the tracker instead; engine.Run
//     checks the latch between batches and aborts the query, whose
//     operators then Close and Shrink normally — accounting stays
//     symmetric on both meters.
//
// The governed quantity is accounted bytes, checked at quantum granularity:
// between an allocation and its Grow call a query can briefly hold real
// memory beyond its reservation, so the budget bounds accounted state, not
// the Go heap.
package engine

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrMemBudget is the sentinel wrapped by every budget-rejection error, so
// admission layers can tell "query refused under memory pressure" (retryable
// later, reported as a rejection) from query evaluation errors.
var ErrMemBudget = errors.New("engine: process memory budget exhausted")

// DefaultMemQuantum is the reservation granularity trackers use against
// their parent budget when none is configured.
const DefaultMemQuantum = int64(1 << 20)

// MemBudget is a process-global memory budget shared by concurrent queries.
// Per-query MemTrackers attached via AttachBudget reserve quanta from it as
// their accounted bytes grow; when the budget is hot, reservations wait
// (FIFO, bounded by maxWait) for other queries' releases and fail with
// ErrMemBudget when the wait expires. The zero limit is not special-cased:
// a budget always enforces its limit, and a nil *MemBudget disables
// governance entirely.
type MemBudget struct {
	limit   int64
	maxWait time.Duration

	mu       sync.Mutex
	cur      int64
	peak     int64
	waiters  []*budgetWaiter
	queued   int64
	rejected int64
}

type budgetWaiter struct {
	n       int64
	granted chan struct{}
}

// NewMemBudget returns a budget of limit bytes. Reservations that do not
// fit wait up to maxWait for releases before failing; maxWait <= 0 means
// reject immediately, never queue.
func NewMemBudget(limit int64, maxWait time.Duration) *MemBudget {
	return &MemBudget{limit: limit, maxWait: maxWait}
}

// Reserve takes n bytes from the budget, waiting (FIFO behind earlier
// waiters, up to the budget's bounded wait) when it is hot. It returns an
// error wrapping ErrMemBudget — and reserves nothing — when the wait
// expires or queueing is disabled. n > limit can never succeed and fails
// without queueing.
func (b *MemBudget) Reserve(n int64) error {
	if b == nil || n <= 0 {
		return nil
	}
	b.mu.Lock()
	if n > b.limit {
		b.rejected++
		b.mu.Unlock()
		return fmt.Errorf("reserve %d bytes exceeds budget %d: %w", n, b.limit, ErrMemBudget)
	}
	// Grant immediately only when no earlier waiter is queued: reservations
	// are strictly FIFO so a large waiter cannot be starved by small ones.
	if len(b.waiters) == 0 && b.cur+n <= b.limit {
		b.cur += n
		b.peak = max(b.peak, b.cur)
		b.mu.Unlock()
		return nil
	}
	if b.maxWait <= 0 {
		b.rejected++
		cur := b.cur
		b.mu.Unlock()
		return fmt.Errorf("reserve %d bytes (reserved %d of %d, queueing disabled): %w",
			n, cur, b.limit, ErrMemBudget)
	}
	w := &budgetWaiter{n: n, granted: make(chan struct{})}
	b.waiters = append(b.waiters, w)
	b.queued++
	b.mu.Unlock()

	timer := time.NewTimer(b.maxWait)
	defer timer.Stop()
	select {
	case <-w.granted:
		return nil
	case <-timer.C:
	}

	b.mu.Lock()
	select {
	case <-w.granted:
		// A release granted us between the timeout firing and the lock.
		b.mu.Unlock()
		return nil
	default:
	}
	for i, x := range b.waiters {
		if x == w {
			b.waiters = append(b.waiters[:i], b.waiters[i+1:]...)
			break
		}
	}
	b.rejected++
	// Removing a too-big head may unblock smaller waiters behind it.
	b.grantLocked()
	cur := b.cur
	b.mu.Unlock()
	return fmt.Errorf("reserve %d bytes timed out after %s (reserved %d of %d): %w",
		n, b.maxWait, cur, b.limit, ErrMemBudget)
}

// Release returns n previously reserved bytes and hands them to queued
// waiters in FIFO order.
func (b *MemBudget) Release(n int64) {
	if b == nil || n <= 0 {
		return
	}
	b.mu.Lock()
	b.cur -= n
	b.grantLocked()
	b.mu.Unlock()
}

// grantLocked grants queued waiters from the front while they fit.
func (b *MemBudget) grantLocked() {
	for len(b.waiters) > 0 {
		w := b.waiters[0]
		if b.cur+w.n > b.limit {
			return
		}
		b.cur += w.n
		b.peak = max(b.peak, b.cur)
		b.waiters = b.waiters[1:]
		close(w.granted)
	}
}

// Reserved returns the currently reserved bytes across all queries.
func (b *MemBudget) Reserved() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cur
}

// PeakReserved returns the high-water mark of summed reservations — by
// construction never above Limit.
func (b *MemBudget) PeakReserved() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}

// Queued returns how many reservations have waited on the budget.
func (b *MemBudget) Queued() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.queued
}

// Rejected returns how many reservations the budget has refused.
func (b *MemBudget) Rejected() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rejected
}

// AttachBudget ties the tracker to a process-global budget: from now on the
// tracker keeps a reservation of at least its accounted bytes (rounded up
// to quantum, <= 0 selects DefaultMemQuantum) against the parent, growing
// it on Grow and trimming it on Shrink. The tracker's own cur/peak
// arithmetic is unchanged — Figure 3 semantics are identical with and
// without a parent. Attach before first use; re-attaching a used tracker is
// not supported.
func (m *MemTracker) AttachBudget(b *MemBudget, quantum int64) {
	if m == nil || b == nil {
		return
	}
	if quantum <= 0 {
		quantum = DefaultMemQuantum
	}
	m.mu.Lock()
	m.parent = b
	m.quantum = quantum
	m.mu.Unlock()
}

// DetachBudget releases the tracker's remaining parent reservation (queries
// shrink back to zero on clean shutdown, but an aborted query's owner calls
// this to guarantee the budget gets every quantum back) and detaches the
// parent. The error latch survives detaching.
func (m *MemTracker) DetachBudget() {
	if m == nil {
		return
	}
	m.mu.Lock()
	parent, give := m.parent, m.reserved
	m.parent = nil
	m.reserved = 0
	m.mu.Unlock()
	parent.Release(give)
}

// Err returns the budget-rejection error latched by a failed reservation,
// nil while the tracker is within budget. Run polls this between batches to
// abort over-budget queries.
func (m *MemTracker) Err() error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failed
}

// ensureReserved grows the parent reservation to cover the tracker's
// accounted bytes. resMu serializes attempts so reserved only ever counts
// granted bytes (Shrink can release concurrently without double-counting)
// and so at most one goroutine of the query waits on the hot budget while
// the others proceed on the already-held mutex-free path.
func (m *MemTracker) ensureReserved() {
	m.resMu.Lock()
	defer m.resMu.Unlock()
	m.mu.Lock()
	if m.failed != nil || m.parent == nil {
		m.mu.Unlock()
		return
	}
	need := m.cur - m.reserved
	quantum, parent := m.quantum, m.parent
	m.mu.Unlock()
	if need <= 0 {
		return
	}
	grab := (need + quantum - 1) / quantum * quantum
	if err := parent.Reserve(grab); err != nil {
		m.mu.Lock()
		if m.failed == nil {
			m.failed = err
		}
		m.mu.Unlock()
		return
	}
	m.mu.Lock()
	m.reserved += grab
	m.mu.Unlock()
}
