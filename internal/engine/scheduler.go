package engine

import (
	"sync"
	"time"
)

// Sched is the per-query (per-Context) worker pool of the morsel paper's
// design: one pool of exactly Workers goroutines shared by every morsel scan
// of a plan, with per-worker FIFO deques and task stealing. The planner
// injects one handle per query into the scans; a nil handle means serial
// execution. A worker daemon runs its units on a pool of its own.
//
// Tasks must never block on exchange or operator state — the pool is shared
// across pipeline stages, so a blocked worker could starve the very stage
// that would unblock it. The order-preserving exchange therefore releases
// tasks only while its consumption window and buffer cap allow, instead of
// letting running tasks block (see parallel.go). Coordinator goroutines
// (exchange feeders) may block; they never occupy a pool worker.
//
// Worker goroutines are spawned on demand and exit once the pool is idle and
// unreferenced (no operator holds a retain), so a finished query leaves no
// goroutines behind and total busy goroutines stay bounded by Workers plus a
// small constant of coordinators.
type Sched struct {
	mu      sync.Mutex
	cond    *sync.Cond
	workers int
	deques  [][]Task // per-worker FIFO queues; idle workers steal from others
	live    []bool   // per-worker: goroutine currently running
	rr      int      // round-robin cursor for external submissions
	refs    int      // open operator handles; workers exit at 0
	stats   SchedStats
}

// Task is one unit of scheduled work; worker is the executing pool worker's
// index in [0, Workers()), valid as an index into per-worker scratch.
type Task func(worker int)

// SchedStats is a snapshot of scheduler activity, reported by tpchbench -v.
type SchedStats struct {
	// Tasks is the number of tasks submitted.
	Tasks int64
	// Steals counts tasks executed by a worker other than the one whose
	// deque they were submitted to.
	Steals int64
	// Idle is the cumulative time workers spent parked waiting for work.
	Idle time.Duration
}

// NewSched returns a pool of exactly `workers` goroutines (spawned lazily,
// exiting when idle and unreferenced). The per-query pool is created through
// Context.Scheduler; NewSched exists for pools that outlive a query, such as
// a worker's or a daemon's.
func NewSched(workers int) *Sched {
	s := &Sched{
		workers: workers,
		deques:  make([][]Task, workers),
		live:    make([]bool, workers),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Workers returns the pool size; per-worker operator scratch is sized by it.
// A nil handle, serial execution, has one.
func (s *Sched) Workers() int {
	if s == nil {
		return 1
	}
	return s.workers
}

// Retain registers an operator that will submit tasks; workers stay alive
// (parked when idle) until every retain is released.
func (s *Sched) Retain() {
	s.mu.Lock()
	s.refs++
	s.mu.Unlock()
}

// Release drops one operator handle; at zero, idle workers drain and exit.
func (s *Sched) Release() {
	s.mu.Lock()
	s.refs--
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Submit enqueues t for execution. from names the submitting pool worker, so
// continuation tasks land on the submitter's own deque; negative means an
// external submission (consumer or feeder), spread round-robin.
func (s *Sched) Submit(from int, t Task) {
	s.mu.Lock()
	w := from
	if w < 0 || w >= s.workers {
		w = s.rr % s.workers
		s.rr++
	}
	s.deques[w] = append(s.deques[w], t)
	s.stats.Tasks++
	for i := 0; i < s.workers; i++ {
		if !s.live[i] {
			s.live[i] = true
			go s.run(i)
		}
	}
	// One task needs one worker: any parked worker can take any deque's
	// task (stealing), so a single wakeup suffices and the rest stay
	// parked instead of thundering on a 1-task submission.
	s.cond.Signal()
	s.mu.Unlock()
}

// Stats returns a snapshot of scheduler activity.
func (s *Sched) Stats() SchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// run is the worker goroutine body: execute own-deque tasks in submission
// order, steal from other deques when empty, park when the pool has no work,
// and exit once the pool is unreferenced.
func (s *Sched) run(w int) {
	s.mu.Lock()
	for {
		if t, stolen := s.take(w); t != nil {
			if stolen {
				s.stats.Steals++
			}
			s.mu.Unlock()
			t(w)
			s.mu.Lock()
			continue
		}
		if s.refs <= 0 {
			s.live[w] = false
			s.mu.Unlock()
			return
		}
		start := time.Now()
		s.cond.Wait()
		s.stats.Idle += time.Since(start)
	}
}

// take pops the oldest task of w's own deque, or steals the oldest task of
// another worker's deque. Oldest-first order matters: the order-preserving
// exchange consumes jobs in submission order, so running old tasks first
// advances the consumption window fastest. Called with s.mu held.
func (s *Sched) take(w int) (t Task, stolen bool) {
	for i := 0; i < s.workers; i++ {
		v := (w + i) % s.workers
		if q := s.deques[v]; len(q) > 0 {
			t := q[0]
			q[0] = nil
			s.deques[v] = q[1:]
			if len(s.deques[v]) == 0 {
				s.deques[v] = nil // release the drained backing array
			}
			return t, v != w
		}
	}
	return nil, false
}
