package engine

import (
	"runtime"
	"sync"

	"bdcc/internal/vector"
)

// This file is the engine's morsel-driven parallel execution core: an
// order-preserving exchange that fans work out — a scan's morsels to the
// query's shared scheduler (see scheduler.go), scan units and sandwich
// groups to a backend set — and merges the output batches back in job order.
// Every user drives it the same way: one feeder goroutine claims job indexes
// as the consumption window allows and starts one job per index. Because
// delivery order equals job order, a parallel plan produces byte-identical
// results to its serial counterpart; see the package comment for the full
// threading contract.
//
// Tasks submitted to the shared scheduler never block: backpressure is
// applied at claim time (the feeder waits while the window is full or the
// buffer cap is exceeded), not inside running tasks. That invariant is what
// lets one pool serve a whole scan→join→agg pipeline without cross-stage
// deadlock.

// DefaultWorkers is the default of the workers knob: one worker per
// available core.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// morselRows is the number of rows per scan morsel (a multiple of the batch
// size, so morsel cuts preserve batch boundaries).
const morselRows = 16 * vector.BatchSize

// exchangeBufferCap bounds the bytes of produced-but-unconsumed output
// batches an exchange will buffer before it stops releasing further jobs —
// the backpressure that keeps a parallel scan's peak memory within a
// constant of its serial peak. Jobs already in flight keep posting
// without blocking (their output is bounded by their input), so the cap can
// overshoot by the in-flight window's output; the memory tracker accounts
// the exact buffered bytes either way.
const exchangeBufferCap = 4 << 20

// exchange is the order-preserving merge at the top of every parallel
// operator. A feeder claims jobs in sequence; workers post their output
// batches under the job's index; the consumer drains batches strictly
// in job order, inside a job in posting order. A window bounds how far
// claiming may run ahead of consumption, bounding both buffered memory and
// the scheduler's in-flight task count.
type exchange struct {
	mu    sync.Mutex
	cond  *sync.Cond
	mem   *MemTracker
	sched *Sched
	wg    sync.WaitGroup // feeder goroutine

	window   int
	results  [][]*vector.Batch // posted output batches, indexed by job
	done     []bool            // job fully produced
	jobs     int               // total jobs; -1 while streaming input is open
	released int               // jobs claimed by the feeder
	next     int               // next job to consume
	pos      int               // batches of job `next` already consumed
	charged  int64             // bytes of buffered batches charged to mem
	tasksOut int               // submitted-but-unfinished scheduler tasks
	err      error
	closed   bool
}

// newExchange creates an exchange over the context's shared scheduler, which
// it holds a retain on until close. A nil scheduler is allowed for
// merge-only exchanges whose jobs all run elsewhere (shard backends
// registered via beginJob); such an exchange must never see submitJob.
func newExchange(mem *MemTracker, sched *Sched, window int) *exchange {
	e := &exchange{mem: mem, sched: sched, window: window, jobs: -1}
	e.cond = sync.NewCond(&e.mu)
	if sched != nil {
		sched.Retain()
	}
	return e
}

// ensureJob grows the result arrays to cover job. Called with e.mu held.
func (e *exchange) ensureJob(job int) {
	for len(e.results) <= job {
		e.results = append(e.results, nil)
		e.done = append(e.done, false)
	}
}

// claim hands the feeder the next job index, blocking while the in-flight
// window is full or the buffer cap is exceeded. Only the feeder goroutine
// calls claim — never a scheduler task. ok is false once every job of a
// sealed input was claimed or the exchange shut down.
func (e *exchange) claim() (job int, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for !e.closed && e.err == nil &&
		(e.released >= e.next+e.window || e.charged > exchangeBufferCap) &&
		(e.jobs < 0 || e.released < e.jobs) {
		e.cond.Wait()
	}
	if e.closed || e.err != nil || (e.jobs >= 0 && e.released >= e.jobs) {
		return 0, false
	}
	job = e.released
	e.released++
	e.ensureJob(job)
	return job, true
}

// submitJob schedules fn as the body of a claimed job: the task posts its
// emitted batches under the job index and marks the job finished. fn always
// runs, even on a closed exchange (so it can release in-flight accounting);
// it should check isClosed before doing real work. Used by the morsel scan's
// feeder.
func (e *exchange) submitJob(job int, fn func(worker int, emit func(*vector.Batch)) error) {
	e.mu.Lock()
	e.tasksOut++
	e.mu.Unlock()
	e.sched.Submit(-1, func(w int) {
		err := fn(w, func(b *vector.Batch) { e.post(job, b) })
		e.finish(job, err)
	})
}

// beginJob registers a claimed job whose body runs outside the exchange's
// executor — on a shard backend. The backend posts result batches with post
// and completes the job with finish; registering here is what makes close
// join the backend's completion callback before tearing the exchange down.
func (e *exchange) beginJob() {
	e.mu.Lock()
	e.tasksOut++
	e.mu.Unlock()
}

// post publishes one output batch of job; the consumer may pick it up before
// the job finishes. post never blocks (see the package comment on the
// no-blocking-tasks invariant).
func (e *exchange) post(job int, b *vector.Batch) {
	n := b.Bytes()
	e.mu.Lock()
	if !e.closed {
		e.results[job] = append(e.results[job], b)
		e.charged += n
		e.mem.Grow(n)
	}
	e.cond.Broadcast()
	e.mu.Unlock()
}

// finish marks job complete, recording the first error.
func (e *exchange) finish(job int, err error) {
	e.mu.Lock()
	e.done[job] = true
	e.tasksOut--
	if err != nil && e.err == nil {
		e.err = err
	}
	e.cond.Broadcast()
	e.mu.Unlock()
}

// seal fixes the total job count (streaming feeders call it at end of
// input; feed seals up front).
func (e *exchange) seal(jobs int) {
	e.mu.Lock()
	e.jobs = jobs
	e.cond.Broadcast()
	e.mu.Unlock()
}

// setErr records an error raised outside a job (e.g. by the feeder).
func (e *exchange) setErr(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.cond.Broadcast()
	e.mu.Unlock()
}

// nextBatch returns the next output batch in job order, nil at end of
// stream. Consuming progress wakes the feeder, so freed window room turns
// into new scheduler tasks.
func (e *exchange) nextBatch() (*vector.Batch, error) {
	e.mu.Lock()
	for {
		if e.err != nil {
			e.mu.Unlock()
			return nil, e.err
		}
		if e.next < len(e.results) && e.pos < len(e.results[e.next]) {
			b := e.results[e.next][e.pos]
			e.results[e.next][e.pos] = nil
			e.pos++
			n := b.Bytes()
			e.charged -= n
			e.mem.Shrink(n)
			e.cond.Broadcast() // wakes the feeder blocked on the buffer cap
			e.mu.Unlock()
			return b, nil
		}
		if e.next < len(e.results) && e.done[e.next] && e.pos >= len(e.results[e.next]) {
			e.results[e.next] = nil
			e.next++
			e.pos = 0
			e.cond.Broadcast() // frees window room for the feeder
			continue
		}
		if e.jobs >= 0 && e.next >= e.jobs {
			e.mu.Unlock()
			return nil, nil
		}
		if e.closed {
			e.mu.Unlock()
			return nil, nil
		}
		e.cond.Wait()
	}
}

// close shuts the exchange down: no further jobs are released, in-flight
// tasks and the feeder are joined, still-buffered batches are released from
// the memory tracker, and the scheduler retain is dropped. It is safe to
// call close before, during, or after consumption — including when the
// consumer abandoned the stream mid-way (early Limit, downstream error), so
// a closed exchange never leaves producers behind.
func (e *exchange) close() {
	e.mu.Lock()
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	// Join the feeder before draining tasks: a feeder that claimed its job
	// before the close may still be assembling it and will submit (or ship
	// to a backend) one last task — only once the feeder has exited is the
	// in-flight count final, so waiting on tasksOut first would let that
	// straggler's accounting release after close returns.
	e.wg.Wait()
	e.mu.Lock()
	for e.tasksOut > 0 {
		e.cond.Wait()
	}
	e.mem.Shrink(e.charged)
	e.charged = 0
	e.results = nil
	e.mu.Unlock()
	if e.sched != nil {
		e.sched.Release()
		e.sched = nil
	}
}

// feed seals the exchange at jobs and starts the feeder goroutine that
// claims them in order and hands each to start, which registers it —
// submitJob for a pool task, beginJob for a unit shipped to a backend.
func (e *exchange) feed(jobs int, start func(job int)) {
	e.seal(jobs)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			job, ok := e.claim()
			if !ok {
				return
			}
			start(job)
		}
	}()
}

func (e *exchange) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}
