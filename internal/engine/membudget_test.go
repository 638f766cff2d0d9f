package engine

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestMemTrackerRacingGrowShrink drives many goroutines through balanced
// Grow/Shrink pairs and checks the tracker nets out to zero — the meter's
// basic books-balance invariant under concurrency (run under -race in CI).
func TestMemTrackerRacingGrowShrink(t *testing.T) {
	m := &MemTracker{}
	const goroutines, rounds = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := int64(g%7 + 1)
			for i := 0; i < rounds; i++ {
				m.Grow(n)
				m.Shrink(n)
			}
		}(g)
	}
	wg.Wait()
	if got := m.Current(); got != 0 {
		t.Fatalf("current after balanced grow/shrink = %d, want 0", got)
	}
	if m.Peak() <= 0 {
		t.Fatalf("peak = %d, want > 0", m.Peak())
	}
}

// TestMemTrackerPeakMonotonic samples Peak concurrently with growth and
// checks it never decreases and always covers the final Current.
func TestMemTrackerPeakMonotonic(t *testing.T) {
	m := &MemTracker{}
	done := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		var last int64
		for {
			select {
			case <-done:
				return
			default:
			}
			p := m.Peak()
			if p < last {
				t.Errorf("peak went backwards: %d after %d", p, last)
				return
			}
			last = p
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				m.Grow(3)
				if i%2 == 1 {
					m.Shrink(2)
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	sampler.Wait()
	if m.Peak() < m.Current() {
		t.Fatalf("peak %d < current %d", m.Peak(), m.Current())
	}
}

// TestMemTrackerBudgetSymmetry checks the parent-budget reserve/release
// symmetry: racing balanced Grow/Shrink on several trackers attached to one
// budget must return every reserved quantum, and per-tracker Peak must be
// exactly what an ungoverned tracker reports for the same call sequence.
func TestMemTrackerBudgetSymmetry(t *testing.T) {
	budget := NewMemBudget(1<<30, time.Second)
	const trackers, rounds = 4, 1500
	var wg sync.WaitGroup
	peaks := make([]int64, trackers)
	for g := 0; g < trackers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := &MemTracker{}
			m.AttachBudget(budget, 4096)
			var inner sync.WaitGroup
			for w := 0; w < 3; w++ {
				inner.Add(1)
				go func() {
					defer inner.Done()
					for i := 0; i < rounds; i++ {
						m.Grow(1000)
						m.Shrink(1000)
					}
				}()
			}
			inner.Wait()
			if cur := m.Current(); cur != 0 {
				t.Errorf("tracker %d current = %d, want 0", g, cur)
			}
			if err := m.Err(); err != nil {
				t.Errorf("tracker %d latched %v under a roomy budget", g, err)
			}
			peaks[g] = m.Peak()
			m.DetachBudget()
		}(g)
	}
	wg.Wait()
	if got := budget.Reserved(); got != 0 {
		t.Fatalf("budget reserved after all queries shrank to zero = %d, want 0", got)
	}
	if budget.PeakReserved() <= 0 || budget.PeakReserved() > budget.limit {
		t.Fatalf("budget peak %d outside (0, %d]", budget.PeakReserved(), budget.limit)
	}
	for g, p := range peaks {
		if p < 1000 || p > 3000 {
			t.Fatalf("tracker %d peak %d outside the ungoverned range [1000, 3000]", g, p)
		}
	}
}

// TestMemBudgetNeverOvercommits hammers a small budget from many trackers
// and asserts the budget's core guarantee: summed reservations never exceed
// the limit (PeakReserved <= Limit), with the pressure visible as queued
// and/or rejected reservations.
func TestMemBudgetNeverOvercommits(t *testing.T) {
	budget := NewMemBudget(64<<10, 2*time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := &MemTracker{}
			m.AttachBudget(budget, 8<<10)
			for i := 0; i < 200; i++ {
				m.Grow(20 << 10)
				time.Sleep(50 * time.Microsecond)
				m.Shrink(20 << 10)
			}
			m.DetachBudget()
		}()
	}
	wg.Wait()
	if budget.PeakReserved() > budget.limit {
		t.Fatalf("peak reserved %d exceeds limit %d", budget.PeakReserved(), budget.limit)
	}
	if got := budget.Reserved(); got != 0 {
		t.Fatalf("reserved after detach = %d, want 0", got)
	}
	if budget.Queued() == 0 && budget.Rejected() == 0 {
		t.Fatalf("8 trackers × 20KiB against a 64KiB budget produced no queueing and no rejections")
	}
}

// TestMemBudgetRejectLatch checks that an impossible reservation latches
// ErrMemBudget on the tracker without disturbing its exact accounting, and
// that the latch survives further Grow/Shrink traffic.
func TestMemBudgetRejectLatch(t *testing.T) {
	budget := NewMemBudget(4<<10, 0)
	m := &MemTracker{}
	m.AttachBudget(budget, 1<<10)
	m.Grow(64 << 10)
	if err := m.Err(); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("Err() = %v, want ErrMemBudget", err)
	}
	if got := m.Current(); got != 64<<10 {
		t.Fatalf("current = %d, want %d (accounting must stay exact past rejection)", got, 64<<10)
	}
	m.Grow(1 << 10)
	m.Shrink(65 << 10)
	if got := m.Current(); got != 0 {
		t.Fatalf("current after unwind = %d, want 0", got)
	}
	if err := m.Err(); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("latch cleared by unwind: %v", err)
	}
	m.DetachBudget()
	if got := budget.Reserved(); got != 0 {
		t.Fatalf("budget reserved = %d, want 0", got)
	}
	if budget.Rejected() == 0 {
		t.Fatal("rejected counter = 0, want > 0")
	}
}

// TestMemBudgetFIFOWait checks bounded-wait queueing: a reservation that
// does not fit waits for a release and then succeeds, in arrival order.
func TestMemBudgetFIFOWait(t *testing.T) {
	budget := NewMemBudget(10, 5*time.Second)
	if err := budget.Reserve(8); err != nil {
		t.Fatalf("first reserve: %v", err)
	}
	got := make(chan int, 2)
	start := make(chan struct{})
	go func() {
		<-start
		if err := budget.Reserve(6); err != nil {
			t.Errorf("queued reserve(6): %v", err)
		}
		got <- 6
	}()
	close(start)
	for budget.Queued() == 0 {
		time.Sleep(time.Millisecond)
	}
	go func() {
		if err := budget.Reserve(5); err != nil {
			t.Errorf("queued reserve(5): %v", err)
		}
		got <- 5
	}()
	time.Sleep(5 * time.Millisecond)
	// cur is 8 with 6 then 5 queued: releasing 8 grants only the head (6;
	// 6+5 would overshoot), so completion order pins FIFO.
	budget.Release(8)
	if first := <-got; first != 6 {
		t.Fatalf("grant order: got %d first, want 6 (FIFO)", first)
	}
	budget.Release(6)
	if second := <-got; second != 5 {
		t.Fatalf("grant order: got %d second, want 5", second)
	}
	budget.Release(5)
	if budget.Reserved() != 0 {
		t.Fatalf("reserved = %d, want 0", budget.Reserved())
	}
}
