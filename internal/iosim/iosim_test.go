package iosim

import (
	"sync"
	"testing"
	"time"
)

func TestRunLatencyCalibration(t *testing.T) {
	d := PaperSSD()
	// By construction, a run of exactly AR bytes must achieve
	// RandEfficiency of sequential throughput.
	total := d.ReadTime(1, d.AR)
	seq := time.Duration(float64(d.AR) / d.SeqBandwidth * float64(time.Second))
	eff := float64(seq) / float64(total)
	if eff < d.RandEfficiency-0.01 || eff > d.RandEfficiency+0.01 {
		t.Errorf("AR-sized run efficiency = %.3f, want %.2f", eff, d.RandEfficiency)
	}
}

func TestSequentialBeatsScattered(t *testing.T) {
	d := PaperSSD()
	bytes := int64(100 << 20)
	seq := d.ReadTime(1, bytes)
	scattered := d.ReadTime(1000, bytes)
	if scattered <= seq {
		t.Errorf("scattered (%v) should cost more than sequential (%v)", scattered, seq)
	}
}

func TestAccountant(t *testing.T) {
	a := NewAccountant(PaperSSD())
	a.AddRun(2, 64<<10)
	a.AddRun(1, 32<<10)
	st := a.Stats()
	if st.Runs != 2 || st.Pages != 3 || st.Bytes != 96<<10 {
		t.Errorf("stats = %+v", st)
	}
	if st.Time != PaperSSD().ReadTime(2, 96<<10) {
		t.Errorf("modeled time mismatch")
	}
	a.Reset()
	if st := a.Stats(); st.Runs != 0 || st.Bytes != 0 {
		t.Errorf("reset failed: %+v", st)
	}
}

func TestAccountantConcurrent(t *testing.T) {
	a := NewAccountant(PaperSSD())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				a.AddRun(1, 1024)
			}
		}()
	}
	wg.Wait()
	if st := a.Stats(); st.Runs != 8000 || st.Bytes != 8000*1024 {
		t.Errorf("concurrent accounting lost updates: %+v", st)
	}
}

// TestSubmitWaitOverlap checks the asynchronous-read model: submitted reads
// count toward the same activity totals as synchronous runs, and the
// overlap window hides device time up to the compute time that elapsed
// before Wait — max(io, cpu) per window instead of io + cpu.
func TestSubmitWaitOverlap(t *testing.T) {
	a := NewAccountant(PaperSSD())
	tk := a.Submit(2, 3, 96<<10)
	// Simulate compute overlapping the read.
	time.Sleep(2 * time.Millisecond)
	a.Wait(tk)
	st := a.Stats()
	if st.Runs != 2 || st.Pages != 3 || st.Bytes != 96<<10 {
		t.Errorf("submitted activity not counted: %+v", st)
	}
	if st.Hidden <= 0 {
		t.Errorf("no device time hidden despite elapsed compute: %+v", st)
	}
	if st.Hidden > st.Time {
		t.Errorf("hidden %v exceeds total device time %v", st.Hidden, st.Time)
	}
	// Cold time is wall + io - hidden: strictly less than the serial sum
	// when anything was hidden, never below the wall time.
	wall := 5 * time.Millisecond
	cold := st.ColdTime(wall)
	if cold >= wall+st.Time {
		t.Errorf("cold %v does not reflect overlap (serial sum %v)", cold, wall+st.Time)
	}
	if cold < wall {
		t.Errorf("cold %v below wall %v", cold, wall)
	}
}

// TestWaitIdempotentAndBounded checks double-Wait charges once, instant
// Wait hides (almost) nothing relative to the modeled read, and Reset
// forgets open windows.
func TestWaitIdempotentAndBounded(t *testing.T) {
	a := NewAccountant(PaperSSD())
	tk := a.Submit(1, 1, 32<<10)
	time.Sleep(time.Millisecond)
	a.Wait(tk)
	h := a.Stats().Hidden
	a.Wait(tk)
	if got := a.Stats().Hidden; got != h {
		t.Errorf("second Wait changed hidden: %v -> %v", h, got)
	}
	// A long-overlapped window is capped at the modeled read time.
	slow := NewAccountant(PaperSSD())
	tk = slow.Submit(1, 1, 1024) // tiny read, long overlap
	time.Sleep(2 * time.Millisecond)
	slow.Wait(tk)
	if st := slow.Stats(); st.Hidden > st.Time {
		t.Errorf("hidden %v exceeds modeled time %v", st.Hidden, st.Time)
	}
	a.Reset()
	if st := a.Stats(); st.Hidden != 0 || st.Runs != 0 {
		t.Errorf("reset kept overlap state: %+v", st)
	}
	a.Wait(tk) // stale ticket after Reset must be ignored
	if st := a.Stats(); st.Hidden != 0 {
		t.Errorf("stale ticket hid time: %+v", st)
	}
}

// TestSerialStatsUnchangedByOverlapModel pins the paper's measurement
// setup: an accountant used only synchronously reports zero hidden time, so
// ColdTime degenerates to the serial wall + io sum.
func TestSerialStatsUnchangedByOverlapModel(t *testing.T) {
	a := NewAccountant(PaperSSD())
	a.AddRun(4, 128<<10)
	st := a.Stats()
	if st.Hidden != 0 {
		t.Fatalf("synchronous runs hid %v", st.Hidden)
	}
	wall := time.Second
	if st.ColdTime(wall) != wall+st.Time {
		t.Fatalf("serial cold time %v, want %v", st.ColdTime(wall), wall+st.Time)
	}
}

// TestConcurrentWindowsShareCompute pins the no-double-count property: when
// several overlap windows are open over the same stretch of wall time (a
// parallel scan bursting group reads), that stretch hides device time at
// most once — total hidden never exceeds the wall span of the windows.
func TestConcurrentWindowsShareCompute(t *testing.T) {
	a := NewAccountant(PaperSSD())
	start := time.Now()
	// Open many windows at (nearly) the same instant, each with a large
	// modeled read, then close them after one shared compute interval.
	var tks []Ticket
	for i := 0; i < 8; i++ {
		tks = append(tks, a.Submit(4, 128, 4<<20)) // ~4ms modeled each
	}
	time.Sleep(2 * time.Millisecond)
	for _, tk := range tks {
		a.Wait(tk)
	}
	span := time.Since(start)
	st := a.Stats()
	if st.Hidden > span {
		t.Fatalf("hidden %v exceeds the %v wall span of the windows — overlapping windows double-counted compute", st.Hidden, span)
	}
	if st.Hidden == 0 {
		t.Fatal("nothing hidden despite compute under open windows")
	}
	if cold := st.ColdTime(span); cold < st.Time {
		t.Fatalf("cold %v below device time %v despite I/O-bound windows", cold, st.Time)
	}
}
