// Package iosim models the storage device of the paper's evaluation setup:
// a RAID0 of flash SSDs with ~1 GB/s sequential bandwidth, a 32 KB page size
// and an efficient random access size AR of 32 KB (Section III of the paper;
// "Flashing Databases", DaMoN 2010).
//
// Multi-dimensional clustering schemes trade sequential scans for scattered
// reads; the paper's central storage argument is that the access pattern must
// on average consist of runs of at least AR bytes for random access to reach
// ~80% of sequential throughput. The device model charges exactly that cost:
// each maximal run of consecutively accessed pages pays one run-setup latency
// plus its bytes at sequential bandwidth, so a run of AR bytes lands at the
// calibrated random/sequential efficiency.
//
// All reproduction "cold time" and device numbers (mb_read and the iosim.*
// metrics in bench/README.md) are produced by this model; wall-clock CPU time
// is reported separately by the harness.
package iosim

import (
	"fmt"
	"sync"
	"time"
)

// Device describes a storage device for the cost model.
type Device struct {
	// Name labels the device in reports.
	Name string
	// PageSize is the I/O unit in bytes (the paper uses 32 KB pages).
	PageSize int64
	// SeqBandwidth is sustained sequential read bandwidth in bytes/second.
	SeqBandwidth float64
	// AR is the efficient random access size in bytes: the run length at
	// which random reads reach RandEfficiency of sequential throughput.
	AR int64
	// RandEfficiency is the throughput fraction achieved by runs of exactly
	// AR bytes (the paper's "e.g. such that throughput is 80% of sequential").
	RandEfficiency float64
}

// PaperSSD returns the device of the paper's evaluation: 4× Intel X25-M
// RAID0, 1 GB/s sequential, 32 KB pages, AR = 32 KB at 80% efficiency.
func PaperSSD() Device {
	return Device{
		Name:           "4xX25M-RAID0",
		PageSize:       32 << 10,
		SeqBandwidth:   1 << 30,
		AR:             32 << 10,
		RandEfficiency: 0.80,
	}
}

// RunLatency returns the fixed cost charged per maximal access run, derived
// from AR and RandEfficiency: a run of AR bytes must take AR/(e*BW) seconds
// total, of which AR/BW is transfer, leaving AR*(1-e)/(e*BW) as setup.
func (d Device) RunLatency() time.Duration {
	transfer := float64(d.AR) / d.SeqBandwidth
	total := transfer / d.RandEfficiency
	return time.Duration((total - transfer) * float64(time.Second))
}

// ReadTime returns the modeled time to read `runs` maximal runs totalling
// `bytes` bytes.
func (d Device) ReadTime(runs int64, bytes int64) time.Duration {
	transfer := time.Duration(float64(bytes) / d.SeqBandwidth * float64(time.Second))
	return transfer + time.Duration(runs)*d.RunLatency()
}

// Accountant accumulates the I/O activity of one query execution. It is safe
// for concurrent use by parallel operators.
//
// Reads are charged in one of two forms. AddRun records a synchronous read:
// its modeled time adds fully to the cold execution time. Submit/Wait record
// an asynchronous read batch — a grouped scan posting the next group's
// scattered read while workers crunch the current group — and open an
// overlap window: the window's device time is hidden up to the compute time
// that elapsed before Wait, so each window contributes max(io, cpu) to the
// cold time instead of io + cpu (see Stats.ColdTime).
type Accountant struct {
	mu       sync.Mutex
	device   Device
	runs     int64
	pages    int64
	bytes    int64
	async    []asyncRead
	hidden   time.Duration
	frontier time.Time // wall time already credited as hiding compute
	saved    int64
}

// asyncRead is one submitted-but-possibly-unfinished overlap window.
type asyncRead struct {
	io    time.Duration // modeled device time of the submitted runs
	start time.Time     // wall time of submission
	done  bool
}

// NewAccountant returns an accountant charging costs against dev.
func NewAccountant(dev Device) *Accountant {
	return &Accountant{device: dev}
}

// Device returns the device the accountant charges against.
func (a *Accountant) Device() Device { return a.device }

// AddRun records one maximal run of pages consecutive pages totalling bytes
// bytes.
func (a *Accountant) AddRun(pages, bytes int64) {
	a.mu.Lock()
	a.runs++
	a.pages += pages
	a.bytes += bytes
	a.mu.Unlock()
}

// AddRuns records `runs` maximal runs covering `pages` pages totalling
// `bytes` bytes in one call — the aggregated form worker-reported scan
// stats arrive in (a partitioned scan's done frames carry per-unit totals,
// not individual runs).
func (a *Accountant) AddRuns(runs, pages, bytes int64) {
	a.mu.Lock()
	a.runs += runs
	a.pages += pages
	a.bytes += bytes
	a.mu.Unlock()
}

// AddSaved records n bytes that compression removed from charged traffic:
// the difference between the raw form and what was actually charged. It is
// bookkeeping only — the charged (encoded) bytes already reflect the saving,
// so Saved never enters the modeled time.
func (a *Accountant) AddSaved(n int64) {
	a.mu.Lock()
	a.saved += n
	a.mu.Unlock()
}

// Ticket identifies one asynchronously submitted read batch, to be closed
// with Wait.
type Ticket int

// Submit records `runs` maximal runs totalling `bytes` bytes (covering
// `pages` pages) posted as one asynchronous read batch, and opens its
// overlap window. The activity counts toward the same run/page/byte totals
// as AddRun; only the cold-time treatment differs.
func (a *Accountant) Submit(runs, pages, bytes int64) Ticket {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.runs += runs
	a.pages += pages
	a.bytes += bytes
	a.async = append(a.async, asyncRead{io: a.device.ReadTime(runs, bytes), start: time.Now()})
	return Ticket(len(a.async) - 1)
}

// Wait closes the overlap window of a submitted read: the compute time that
// elapsed since Submit hides the window's device time, up to the full
// modeled read time. A given stretch of wall time is credited at most once —
// concurrently open windows (a parallel scan bursting several group reads at
// once) share the compute they overlap instead of each hiding it in full, so
// total hidden time never exceeds the wall time spanned by the windows. Wait
// is idempotent; tickets from before the last Reset are ignored.
func (a *Accountant) Wait(t Ticket) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if t < 0 || int(t) >= len(a.async) {
		return
	}
	r := &a.async[t]
	if r.done {
		return
	}
	r.done = true
	now := time.Now()
	start := r.start
	if a.frontier.After(start) {
		start = a.frontier
	}
	h := min(max(now.Sub(start), 0), r.io)
	a.hidden += h
	if now.After(a.frontier) {
		a.frontier = now
	}
}

// Stats is a snapshot of accumulated I/O activity.
type Stats struct {
	Runs  int64
	Pages int64
	Bytes int64
	// Time is the modeled device time for the recorded activity.
	Time time.Duration
	// Hidden is the portion of Time hidden behind concurrent compute by
	// asynchronously submitted reads (Submit/Wait overlap windows).
	Hidden time.Duration
	// Saved is the byte volume compression removed relative to the raw
	// form (AddSaved); informational, already excluded from Bytes and Time.
	Saved int64
}

// ColdTime returns the modeled cold execution time for a run whose CPU wall
// time was `wall`: synchronous reads add their device time fully, while each
// Submit/Wait overlap window contributes max(io, cpu) instead of io + cpu —
// equivalently, wall + total device time minus the hidden portion.
func (s Stats) ColdTime(wall time.Duration) time.Duration {
	return wall + s.Time - s.Hidden
}

// Stats returns the accumulated activity and its modeled time.
func (a *Accountant) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{
		Runs:   a.runs,
		Pages:  a.pages,
		Bytes:  a.bytes,
		Time:   a.device.ReadTime(a.runs, a.bytes),
		Hidden: a.hidden,
		Saved:  a.saved,
	}
}

// Reset clears accumulated activity, forgetting open overlap windows.
func (a *Accountant) Reset() {
	a.mu.Lock()
	a.runs, a.pages, a.bytes = 0, 0, 0
	a.async = nil
	a.hidden = 0
	a.frontier = time.Time{}
	a.saved = 0
	a.mu.Unlock()
}

// String implements fmt.Stringer for debug logging.
func (s Stats) String() string {
	return fmt.Sprintf("runs=%d pages=%d bytes=%d time=%v hidden=%v", s.Runs, s.Pages, s.Bytes, s.Time, s.Hidden)
}
