package engine

import (
	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// This file is the engine's side of the scale-out seam: BDCC dimension
// groups are self-contained work units (a group's build and probe batches
// never match rows of another group, and a scatter group's row ranges never
// interleave with another group's), so group streams can be sharded across
// executors with no cross-shard coordination. Two unit shapes cross the
// seam: sandwich-join units carry a group's batches to whichever backend the
// route picks, and scan units carry only row ranges to the worker that
// owns the matching table partition (see internal/shard's Partitioning).
// The Backend interface is what a non-local executor implements;
// internal/shard provides the implementations (an in-process simulated
// remote and a real TCP backend talking to a bdccworker daemon) and the
// route that assigns groups to backends. The
// engine itself never decides placement — operators hand aligned groups to
// whichever backend the planner-injected route names, keeping placement in
// the scheduler/backend layer (the morsel paper's locality argument).

// GroupUnit is one group work unit, in one of two shapes. A join unit (the
// original form) carries the aligned, cloned probe and build batch sets of
// a single sandwich group; batches inside it keep their raw group tags, and
// a unit never shares memory with the producing operator's reuse cycle (the
// feeder clones before building a unit). A scan unit instead sets
// ScanRanges — the coordinator row ranges of one partitioned scatter-scan
// run — and carries no batches at all: the data already lives on the
// executing worker, which is the point of the partitioned scan path.
type GroupUnit struct {
	// GID is the aligned (shifted) group identifier the unit was routed by.
	GID uint64
	// Probe and Build are the group's probe-side and build-side batches, in
	// stream order. Build may be empty (a probe group with no build rows).
	Probe []*vector.Batch
	Build []*vector.Batch
	// ScanRanges, when non-nil, marks a scan unit: the row ranges (in
	// coordinator row space) of one run of a partitioned scatter scan. The
	// executing site maps them into its local row space via the fragment's
	// ScanSource.
	ScanRanges storage.RowRanges
}

// Bytes returns the footprint of the unit's batch data (the measure charged
// while a unit is in flight, and the routed load recorded per backend).
func (u *GroupUnit) Bytes() int64 {
	var n int64
	for _, b := range u.Probe {
		n += b.Bytes()
	}
	for _, b := range u.Build {
		n += b.Bytes()
	}
	return n
}

// Backend executes group work units on behalf of one query. It is the seam
// where remote executors plug in: the engine ships a plan Fragment once and
// self-contained units per group, and merges the returned batches
// order-preservingly, so results are byte-identical no matter where a group
// ran. For partitioned scans the lifecycle gains one earlier step: the
// planner ships each table partition (manifest + data segments) to its
// owning worker before any fragment or unit references it, and scan units
// then cross the wire as bare row ranges.
//
// RunGroup returns without waiting for the unit to execute. frag is the
// operator's plan fragment — the same pointer for every unit of one
// operator, which is what lets a remote backend ship its serialized form
// once at setup and refer to it by id afterwards. The backend invokes emit
// sequentially (per unit) for each result batch and then done(err) exactly
// once; both may be called from backend-owned goroutines. Batches passed to
// emit must not share memory with u — a remote backend's results cross its
// transport.
// Concurrent RunGroup calls are allowed; units are independent.
//
// Join units may run on any backend; scan units are placement-pinned — only
// the worker holding the unit's partition (or a site holding the full
// table, such as the coordinator's fallback) can execute them, so the
// failover layer re-scans a down worker's units locally instead of
// re-routing them to a peer.
//
// Close shuts the backend down and joins its goroutines. Callers must not
// Close while units are in flight (the exchange joins every unit's done
// callback first). See internal/shard's package comment for the full
// lifecycle contract (dial → partitions → setup → units → done/close) a
// third-party backend implements against.
type Backend interface {
	// Workers reports the backend's executor parallelism; the in-flight
	// lookahead window of a sharded group pipeline is sized by the backend
	// set's total.
	Workers() int
	RunGroup(u *GroupUnit, frag *Fragment, emit func(*vector.Batch), done func(error))
	Close() error
}

// BackendLoad is the routed load of one backend of a query's set: how many
// group units the route placed on it and their total batch bytes. The shard
// set records one entry per backend (Context.ShardLoads).
type BackendLoad struct {
	Units int64
	Bytes int64
}

// BackendHealth is the failover-health snapshot of one backend of a query's
// set, recorded by the shard failover layer (Context.HealthStats): how many unit
// attempts failed on it, how often it was marked down, how often the health
// prober re-admitted it mid-query, and how many units its re-admitted
// incarnations served. State is the prober's view of the slot: "up",
// "probing" (down, reconnects under way), or "down" (not reconnectable).
type BackendHealth struct {
	State        string
	Retries      int64
	Downs        int64
	Readmits     int64
	ReadmitUnits int64
}
