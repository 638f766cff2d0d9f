// Package shard scales the engine's BDCC group streams past one box. The
// paper's organization makes dimension groups the natural unit of
// distribution: a group's build and probe batches are self-contained (rows
// never match across groups, and a scatter group's row ranges never
// interleave with another group's), so group work units ship to other
// executors with no cross-shard coordination. Two unit shapes cross the
// seam: sandwich-join units carry a group's batches to whichever backend
// the router picks, and scan units carry only row ranges to the worker
// that owns the matching table partition — the shared-nothing path, where
// base-table data lives worker-local and only results come back. This
// package provides the pieces behind the engine's Backend seam:
//
//   - Set.Route: group placement by a deterministic hash of the group id,
//     with per-backend routed loads recorded (placement stays in the
//     scheduler/backend layer, not in operators).
//   - Partitioning (partition.go): the deterministic assignment of a BDCC
//     table's z-order cells to workers, the coordinator→local range
//     mapping, and the group splitter — the partitioning layer specified
//     in docs/PARTITIONING.md. Set.PartitionTable builds it and has each
//     worker bind its partition (partstore.go holds the wire form, both ends
//     of the transfer and the worker's store of resident partitions).
//   - the wire codecs (codec.go): plan fragments and group units cross a
//     transport as bytes, never as shared memory.
//   - the frame protocol (net.go): the client half (engine.Backend over one
//     internal/wire session) and the worker half (Server, the core of
//     cmd/bdccworker) — the frame handlers of each side, specified in
//     docs/WIRE.md.
//   - Sim: the protocol client and worker server over an in-process
//     net.Pipe — the real wire protocol with only the network modeled;
//     NewSet's sims are sessions on a process-lifetime fleet of servers.
//   - Dial / DialSet: the same client over real TCP connections to
//     bdccworker daemons (docs/OPERATIONS.md covers deployment).
//   - the health prober (health.go): down backends with dialable addresses
//     are re-dialed under bounded jittered backoff, liveness-checked with a
//     ping/pong round-trip, and re-admitted to the routing set mid-query;
//     when every remote is down, units degrade to the coordinator's local
//     copy of the fragment instead of failing the query.
//
// # The Backend lifecycle contract
//
// A third-party backend implements engine.Backend against this contract;
// the transport backends of this package follow it over their framed
// streams (dial → partitions → setup → units → done/close):
//
//   - Connect/handshake: a session begins with the client's hello (magic +
//     protocol version) and the worker's hello reply (version + worker
//     parallelism). Versions must match exactly; Workers() reports the
//     replied parallelism so the engine can size its in-flight lookahead.
//   - Partitions: before any scan fragment references a table, the client
//     has the worker bind its partition of it. It offers the partition's
//     content digest and manifest (segments, schema, total rows); a worker
//     that holds a partition of that digest — shipped by any earlier session
//     — answers that it is resident, and otherwise the client sends the
//     column frames of the worker's local table, serialised once per table
//     version and adopted by the worker as they are, digest-checked and
//     published the moment the last column completes. A worker keeps its
//     partitions across sessions: a session pins what it binds, and an
//     unpinned partition is freed once a newer one of its table is resident
//     (or to make room under the worker's limit). Offers are deduplicated
//     per session by digest; join-only queries skip this step entirely.
//   - Setup: the first unit of each operator is preceded by the operator's
//     serialized plan fragment (one frameSetup per fragment, identified by
//     a client-assigned id). The worker Prepares the decoded fragment once
//     and executes every later unit of that id against it — scan fragments
//     resolve against the session's shipped partitions at Prepare. A
//     fragment that fails to decode or Prepare poisons only its own units
//     (each fails with the preparation error as a work error), never the
//     session.
//   - Units: RunGroup is asynchronous and concurrent; each unit is
//     independent. The backend invokes emit sequentially per unit with
//     result batches that share no memory with the shipped unit, then
//     done(err) exactly once. A scan unit's done additionally reports the
//     unit's modeled local read stats (the worker's device traffic, the
//     per-worker numbers the partitioned benchmarks gate on). Work errors
//     cross the wire as text — error identity does not survive — and are
//     deterministic: the engine does not retry them.
//   - Failure and reroute: transport-level failures (connection loss, a
//     killed worker, refused dials, protocol corruption) fail every pending
//     and later unit with an error wrapping ErrBackendDown. That wrapper is
//     the reroute signal: the failover layer retries exactly such units on
//     surviving backends, excluding every backend that already failed the
//     unit; because unit output is deterministic and emitted sequentially,
//     the retry replays the same batch sequence and skips the prefix a
//     half-emitted failed attempt already delivered. Scan units are
//     placement-pinned — peers do not hold their partition — so they skip
//     the survivor chain and go straight to local fallback.
//   - Recovery: a down backend with a dialable address is probed (bounded
//     jittered backoff, ping-verified sessions) and re-admitted mid-query
//     with the slot's table partitions and the session's fragments
//     re-shipped first; its exclusion records reset, so later units —
//     including pinned scan units — land on it again. With no remote
//     surviving, units run on the coordinator's local fragment copy
//     (graceful degradation; for scans, against the coordinator's full
//     table at identical batch boundaries).
//   - Close: callers Close only after every done callback returned (the
//     engine's exchange guarantees this). Close tears the transport down
//     and joins all backend-owned goroutines; a closed backend completes
//     any contract-violating straggler unit with an error rather than
//     hanging.
//
// One backend Set is installed per query (by the planner, when the Shards
// knob exceeds one or worker addresses are configured), and its sessions
// end with the query — the workers they reach do not: dialed bdccworker
// daemons, or the process-lifetime simulated fleet NewSet opens its sessions
// on, keep their resident partitions for the next query. Query results are
// byte-identical across shard counts, placements, transports,
// partitioned and shipped-data scans, and mid-query worker failures,
// because the engine's exchange merges returned batches in group order
// regardless of where — and after how many attempts — a group ran.
package shard

import (
	"fmt"
	"sync"

	"bdcc/internal/core"
	"bdcc/internal/engine"
	"bdcc/internal/iosim"
	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// PaperNet returns the modeled interconnect of the simulated remote
// backends: a 10 GbE-class link (1.25 GB/s) whose per-message overhead is
// derived the same way iosim derives run setup — a 256 KB transfer reaches
// 80% of line rate, putting message overhead at ~52 µs. Stats.Runs counts
// messages and Stats.Time is the modeled network time.
// Real TCP backends are charged to the same model: their message and byte
// counts are real, while the modeled time stands beside the wall clock that
// already contains the real cost.
func PaperNet() iosim.Device {
	return iosim.Device{
		Name:           "10GbE",
		PageSize:       64 << 10,
		SeqBandwidth:   1.25e9,
		AR:             256 << 10,
		RandEfficiency: 0.80,
	}
}

// Set is the per-query backend group: n backends (simulated remotes or
// dialed TCP workers) behind the failover wrapper, one shared network
// accountant, and the placement of groups on them (Route), which records
// each backend's routed load (units, bytes).
type Set struct {
	backends []engine.Backend
	f        *failover
	net      *iosim.Accountant

	mu        sync.Mutex
	loads     []engine.BackendLoad
	parts     map[string]*Partitioning
	scanAccts []*iosim.Accountant
}

// SetConfig tunes a set's recovery behavior.
type SetConfig struct {
	// Probe tunes the health prober's reconnect backoff and deadlines; the
	// zero value selects the defaults (see ProbeConfig).
	Probe ProbeConfig
	// AuthToken is the shared secret presented in every hello — the initial
	// dials and the prober's re-dials alike. It must match the workers'
	// -auth-token or sessions are dropped before the hello reply.
	AuthToken string
}

// NewSet returns a backend set of n simulated remotes, each a session on one
// of n process-lifetime in-process workers with a scheduler of `workers`
// goroutines (the fleet for (n, workers), shared by every such set, as
// bdccworker daemons are by the sets that dial them), all charging
// transport activity to one accountant over dev. Simulated remotes have no
// dialable address, so there is no re-admission; local fallback still
// applies when the whole set dies.
func NewSet(n, workers int, dev iosim.Device) *Set {
	workers = max(workers, 1)
	s := newSet(n, iosim.NewAccountant(dev))
	slots := make([]*slot, n)
	for i, srv := range fleet(n, workers) {
		b := dialSim(srv, s.net)
		slots[i] = &slot{backend: b, workers: b.Workers()}
	}
	s.backends, s.f = newFailover(slots, failoverOptions{acct: s.net})
	return s
}

// DialSet returns a backend set of one TCP backend per bdccworker address
// with the default recovery configuration; see DialSetConfig.
func DialSet(addrs []string, dev iosim.Device) (*Set, error) {
	return DialSetConfig(addrs, dev, SetConfig{})
}

// DialSetConfig returns a backend set of one TCP backend per bdccworker
// address, behind the failover wrapper, charging message traffic to one
// accountant over dev. A worker that is down at dial time no longer fails
// the query: its slot joins the set down and the health prober re-dials it
// under bounded jittered backoff, re-admitting it once it answers — the
// same path a worker lost mid-query recovers through. Only an empty
// address list is an error.
func DialSetConfig(addrs []string, dev iosim.Device, cfg SetConfig) (*Set, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("shard: DialSet with no addresses")
	}
	s := newSet(len(addrs), iosim.NewAccountant(dev))
	slots := make([]*slot, len(addrs))
	for i, addr := range addrs {
		b, err := DialToken(addr, cfg.AuthToken, s.net)
		if err != nil {
			slots[i] = &slot{addr: addr, workers: 1}
			continue
		}
		slots[i] = &slot{backend: b, addr: addr, workers: b.Workers()}
	}
	s.backends, s.f = newFailover(slots, failoverOptions{probe: cfg.Probe, token: cfg.AuthToken, acct: s.net})
	return s, nil
}

func newSet(n int, acct *iosim.Accountant) *Set {
	return &Set{
		net:   acct,
		loads: make([]engine.BackendLoad, n),
		parts: make(map[string]*Partitioning),
	}
}

// PartitionTable partitions the named base table across the set's workers by
// its BDCC count entries and has each worker bind its partition — offered by
// content digest, and sent (the column frames of the worker's local table,
// serialised once per table version by shipmentsOf) only to a worker that
// does not hold it from an earlier session. The
// returned Partitioning is the placement the planner splits scatter groups
// with; it is cached per table name, and shipping failures are deliberately
// absorbed (a broken session fails its units with ErrBackendDown and
// re-admission re-ships). Entries that do not describe tab are a planner bug:
// nothing ships, and the table's scan units fail on the workers as work
// errors.
func (s *Set) PartitionTable(name string, tab *storage.Table, entries []core.CountEntry) *Partitioning {
	s.mu.Lock()
	if p, ok := s.parts[name]; ok {
		s.mu.Unlock()
		return p
	}
	s.mu.Unlock()
	// Built outside the lock — a table version's first shipment is heavy, and
	// Route must not stall behind it. A concurrent caller is resolved below
	// (first registration wins; per-session dedup absorbs any frames the
	// loser already sent).
	p := NewPartitioning(name, entries, len(s.backends))
	ships, err := shipmentsOf(tab, p)
	s.mu.Lock()
	if prev, ok := s.parts[name]; ok {
		s.mu.Unlock()
		return prev
	}
	s.parts[name] = p
	s.mu.Unlock()
	if err == nil {
		s.f.shipPartition(name, ships)
	}
	return p
}

// EnableScanIO equips every worker slot with a scan-read accountant over
// dev: the read stats workers report in scan units' done frames accumulate
// per slot, giving the per-worker device traffic a partitioned run reports
// (tpch.Stats.WorkerIO). First call wins; later calls are
// no-ops.
func (s *Set) EnableScanIO(dev iosim.Device) {
	s.mu.Lock()
	if s.scanAccts != nil {
		s.mu.Unlock()
		return
	}
	s.scanAccts = make([]*iosim.Accountant, len(s.backends))
	hooks := make([]func(runs, pages, bytes int64), len(s.backends))
	for i := range s.scanAccts {
		a := iosim.NewAccountant(dev)
		s.scanAccts[i] = a
		hooks[i] = a.AddRuns
	}
	s.mu.Unlock()
	s.f.setScanIO(hooks)
}

// ScanIO returns the per-worker scan read stats accumulated since
// EnableScanIO, index-aligned with the backends; nil when never enabled.
// Units that failed over to the coordinator's local copy are charged to the
// query's own accountant instead, so these stats are exactly what the
// workers' devices served.
func (s *Set) ScanIO() []iosim.Stats {
	s.mu.Lock()
	accts := s.scanAccts
	s.mu.Unlock()
	if accts == nil {
		return nil
	}
	out := make([]iosim.Stats, len(accts))
	for i, a := range accts {
		out[i] = a.Stats()
	}
	return out
}

// Backends returns the set's backends, one per shard, failover-wrapped and
// index-aligned with Route.
func (s *Set) Backends() []engine.Backend { return s.backends }

// Route is the set's placement function: group id and unit bytes in,
// backend index out, with the routed load recorded per backend. The group id
// is hashed, so neighboring groups spread across backends (the hash
// decorrelates the Z-order prefix) and a range-restricted query still loads
// every shard. Determinism is not needed for correctness — the exchange
// merges in group order no matter the placement — but keeps runs
// reproducible and lets two streams of the same query agree on placement.
func (s *Set) Route(gid uint64, bytes int64) int {
	k := int(vector.Mix64(gid) % uint64(len(s.loads)))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads[k].Units++
	s.loads[k].Bytes += bytes
	return k
}

// Loads returns a snapshot of the per-backend routed load (group-size
// counts): how many units and batch bytes the router placed on each shard.
// After a failover, loads reflect routing, not final execution sites.
func (s *Set) Loads() []engine.BackendLoad {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]engine.BackendLoad, len(s.loads))
	copy(out, s.loads)
	return out
}

// Net returns the shared network accountant.
func (s *Set) Net() *iosim.Accountant { return s.net }

// Health returns a snapshot of the set's per-backend failover health:
// retry/down/readmit counters and the prober state of each slot.
func (s *Set) Health() []engine.BackendHealth { return s.f.Health() }

// LocalFallbackUnits returns how many units ran on the coordinator's local
// fallback because no remote backend survived them.
func (s *Set) LocalFallbackUnits() int64 { return s.f.FallbackUnits() }
