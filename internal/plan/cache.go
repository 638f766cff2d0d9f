package plan

import (
	"sync"

	"bdcc/internal/core"
	"bdcc/internal/engine"
)

// Plan caching. Logical plan trees cannot be shared across executions —
// expression Bind mutates nodes in place, so every execution builds fresh
// trees — but everything the BDCC planner *decides* about a tree is a pure
// function of (query shape, catalog, data): the preanalysis maps (which
// scans scatter, which joins sandwich, which uses pair), and the key sets
// its pre-executed build subtrees propagate into count-table restrictions.
// Those decisions are what a Memo captures, keyed off node *positions*
// (deterministic pre-order sites) instead of node pointers, so they replay
// onto the structurally identical fresh tree of a later execution — which
// then skips preanalysis and, above all, skips re-running pre-execution
// subqueries at plan time.
//
// The Cache is the daemon-side container: one completed Memo per
// (query, schema, knobs) key, with a per-entry record lock so exactly one
// of several concurrent first arrivals records while the rest wait and then
// replay. Replays share the Memo read-only (recorded bin sets and
// materialized results are never mutated after construction) and run fully
// concurrently.

// Memo is the replayable planning record of one (query, schema, knobs)
// combination. A zero Memo records; a completed one replays. Memos are
// immutable once completed and safe for concurrent replay.
type Memo struct {
	scanChoice map[int]*useChoice
	alignment  map[int]*sharedPair
	joinPairs  map[int][]sharedPair
	preExec    map[int]*preExecMemo
	complete   bool
}

// preExecMemo is the recorded outcome of one join's key-set propagation:
// the raw bin sets it derived per dimension use (merged into the probe
// side's transferred restrictions on replay exactly as on record), and the
// materialized build result when the original run replaced the build
// operator with its rows (nil when the build operator was kept). Both are
// immutable after recording: bin sets are never mutated after construction
// (restrict.go's sharing contract) and each replay wraps res in its own
// read-only engine.Values.
type preExecMemo struct {
	raw map[string]core.BinSet
	res *engine.Result
}

// NewMemo returns an empty memo ready to record one planning run.
func NewMemo() *Memo {
	return &Memo{
		scanChoice: make(map[int]*useChoice),
		alignment:  make(map[int]*sharedPair),
		joinPairs:  make(map[int][]sharedPair),
		preExec:    make(map[int]*preExecMemo),
	}
}

// Complete marks the memo recorded; from now on planners replay it.
func (m *Memo) Complete() { m.complete = true }

// Completed reports whether the memo holds a finished recording.
func (m *Memo) Completed() bool { return m != nil && m.complete }

// siteIndex numbers a logical tree's scans and joins by deterministic
// pre-order position (probe before build under joins), the translation
// layer between one execution's node pointers and the memo's stable sites.
type siteIndex struct {
	scanOf map[*Scan]int
	joinOf map[*Join]int
	scans  []*Scan
	joins  []*Join
}

func indexSites(n Node) *siteIndex {
	ix := &siteIndex{scanOf: make(map[*Scan]int), joinOf: make(map[*Join]int)}
	var walk func(Node)
	walk = func(n Node) {
		switch t := n.(type) {
		case *Scan:
			ix.scanOf[t] = len(ix.scans)
			ix.scans = append(ix.scans, t)
		case *Join:
			ix.joinOf[t] = len(ix.joins)
			ix.joins = append(ix.joins, t)
		}
		for _, c := range n.children() {
			walk(c)
		}
	}
	walk(n)
	return ix
}

// recordAnalysis converts the planner's pointer-keyed preanalysis maps to
// memo sites, after preanalyze has run.
func (p *Planner) recordAnalysis() {
	for s, c := range p.scanChoice {
		if i, ok := p.sites.scanOf[s]; ok {
			p.memo.scanChoice[i] = c
		}
	}
	for j, a := range p.alignment {
		if i, ok := p.sites.joinOf[j]; ok {
			p.memo.alignment[i] = a
		}
	}
	for j, prs := range p.joinPairs {
		if i, ok := p.sites.joinOf[j]; ok {
			p.memo.joinPairs[i] = prs
		}
	}
}

// replayAnalysis rebuilds the pointer-keyed preanalysis maps for this
// execution's fresh tree from the memo, in place of running preanalyze.
func (p *Planner) replayAnalysis() {
	for i, c := range p.memo.scanChoice {
		if i < len(p.sites.scans) {
			p.scanChoice[p.sites.scans[i]] = c
		}
	}
	for i, a := range p.memo.alignment {
		if i < len(p.sites.joins) {
			p.alignment[p.sites.joins[i]] = a
		}
	}
	for i, prs := range p.memo.joinPairs {
		if i < len(p.sites.joins) {
			p.joinPairs[p.sites.joins[i]] = prs
		}
	}
}

// CacheKey identifies one cached plan: the query, the physical schema and
// data version it was planned against, and the knobs that shape the plan.
type CacheKey struct {
	// Query names the logical plan (e.g. "Q13"); plans are assumed
	// structurally identical across builds of the same name.
	Query string
	// Schema identifies the physical database: scheme and data identity
	// (e.g. "BDCC/sf0.05"). Plans do not survive schema changes.
	Schema string
	// Epoch is the data version (DB.Epoch): plans bake table references
	// and zonemap decisions, so a memo never replays over another.
	Epoch int64
	// Knobs fingerprints the plan-shaping execution knobs (workers, shards,
	// remotes, partition) — a sharded plan differs from a single-box one.
	Knobs string
}

// Cache holds completed memos by key. One cache serves many concurrent
// queries: hits replay concurrently, misses serialize per key behind the
// entry's record lock so pre-execution subqueries run once, not once per
// concurrent first arrival. Only the newest epoch of a (query, schema,
// knobs) is kept, so a superseded memo and its materialized results go once
// no query holds them; an arrival at an older epoch plans uncached.
type Cache struct {
	mu      sync.Mutex
	entries map[CacheKey]*cacheEntry
	hits    int64
	misses  int64
}

type cacheEntry struct {
	epoch int64
	mu    sync.Mutex
	memo  *Memo
	sub   any
}

// NewCache returns an empty plan cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[CacheKey]*cacheEntry)}
}

// Lease is the result of Cache.Acquire: either a hit (Memo non-nil, ready
// to replay, nothing held) or a recording miss (Memo nil, the entry's
// record lock held until Complete or Abandon).
type Lease struct {
	entry *cacheEntry
	// Memo is the completed memo on a hit, nil on a recording miss.
	Memo *Memo
	// Sub is the front end's opaque attachment recorded with the memo (the
	// tpch layer stores its subquery replay state here); nil on a miss.
	Sub any
}

// Acquire resolves key to a lease. Concurrent first arrivals of one key
// serialize: one records while the others block in Acquire and then hit.
func (c *Cache) Acquire(key CacheKey) *Lease {
	epoch := key.Epoch
	key.Epoch = 0 // entries are per (query, schema, knobs)
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok || e.epoch < epoch {
		e = &cacheEntry{epoch: epoch}
		c.entries[key] = e
	}
	if e.epoch > epoch {
		c.misses++
		c.mu.Unlock()
		return &Lease{}
	}
	c.mu.Unlock()
	e.mu.Lock()
	if e.memo.Completed() {
		memo, sub := e.memo, e.sub
		e.mu.Unlock()
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		return &Lease{Memo: memo, Sub: sub}
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return &Lease{entry: e}
}

// Hit reports whether the lease replays a completed memo.
func (l *Lease) Hit() bool { return l.Memo != nil }

// Complete publishes the recorded memo (marking it complete) with an
// optional front-end attachment and releases the record lock. Miss leases
// only.
func (l *Lease) Complete(m *Memo, sub any) {
	if l.entry == nil {
		return
	}
	m.Complete()
	l.entry.memo = m
	l.entry.sub = sub
	l.entry.mu.Unlock()
	l.entry = nil
}

// Abandon releases the record lock without publishing (a failed recording
// run); the next arrival records afresh. No-op on hits.
func (l *Lease) Abandon() {
	if l.entry == nil {
		return
	}
	l.entry.mu.Unlock()
	l.entry = nil
}

// Len returns the number of entries the cache holds.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns the cache's hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
