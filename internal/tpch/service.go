package tpch

import (
	"fmt"
	"strings"

	"bdcc/internal/engine"
	"bdcc/internal/plan"
)

// Service is the query front end the bdccd daemon mounts behind the serve
// layer's admission gate: query-name lookup over the 22 TPC-H builders, one
// shared catalog (the benchmark's materialized schemes), and one plan cache
// so repeated queries replay recorded planning — preanalysis, pre-executed
// build subtrees, scalar subqueries, one-shot views — instead of redoing
// it. Handle matches serve.Handler; serve prepares the context (scheduler
// pool, memory-budget lease, shared backends) before calling it.
type Service struct {
	bench  *Benchmark
	cache  *plan.Cache
	byName map[string]QueryDef
}

// NewService wraps a materialized benchmark as a daemon query service.
func NewService(b *Benchmark) *Service {
	s := &Service{bench: b, cache: plan.NewCache(), byName: make(map[string]QueryDef)}
	for _, q := range Queries {
		s.byName[strings.ToUpper(q.Name)] = q
		// Accept the bare number too ("7" as well as "Q07").
		s.byName[fmt.Sprintf("%d", q.Num)] = q
	}
	return s
}

// CacheStats exposes the plan cache's hit and miss counts.
func (s *Service) CacheStats() (hits, misses int64) { return s.cache.Stats() }

// schemeDB resolves a wire scheme name to a materialized database.
func (s *Service) schemeDB(name string) (*plan.DB, error) {
	for sch, db := range s.bench.DBs {
		if strings.EqualFold(sch.String(), name) {
			return db, nil
		}
	}
	return nil, fmt.Errorf("tpch: scheme %q not materialized", name)
}

// knobs fingerprints the plan-shaping execution knobs for the cache key.
// Partition shapes the plan (a partitioned scatter scan lowers to shipped
// scan units), so it is part of the fingerprint.
func knobs(ctx *engine.Context) string {
	part := ""
	if ctx.Partition {
		part = "/p"
	}
	return fmt.Sprintf("w%d/s%d/r%d%s", ctx.Workers, ctx.Shards, len(ctx.Remotes), part)
}

// Handle runs one named query under one scheme on the prepared context. The
// first arrival of a (query, scheme, knobs) key records a plan memo and the
// subquery memo while holding the cache entry's lock (concurrent first
// arrivals wait, then replay); every later arrival replays both — planning
// decisions and subquery results — and only executes the main plan. Results
// are byte-identical either way: replay reuses decisions and materialized
// subquery results, never the main plan's operators or output.
func (s *Service) Handle(ctx *engine.Context, scheme, query string) (*engine.Result, error) {
	db, err := s.schemeDB(scheme)
	if err != nil {
		return nil, err
	}
	q, ok := s.byName[strings.ToUpper(query)]
	if !ok {
		return nil, fmt.Errorf("tpch: unknown query %q", query)
	}
	// Pin the ingest snapshot before planning; its epoch is part of the key.
	db = db.Snapshot()
	key := plan.CacheKey{
		Query:  q.Name,
		Schema: fmt.Sprintf("%s/sf%g", db.Scheme, s.bench.SF),
		Epoch:  db.Epoch(),
		Knobs:  knobs(ctx),
	}
	lease := s.cache.Acquire(key)
	env := &Env{DB: db, Ctx: ctx}
	var memo *plan.Memo
	if lease.Hit() {
		memo = lease.Memo
		env.replay, _ = lease.Sub.(*subMemo)
	} else {
		memo = plan.NewMemo()
		env.rec = &subMemo{}
	}
	node, err := q.Build(env)
	if err != nil {
		lease.Abandon()
		return nil, fmt.Errorf("tpch: %s build: %w", q.Name, err)
	}
	p := plan.NewPlanner(db, ctx)
	p.UseMemo(memo)
	res, err := p.Run(node)
	if err != nil {
		lease.Abandon()
		return nil, fmt.Errorf("tpch: %s (%s): %w", q.Name, db.Scheme, err)
	}
	lease.Complete(memo, env.rec) // no-op on a hit
	return res, nil
}
