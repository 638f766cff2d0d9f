package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"bdcc/internal/catalog"
	"bdcc/internal/core"
	"bdcc/internal/engine"
	"bdcc/internal/iosim"
	"bdcc/internal/plan"
	"bdcc/internal/serve"
	"bdcc/internal/storage"
	"bdcc/internal/tpch"
)

// system is a workload's program under test once set-up has finished.
type system struct {
	bench *tpch.Benchmark
	db    *plan.DB

	// daemon_closed_loop: the in-process bdccd and its dialed clients.
	svc      *tpch.Service
	srv      *serve.Server
	addr     string
	served   chan error
	clients  []*serve.Client
	tr       *tracer // handler spans of a traced run
	mu       sync.Mutex
	timed    bool
	handled  qstats
	srvStats [2]serve.Stats // at the start and end of the timed section
	cache    [2][2]int64    // plan-cache hits, misses at the same two moments

	// ingest_mixed: the pre-generated arrival stream and how far it has been
	// consumed.
	batches []*tpch.DeltaBatch
	next    int
}

// setup builds the workload's system: generate, compress, materialize, and
// start whatever serves it. An untraced run calls the one constructor users
// call; a traced run performs the same steps one by one so that each can be
// timed from outside, and appends their seconds to phases.
func (w *workload) setup(traced bool, tr *tracer, phases map[string][]float64) (*system, error) {
	s := &system{tr: tr}
	var err error
	if traced {
		s.bench, err = setupPhased(w.sf, w.scheme, phases)
	} else {
		s.bench, err = tpch.NewBenchmarkCompressed(w.sf, true, w.scheme)
	}
	if err != nil {
		return nil, err
	}
	s.db = s.bench.DBs[w.scheme]
	switch w.kind {
	case kindIngest:
		// Limit 0 and threshold 0: merges happen only where a cycle asks
		// for one, so the counts repeat exactly.
		if err := s.bench.EnableIngest(0, 0); err != nil {
			return nil, err
		}
	case kindDaemon:
		if err := s.startDaemon(w); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// setupPhased is tpch.NewBenchmarkCompressed(sf, true, scheme) taken apart.
// TestPhasedSetupMatchesConstructor holds it to the database the constructor
// builds, so that a change to the constructor cannot leave it behind unseen.
func setupPhased(sf float64, scheme plan.Scheme, phases map[string][]float64) (*tpch.Benchmark, error) {
	lap := func(name string, t0 time.Time) {
		phases[name] = append(phases[name], time.Since(t0).Seconds())
	}
	t0 := time.Now()
	schema, err := catalog.ParseDDL(tpch.DDL + tpch.HintDDL)
	if err != nil {
		return nil, err
	}
	lap("parse_ddl", t0)
	t0 = time.Now()
	data := tpch.Generate(sf)
	lap("generate", t0)
	t0 = time.Now()
	var raw int64
	for _, t := range data.Tables {
		t.Compress()
		raw += t.CompressionStats().RawBytes
	}
	lap("compress", t0)
	phases["compress_raw_bytes"] = append(phases["compress_raw_bytes"], float64(raw))
	b := &tpch.Benchmark{SF: sf, Schema: schema, Data: data, DBs: map[plan.Scheme]*plan.DB{}, Compressed: true}
	dev := iosim.PaperSSD()
	t0 = time.Now()
	switch scheme {
	case plan.Plain:
		b.DBs[scheme] = plan.NewPlainDB(schema, data.Tables, dev)
	case plan.BDCC:
		db, err := plan.NewBDCCDB(schema, data.Tables, dev, core.BuildOptions{})
		if err != nil {
			return nil, err
		}
		b.DBs[scheme] = db
		lap("materialize", t0)
	default:
		return nil, fmt.Errorf("bench: no phased set-up for scheme %s", scheme)
	}
	return b, nil
}

// startDaemon serves the benchmark on a loopback port the way cmd/bdccd
// does (two serial pools, ungoverned memory) and dials the clients.
func (s *system) startDaemon(w *workload) error {
	s.svc = tpch.NewService(s.bench)
	dev := iosim.PaperSSD()
	s.srv = serve.NewServer(serve.Config{
		Pools:      2,
		Workers:    w.opt.Workers,
		QueueCap:   8,
		QueueWait:  time.Second,
		NewContext: func() *engine.Context { return w.opt.NewContext(dev) },
		Handler:    s.handle,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = l.Addr().String()
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(l) }()
	for c := 0; c < w.clients; c++ {
		cl, err := serve.Dial(s.addr, "")
		if err != nil {
			return err
		}
		s.clients = append(s.clients, cl)
	}
	return nil
}

// handle is the daemon's handler: tpch.Service.Handle, timed and metered
// from outside. The context's meters are final when Handle returns.
func (s *system) handle(ctx *engine.Context, scheme, query string) (*engine.Result, error) {
	t0 := time.Now()
	res, err := s.svc.Handle(ctx, scheme, query)
	t1 := time.Now()
	st := readStats(ctx)
	s.mu.Lock()
	if s.timed {
		s.handled.add(st)
	}
	s.mu.Unlock()
	s.tr.record("tpch.handle", "tpch", query, t0, t1, st.counters())
	return res, err
}

// beginTimed marks the start of the timed section for the meters that live
// on the server side.
func (s *system) beginTimed() {
	if s.srv == nil {
		return
	}
	s.mu.Lock()
	s.timed = true
	s.handled = qstats{}
	s.mu.Unlock()
	s.srvStats[0] = s.srv.Stats()
	s.cache[0][0], s.cache[0][1] = s.svc.CacheStats()
}

// endTimed closes the timed section and returns what the handler metered.
func (s *system) endTimed() qstats {
	if s.srv == nil {
		return qstats{}
	}
	s.mu.Lock()
	s.timed = false
	st := s.handled
	s.mu.Unlock()
	s.srvStats[1] = s.srv.Stats()
	s.cache[1][0], s.cache[1][1] = s.svc.CacheStats()
	return st
}

func (s *system) close() {
	for _, c := range s.clients {
		c.Close()
	}
	if s.srv != nil {
		s.srv.Close()
		if s.served != nil {
			<-s.served
		}
	}
}

// sweep runs one pass of client c over the workload's operation list.
func (s *system) sweep(w *workload, c, idx int, order []tpch.QueryDef, tr *tracer, parent *ref) sweepObs {
	at := where{client: c, sweep: idx}
	var obs sweepObs
	switch w.kind {
	case kindDaemon:
		cl := s.clients[c]
		for _, q := range order {
			at.query = q.Name
			t0 := time.Now()
			sp := tr.begin("serve.query", "serve", parent, at)
			res, err := cl.Query(w.scheme.String(), q.Name)
			sp.end(nil)
			obs.queries = append(obs.queries, queryObs{name: q.Name, lat: time.Since(t0), res: res, err: err})
		}
	case kindIngest:
		for _, q := range order {
			batch := s.batches[s.next]
			s.next++
			at.query = q.Name // the append is reported with the query that reads it
			as := tr.begin("plan.append", "plan", parent, at)
			err := s.bench.AppendBatch(batch)
			as.end(nil)
			obs.op(err)
			obs.query(s, w, q, tr, parent, at)
		}
		at.query = "merge"
		ms := tr.begin("plan.merge", "plan", parent, at)
		err := s.db.Ingest().Merge()
		ms.end(nil)
		obs.op(err)
	default:
		for _, q := range order {
			obs.query(s, w, q, tr, parent, at)
		}
	}
	return obs
}

func (o *sweepObs) op(err error) {
	o.ops++
	if err != nil {
		o.opsFailed++
		if o.err == nil {
			o.err = err
		}
	}
}

func (o *sweepObs) query(s *system, w *workload, q tpch.QueryDef, tr *tracer, parent *ref, at where) {
	t0 := time.Now()
	res, st, err := execQuery(s.db, w.opt, q, tr, parent, at)
	o.queries = append(o.queries, queryObs{name: q.Name, lat: time.Since(t0), res: res, err: err})
	o.stats.add(st)
}

// verifyIngest checks the merged database against a Plain database built
// from scratch over the base tables plus every batch that was appended: all
// of the workload's queries must return the same rows under both.
func (s *system) verifyIngest(w *workload) (attempted, failed int, first error) {
	fail := func(err error) (int, int, error) { return len(w.queries), len(w.queries), err }
	if pending := s.db.Snapshot().PendingDeltaRows(); pending != 0 {
		return fail(fmt.Errorf("ingest: %d delta rows left un-merged after the last cycle", pending))
	}
	tables := make(map[string]*storage.Table, len(s.bench.Data.Tables))
	for n, t := range s.bench.Data.Tables {
		tables[n] = t
	}
	for _, name := range []string{"orders", "lineitem"} {
		var all *storage.Table
		for _, b := range s.batches[:s.next] {
			part := b.Orders
			if name == "lineitem" {
				part = b.Lineitem
			}
			if all == nil {
				all = part
				continue
			}
			var err error
			if all, err = storage.Concat(all, all.Rows(), part); err != nil {
				return fail(err)
			}
		}
		if all == nil {
			continue
		}
		base := tables[name]
		combined, err := storage.Concat(base, base.Rows(), all)
		if err != nil {
			return fail(err)
		}
		tables[name] = combined
	}
	ref := plan.NewPlainDB(s.bench.Schema, tables, s.db.Device)
	for _, q := range w.queryDefs() {
		attempted++
		want, _, _, err := tpch.RunQueryOpts(ref, q, tpch.RunOptions{Workers: 1})
		var got *engine.Result
		if err == nil {
			got, _, err = execQuery(s.db, w.opt, q, nil, nil, where{})
		}
		if err == nil {
			err = sameRows(got, want)
		}
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("ingest rebuild check: %s: %w", q.Name, err)
			}
		}
	}
	return attempted, failed, first
}
