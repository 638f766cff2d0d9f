package tpch

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"bdcc/internal/plan"
	"bdcc/internal/serve"
)

// ConcurrencyStats is one closed-loop concurrency measurement against a
// bdccd daemon: N clients each issuing the query list for `rounds` rounds
// back to back, latencies recorded per request — the concurrency leg of
// tpchbench -clients.
type ConcurrencyStats struct {
	Scheme   string
	Clients  int
	Requests int
	QPS      float64
	P50MS    float64
	P99MS    float64
	// Queued/Rejected are the daemon's admission counters over this run
	// (deltas of the wire stats); rejected requests also count into
	// Requests — a closed-loop client moves on, it does not retry.
	Queued   int64
	Rejected int64
}

// RunConcurrency drives a daemon at addr with `clients` closed-loop
// sessions, each issuing every named query `rounds` times under one scheme,
// and reports throughput, latency quantiles, and the daemon's admission
// deltas for the run. A request that fails other than by rejection fails the
// run once every client has finished.
func RunConcurrency(addr, token string, scheme plan.Scheme, queries []string, clients, rounds int) (*ConcurrencyStats, error) {
	clients = max(clients, 1)
	rounds = max(rounds, 1)
	probe, err := serve.Dial(addr, token)
	if err != nil {
		return nil, err
	}
	defer probe.Close()
	before, err := probe.Stats()
	if err != nil {
		return nil, err
	}

	type outcome struct {
		lat      []time.Duration
		rejected int64
		errs     int64
		firstErr error
		fatal    error
	}
	outcomes := make([]outcome, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := serve.Dial(addr, token)
			if err != nil {
				outcomes[i].fatal = err
				return
			}
			defer c.Close()
			for r := 0; r < rounds; r++ {
				for _, q := range queries {
					t0 := time.Now()
					_, err := c.Query(scheme.String(), q)
					outcomes[i].lat = append(outcomes[i].lat, time.Since(t0))
					switch {
					case err == nil:
					case errors.Is(err, serve.ErrRejected):
						outcomes[i].rejected++
					default:
						if outcomes[i].errs == 0 {
							outcomes[i].firstErr = err
						}
						outcomes[i].errs++
					}
				}
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	st := &ConcurrencyStats{Scheme: scheme.String(), Clients: clients}
	var lats []time.Duration
	var errs int64
	var firstErr error
	for _, o := range outcomes {
		if o.fatal != nil {
			return nil, fmt.Errorf("tpch: concurrency client: %w", o.fatal)
		}
		lats = append(lats, o.lat...)
		st.Rejected += o.rejected
		errs += o.errs
		if firstErr == nil {
			firstErr = o.firstErr
		}
	}
	if errs > 0 {
		return nil, fmt.Errorf("tpch: %d of %d concurrency requests under %s failed, first: %w", errs, len(lats), scheme, firstErr)
	}
	st.Requests = len(lats)
	if wall > 0 {
		st.QPS = float64(st.Requests) / wall.Seconds()
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if n := len(lats); n > 0 {
		st.P50MS = float64(lats[n/2].Microseconds()) / 1000
		st.P99MS = float64(lats[n*99/100].Microseconds()) / 1000
	}
	after, err := probe.Stats()
	if err != nil {
		return nil, err
	}
	st.Queued = after.QueuedTotal - before.QueuedTotal
	return st, nil
}
