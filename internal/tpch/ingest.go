package tpch

import (
	"fmt"
	"math/rand"

	"bdcc/internal/plan"
	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// DeltaBatch is one arrival batch: freshly placed orders and their lineitems,
// in insertion order. Orders must be appended before lineitems so the
// lineitems' foreign keys resolve over base + visible delta.
type DeltaBatch struct {
	Orders   *storage.Table
	Lineitem *storage.Table
}

// DeltaGen generates arrival batches continuing a dataset's order-key space
// with the base generator's distributions (customer skip rule, item counts,
// price/discount/date derivations, status cut). Order dates split between
// the historical window and the period after it — the realistic mix of
// backfill and fresh traffic. Fresh dates fall outside every d_date bin the
// design observed at load, so they exercise BinOf's clamping and are what the
// drift detector fires on.
type DeltaGen struct {
	// Backfill is the fraction of generated orders dated inside the
	// historical window (default 0.5). 1 keeps arrivals in-distribution;
	// 0 makes every arrival post-window, the fastest way to drift.
	Backfill float64

	nextKey int64
	src     orderGen // the draws' source: rng, table sizes, part prices
}

// NewDeltaGen returns a generator whose first order key continues after the
// dataset's. Different seeds give independent arrival streams.
func NewDeltaGen(d *Dataset, seed int64) *DeltaGen {
	orders := d.Tables["orders"]
	var maxKey int64
	for _, k := range orders.MustColumn("o_orderkey").I64 {
		if k > maxKey {
			maxKey = k
		}
	}
	return &DeltaGen{Backfill: 0.5, nextKey: maxKey + 1, src: orderGen{
		rng:    rand.New(rand.NewSource(seed)),
		nCust:  d.Tables["customer"].Rows(),
		nPart:  d.Tables["part"].Rows(),
		nSupp:  d.Tables["supplier"].Rows(),
		retail: d.Tables["part"].MustColumn("p_retailprice").F64,
	}}
}

// Next generates the next nOrders arrivals.
func (g *DeltaGen) Next(nOrders int) *DeltaBatch {
	og, rng := g.src, g.src.rng
	freshHi := vector.ParseDate("1999-06-01")
	og.date = func() int64 {
		if rng.Float64() < g.Backfill {
			return dateLo + rng.Int63n(dateHi-dateLo+1)
		}
		return dateHi + 1 + rng.Int63n(freshHi-dateHi)
	}
	og.reserve(nOrders)
	for range nOrders {
		og.order(g.nextKey)
		g.nextKey++
	}
	orders, lineitem := og.tables(4 << 10)
	return &DeltaBatch{Orders: orders, Lineitem: lineitem}
}

// EnableIngest attaches append ledgers to every materialized scheme with the
// same bound and drift trigger, so the three schemes see identical arrival
// streams.
func (b *Benchmark) EnableIngest(limit int, driftThreshold float64) error {
	for s, db := range b.DBs {
		opt := plan.IngestOptions{Limit: limit, DriftThreshold: driftThreshold}
		if s == plan.PK {
			opt.Raw = b.Data.Tables
		}
		if _, err := db.EnableIngest(opt); err != nil {
			return err
		}
	}
	return nil
}

// appendTo ingests one arrival batch into a single database, parents first.
func appendTo(db *plan.DB, batch *DeltaBatch) error {
	ing := db.Ingest()
	if ing == nil {
		return fmt.Errorf("tpch: ingest not enabled on %s", db.Scheme)
	}
	if err := ing.Append("orders", batch.Orders); err != nil {
		return fmt.Errorf("tpch: append orders (%s): %w", db.Scheme, err)
	}
	if err := ing.Append("lineitem", batch.Lineitem); err != nil {
		return fmt.Errorf("tpch: append lineitem (%s): %w", db.Scheme, err)
	}
	return nil
}

// AppendBatch ingests one arrival batch into every scheme, parents first.
func (b *Benchmark) AppendBatch(batch *DeltaBatch) error {
	for _, db := range b.DBs {
		if err := appendTo(db, batch); err != nil {
			return err
		}
	}
	return nil
}

// MergeAll drains background merges and consolidates any remaining delta in
// every scheme.
func (b *Benchmark) MergeAll() error {
	for s, db := range b.DBs {
		ing := db.Ingest()
		if ing == nil {
			continue
		}
		ing.Wait()
		if err := ing.Merge(); err != nil {
			return fmt.Errorf("tpch: merge (%s): %w", s, err)
		}
	}
	return nil
}

// WaitIngest drains background merges on every scheme without forcing one.
func (b *Benchmark) WaitIngest() {
	for _, db := range b.DBs {
		if ing := db.Ingest(); ing != nil {
			ing.Wait()
		}
	}
}

// IngestStats sums the per-scheme ingest counters. Appends go to every
// scheme, so rates are per scheme (the summary divides where needed).
func (b *Benchmark) IngestStats() map[plan.Scheme]plan.IngestStats {
	out := make(map[plan.Scheme]plan.IngestStats, len(b.DBs))
	for s, db := range b.DBs {
		if ing := db.Ingest(); ing != nil {
			out[s] = ing.Stats()
		}
	}
	return out
}
