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

	rng     *rand.Rand
	nextKey int64
	nCust   int
	nPart   int
	nSupp   int
	retail  []float64
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
	return &DeltaGen{
		Backfill: 0.5,
		rng:      rand.New(rand.NewSource(seed)),
		nextKey:  maxKey + 1,
		nCust:    d.Tables["customer"].Rows(),
		nPart:    d.Tables["part"].Rows(),
		nSupp:    d.Tables["supplier"].Rows(),
		retail:   d.Tables["part"].MustColumn("p_retailprice").F64,
	}
}

// Next generates the next nOrders arrivals.
func (g *DeltaGen) Next(nOrders int) *DeltaBatch {
	rng := g.rng
	dateLo := vector.ParseDate("1992-01-01")
	dateHi := vector.ParseDate("1998-08-02")
	freshHi := vector.ParseDate("1999-06-01")
	statusCut := vector.ParseDate("1995-06-17")
	pageSize := int64(4 << 10)

	oKey := make([]int64, nOrders)
	oCust := make([]int64, nOrders)
	oStatus := make([]string, nOrders)
	oTotal := make([]float64, nOrders)
	oDate := make([]int64, nOrders)
	oPrio := make([]string, nOrders)
	oClerk := make([]string, nOrders)
	oShipPrio := make([]int64, nOrders)
	oCom := make([]string, nOrders)

	var lOrd, lPart, lSupp, lNum []int64
	var lQty, lExt, lDisc, lTax []float64
	var lRet, lStat []string
	var lShip, lCommit, lRcpt []int64
	var lInstr, lMode, lCom []string

	for i := 0; i < nOrders; i++ {
		ok := g.nextKey
		g.nextKey++
		oKey[i] = ok
		var ck int64
		for {
			ck = 1 + rng.Int63n(int64(g.nCust))
			if ck%3 != 0 || g.nCust < 3 {
				break
			}
		}
		oCust[i] = ck
		var od int64
		if rng.Float64() < g.Backfill {
			od = dateLo + rng.Int63n(dateHi-dateLo+1)
		} else {
			od = dateHi + 1 + rng.Int63n(freshHi-dateHi)
		}
		oDate[i] = od
		oPrio[i] = priorities[rng.Intn(5)]
		oClerk[i] = fmt.Sprintf("Clerk#%09d", 1+rng.Intn(1000))
		oShipPrio[i] = 0
		oCom[i] = comment(rng, 8, 0.02, "special", "requests")

		items := 1 + rng.Intn(7)
		var total float64
		allF, allO := true, true
		for ln := 1; ln <= items; ln++ {
			pk := 1 + rng.Int63n(int64(g.nPart))
			si := rng.Intn(4)
			sk := psSupplierFor(pk, si, int64(g.nSupp))
			qty := float64(1 + rng.Intn(50))
			ext := qty * g.retail[pk-1]
			disc := float64(rng.Intn(11)) / 100
			tax := float64(rng.Intn(9)) / 100
			ship := od + 1 + rng.Int63n(121)
			commit := od + 30 + rng.Int63n(61)
			rcpt := ship + 1 + rng.Int63n(30)
			rf := "N"
			if rcpt <= statusCut {
				if rng.Intn(2) == 0 {
					rf = "R"
				} else {
					rf = "A"
				}
			}
			ls := "F"
			if ship > statusCut {
				ls = "O"
			}
			if ls == "F" {
				allO = false
			} else {
				allF = false
			}
			lOrd = append(lOrd, ok)
			lPart = append(lPart, pk)
			lSupp = append(lSupp, sk)
			lNum = append(lNum, int64(ln))
			lQty = append(lQty, qty)
			lExt = append(lExt, ext)
			lDisc = append(lDisc, disc)
			lTax = append(lTax, tax)
			lRet = append(lRet, rf)
			lStat = append(lStat, ls)
			lShip = append(lShip, ship)
			lCommit = append(lCommit, commit)
			lRcpt = append(lRcpt, rcpt)
			lInstr = append(lInstr, instructs[rng.Intn(4)])
			lMode = append(lMode, shipModes[rng.Intn(7)])
			lCom = append(lCom, comment(rng, 5, 0, "", ""))
			total += ext * (1 + tax) * (1 - disc)
		}
		switch {
		case allF:
			oStatus[i] = "F"
		case allO:
			oStatus[i] = "O"
		default:
			oStatus[i] = "P"
		}
		oTotal[i] = total
	}

	orders := storage.MustNewTable("orders", pageSize,
		storage.NewInt64Column("o_orderkey", oKey),
		storage.NewInt64Column("o_custkey", oCust),
		storage.NewStringColumn("o_orderstatus", oStatus),
		storage.NewFloat64Column("o_totalprice", oTotal),
		storage.NewInt64Column("o_orderdate", oDate),
		storage.NewStringColumn("o_orderpriority", oPrio),
		storage.NewStringColumn("o_clerk", oClerk),
		storage.NewInt64Column("o_shippriority", oShipPrio),
		storage.NewStringColumn("o_comment", oCom))
	lineitem := storage.MustNewTable("lineitem", pageSize,
		storage.NewInt64Column("l_orderkey", lOrd),
		storage.NewInt64Column("l_partkey", lPart),
		storage.NewInt64Column("l_suppkey", lSupp),
		storage.NewInt64Column("l_linenumber", lNum),
		storage.NewFloat64Column("l_quantity", lQty),
		storage.NewFloat64Column("l_extendedprice", lExt),
		storage.NewFloat64Column("l_discount", lDisc),
		storage.NewFloat64Column("l_tax", lTax),
		storage.NewStringColumn("l_returnflag", lRet),
		storage.NewStringColumn("l_linestatus", lStat),
		storage.NewInt64Column("l_shipdate", lShip),
		storage.NewInt64Column("l_commitdate", lCommit),
		storage.NewInt64Column("l_receiptdate", lRcpt),
		storage.NewStringColumn("l_shipinstruct", lInstr),
		storage.NewStringColumn("l_shipmode", lMode),
		storage.NewStringColumn("l_comment", lCom))
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
