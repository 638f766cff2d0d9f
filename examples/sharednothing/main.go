// Shared-nothing partitioning: the scale-out deployment where scan device
// work itself divides across the workers (docs/PARTITIONING.md). The
// example derives the deterministic placement of LINEITEM's z-order cells
// onto two workers, runs Q3 serially and then partitioned over two
// simulated backends — base-table partitions shipped at setup, scatter
// scans reading worker-local storage — verifies the results are identical
// byte for byte, and prints the meters behind the headline: each worker's
// local scan volume at roughly half the single-box run's.
package main

import (
	"fmt"
	"log"

	"bdcc/internal/plan"
	"bdcc/internal/shard"
	"bdcc/internal/tpch"
)

func main() {
	const workers = 2
	b, err := tpch.NewBenchmark(0.02, plan.BDCC)
	if err != nil {
		log.Fatal(err)
	}
	db := b.DBs[plan.BDCC]

	// The placement is a pure function of (count table, worker count):
	// contiguous blocks of z-order cells in key order, balanced by
	// cumulative rows. Every party — planner, workers, failover re-scan —
	// derives the same division independently; nothing is negotiated.
	lineitem := db.Clustered.Tables["lineitem"]
	p := shard.NewPartitioning(lineitem.Name, lineitem.Count, workers)
	fmt.Printf("%s: %d rows in %d z-order cells, partitioned over %d workers\n",
		lineitem.Name, p.TotalRows(), len(lineitem.Count), workers)
	for w := 0; w < workers; w++ {
		fmt.Printf("  worker %d owns %8d rows in %4d cell segments\n",
			w, p.Rows(w), len(p.Segments(w)))
	}

	// The single-box baseline, then the same query shared-nothing: the
	// Partition knob ships each worker its block of every scatter-scanned
	// table and lowers the scans to shipped row-range units.
	q := tpch.Query(3)
	serial, sst, _, err := tpch.RunQueryOpts(db, q, tpch.RunOptions{Workers: 1, Shards: 1})
	if err != nil {
		log.Fatal(err)
	}
	part, pst, _, err := tpch.RunQueryOpts(db, q,
		tpch.RunOptions{Workers: workers, Shards: workers, Partition: true})
	if err != nil {
		log.Fatal(err)
	}

	// Byte-identity: same rows, same order, same float bits.
	if serial.Rows() != part.Rows() || len(serial.Cols) != len(part.Cols) {
		log.Fatalf("result shape diverged: %d×%d serial vs %d×%d partitioned",
			serial.Rows(), len(serial.Cols), part.Rows(), len(part.Cols))
	}
	for c := range serial.Cols {
		a, bb := serial.Cols[c], part.Cols[c]
		for i := 0; i < a.Len(); i++ {
			if a.Kind != bb.Kind ||
				(a.I64 != nil && a.I64[i] != bb.I64[i]) ||
				(a.F64 != nil && a.F64[i] != bb.F64[i]) ||
				(a.Str != nil && a.Str[i] != bb.Str[i]) {
				log.Fatalf("col %d row %d diverged", c, i)
			}
		}
	}
	fmt.Printf("\n%s: %d rows, identical serial vs partitioned\n", q.Name, part.Rows())

	// The meters behind the shared-nothing claim: scan reads land on the
	// workers' local copies, each at roughly 1/N of the single-box volume;
	// the coordinator is not charged for shipped scans.
	fmt.Printf("  single-box scan volume: %8.1f KB on the coordinator\n",
		float64(sst.IO.Bytes)/1024)
	for w, wio := range pst.WorkerIO {
		fmt.Printf("  partitioned, worker %d: %8.1f KB local\n",
			w, float64(wio.Bytes)/1024)
	}
	fmt.Printf("  partitioned, coord:    %8.1f KB (unpartitioned plan parts only)\n",
		float64(pst.IO.Bytes)/1024)
}
