// Sandwich operators: the memory behaviour of a co-clustered join. Both
// ORDERS and CUSTOMER are clustered on the customer-nation dimension, so the
// join can be "sandwiched": the build side is materialized one nation group
// at a time. The example contrasts peak memory and results of the sandwiched
// and the ordinary hash join on the same generated TPC-H data — the effect
// behind the paper's Figure 3 and its Q13 discussion.
package main

import (
	"fmt"
	"log"

	"bdcc/internal/core"
	"bdcc/internal/engine"
	"bdcc/internal/iosim"
	"bdcc/internal/tpch"
)

func main() {
	ds := tpch.Generate(0.05)
	schema := tpch.Schema()
	design, err := (&core.Advisor{Schema: schema}).Design()
	if err != nil {
		log.Fatal(err)
	}
	db, err := (&core.Builder{Schema: schema, Tables: ds.Tables}).Build(design)
	if err != nil {
		log.Fatal(err)
	}
	orders := db.Tables["orders"]
	customer := db.Tables["customer"]

	// Locate the shared dimension uses: ORDERS reaches D_NATION over
	// fk_o_c.fk_c_n, CUSTOMER over fk_c_n.
	uO, uC := -1, -1
	for i, u := range orders.Uses {
		if u.Dim.Name == "d_nation" {
			uO = i
		}
	}
	for i, u := range customer.Uses {
		if u.Dim.Name == "d_nation" {
			uC = i
		}
	}
	gO := core.Ones(orders.Uses[uO].Mask)
	gC := core.Ones(customer.Uses[uC].Mask)
	g := gO
	if gC < g {
		g = gC
	}

	run := func(name string, sandwich bool) {
		ctx := engine.NewContext(iosim.PaperSSD())
		var op engine.Operator
		if sandwich {
			po, err := orders.ScatterPlan([]int{uO}, []int{gO}, nil)
			if err != nil {
				log.Fatal(err)
			}
			pc, err := customer.ScatterPlan([]int{uC}, []int{gC}, nil)
			if err != nil {
				log.Fatal(err)
			}
			op = &engine.SandwichHashJoin{
				Left:     &engine.Scan{Table: orders.Data, Cols: []string{"o_orderkey", "o_custkey"}, Groups: po},
				Right:    &engine.Scan{Table: customer.Data, Cols: []string{"c_custkey", "c_name"}, Groups: pc},
				LeftKeys: []string{"o_custkey"}, RightKeys: []string{"c_custkey"},
				Type:       engine.InnerJoin,
				ProbeShift: uint(gO - g), BuildShift: uint(gC - g),
			}
		} else {
			// Scan the original tables: BDCCTable.Data additionally holds
			// the relocation area, which only count-table extents (as used
			// by scatter scans and the planner) may address.
			op = &engine.HashJoin{
				Left:     &engine.Scan{Table: ds.Tables["orders"], Cols: []string{"o_orderkey", "o_custkey"}},
				Right:    &engine.Scan{Table: ds.Tables["customer"], Cols: []string{"c_custkey", "c_name"}},
				LeftKeys: []string{"o_custkey"}, RightKeys: []string{"c_custkey"},
				Type: engine.InnerJoin,
			}
		}
		res, err := engine.Run(ctx, op)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s rows=%d peak memory=%8.1f KB\n",
			name, res.Rows(), float64(ctx.Mem.Peak())/1024)
	}
	fmt.Printf("ORDERS ⋈ CUSTOMER on o_custkey (aligned on d_nation, %d group bits)\n", g)
	run("hash join", false)
	run("sandwich join", true)
}
