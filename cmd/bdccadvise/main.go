// Command bdccadvise runs the paper's Algorithm 2 (semi-automatic schema
// design) on a DDL script with CREATE INDEX hints and prints the derived
// BDCC design: the dimension table and the per-table dimension-use table of
// the paper's Section IV. With -data it additionally materializes the design
// over generated TPC-H data and prints the actual bits, masks and count-
// table granularities Algorithm 1 self-tunes to.
//
// Usage:
//
//	bdccadvise [-ddl schema.sql] [-data] [-sf 0.05]
//
// Without -ddl the built-in TPC-H schema and hint set of the paper is used.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bdcc/internal/catalog"
	"bdcc/internal/core"
	"bdcc/internal/tpch"
)

func main() {
	ddlPath := flag.String("ddl", "", "DDL script (default: built-in TPC-H schema with the paper's hints)")
	data := flag.Bool("data", false, "materialize over generated TPC-H data (built-in schema only)")
	sf := flag.Float64("sf", 0.05, "scale factor for -data")
	flag.Parse()

	var schema *catalog.Schema
	if *ddlPath != "" {
		src, err := os.ReadFile(*ddlPath)
		if err != nil {
			fatal(err)
		}
		schema, err = catalog.ParseDDL(string(src))
		if err != nil {
			fatal(err)
		}
	} else {
		schema = tpch.Schema()
	}

	design, err := (&core.Advisor{Schema: schema}).Design()
	if err != nil {
		fatal(err)
	}

	fmt.Println("BDCC dimensions (Algorithm 2):")
	fmt.Printf("  %-12s %-8s %-10s %s\n", "dimension", "maxbits", "table", "key")
	for _, d := range design.Dimensions {
		fmt.Printf("  %-12s %-8d %-10s %s\n", d.Name, d.MaxBits, d.Table, strings.Join(d.Key, ","))
	}
	fmt.Println("\nDimension uses per table:")
	fmt.Printf("  %-10s %-12s %s\n", "table", "dimension", "path")
	for _, td := range design.Tables {
		for i, u := range td.Uses {
			name := td.Table
			if i > 0 {
				name = ""
			}
			fmt.Printf("  %-10s %-12s %s\n", name, u.Dim, u.PathString())
		}
	}

	if !*data {
		return
	}
	if *ddlPath != "" {
		fatal(fmt.Errorf("-data requires the built-in TPC-H schema"))
	}
	fmt.Printf("\nmaterializing over generated TPC-H SF%g...\n", *sf)
	ds := tpch.Generate(*sf)
	db, err := (&core.Builder{Schema: schema, Tables: ds.Tables}).Build(design)
	if err != nil {
		fatal(err)
	}
	fmt.Println("\nCreated dimensions:")
	fmt.Printf("  %-12s %-6s %-8s %-10s %s\n", "dimension", "bits", "bins", "table", "key")
	for _, spec := range design.Dimensions {
		d := db.Dimensions[spec.Name]
		fmt.Printf("  %-12s %-6d %-8d %-10s %s\n", d.Name, d.Bits(), d.NumBins(), d.Table, strings.Join(d.Key, ","))
	}
	fmt.Println("\nSelf-tuned BDCC tables (Algorithm 1):")
	fmt.Printf("  %-10s %-6s %-6s %-8s %-12s %-28s %s\n", "table", "b", "B", "groups", "dimension", "path", "mask")
	for _, td := range design.Tables {
		bt := db.Tables[td.Table]
		for i, u := range bt.Uses {
			name, bs, fs, gs := td.Table, fmt.Sprint(bt.Bits), fmt.Sprint(bt.FullBits), fmt.Sprint(len(bt.Count))
			if i > 0 {
				name, bs, fs, gs = "", "", "", ""
			}
			fmt.Printf("  %-10s %-6s %-6s %-8s %-12s %-28s %s\n",
				name, bs, fs, gs, u.Dim.Name, u.PathString(), core.MaskString(u.Mask))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bdccadvise:", err)
	os.Exit(1)
}
