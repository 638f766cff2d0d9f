package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"bdcc/internal/engine"
	"bdcc/internal/plan"
	"bdcc/internal/tpch"
	"bdcc/internal/vector"
)

// expectation is what a query must return at one scale factor.
type expectation struct {
	Rows int    `json:"rows"`
	FNV  string `json:"fnv64"`
}

// expectations maps a scale-factor key ("sf0.05") to query name to result.
type expectations map[string]map[string]expectation

//go:embed expected.json
var expectedJSON []byte

// expectedPath is where -write-expected writes the file embedded above,
// relative to the repo root, which is where run.sh runs the program.
const expectedPath = "bench/expected.json"

func loadExpectations() (expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("bench: expected.json: %w", err)
	}
	return e, nil
}

func sfKey(sf float64) string { return "sf" + strconv.FormatFloat(sf, 'g', -1, 64) }

// checksum is the FNV-64a of the result's rows, summed over rows. Integers
// and strings enter as Result.Row renders them; floats enter with six
// significant digits, because the expectations are generated under Plain
// while most workloads run BDCC, and a sum taken in another row order may
// differ in its last bits — at Row's two decimals Q09 already does at SF 0.05.
// Summing the row hashes makes the value independent of row order: rows that
// tie on a query's ORDER BY may legally come out in another order under
// another physical scheme.
func checksum(res *engine.Result) (rows int, sum string) {
	var acc uint64
	n := res.Rows()
	for i := 0; i < n; i++ {
		h := fnv.New64a()
		for _, col := range res.Cols {
			if col.Kind == vector.Float64 {
				fmt.Fprintf(h, "%.6g", col.F64[i])
			} else {
				h.Write([]byte(col.GetString(i)))
			}
			h.Write([]byte{0x1f})
		}
		acc += h.Sum64()
	}
	return n, fmt.Sprintf("%016x", acc)
}

// check compares one result with the expectation of (sf, query).
func (e expectations) check(sf float64, query string, res *engine.Result) error {
	want, ok := e[sfKey(sf)][query]
	if !ok {
		return fmt.Errorf("no expectation for %s at %s (regenerate with -write-expected)", query, sfKey(sf))
	}
	rows, sum := checksum(res)
	if rows != want.Rows || sum != want.FNV {
		return fmt.Errorf("%s at %s: got %d rows fnv64 %s, expected %d rows fnv64 %s",
			query, sfKey(sf), rows, sum, want.Rows, want.FNV)
	}
	return nil
}

// writeExpected regenerates the expectations under the Plain scheme, serially,
// for every scale factor a workload or the smoke test uses, and checks that
// the BDCC scheme agrees before anything is written to path.
func writeExpected(path string, sfs []float64) error {
	out := expectations{}
	for _, sf := range sfs {
		b, err := tpch.NewBenchmarkCompressed(sf, true, plan.Plain, plan.BDCC)
		if err != nil {
			return err
		}
		byName := map[string]expectation{}
		for _, q := range tpch.Queries {
			res, _, _, err := tpch.RunQueryOpts(b.DBs[plan.Plain], q, tpch.RunOptions{Workers: 1})
			if err != nil {
				return err
			}
			rows, sum := checksum(res)
			byName[q.Name] = expectation{Rows: rows, FNV: sum}
		}
		out[sfKey(sf)] = byName
		for _, q := range tpch.Queries {
			res, _, _, err := tpch.RunQueryOpts(b.DBs[plan.BDCC], q, tpch.RunOptions{Workers: 1})
			if err != nil {
				return err
			}
			if err := out.check(sf, q.Name, res); err != nil {
				return fmt.Errorf("bdcc disagrees with plain: %w", err)
			}
		}
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sameRows compares two results the way the repo's cross-scheme oracle does:
// as sorted row strings, with numeric fields equal within a relative 1e-6,
// because summation order differs between physical schemes. It is used where
// both results are in memory (the ingest workload's from-scratch rebuild).
func sameRows(got, want *engine.Result) error {
	if got.Rows() != want.Rows() {
		return fmt.Errorf("%d rows, reference has %d", got.Rows(), want.Rows())
	}
	render := func(r *engine.Result) [][]string {
		rows := make([][]string, r.Rows())
		for i := range rows {
			rows[i] = r.Row(i)
		}
		sort.Slice(rows, func(a, b int) bool { return strings.Join(rows[a], "\x1f") < strings.Join(rows[b], "\x1f") })
		return rows
	}
	g, w := render(got), render(want)
	for i := range g {
		for c := range g[i] {
			if g[i][c] == w[i][c] {
				continue
			}
			x, errX := strconv.ParseFloat(g[i][c], 64)
			y, errY := strconv.ParseFloat(w[i][c], 64)
			if errX != nil || errY != nil || math.Abs(x-y) > 1e-6*math.Max(1, math.Max(math.Abs(x), math.Abs(y))) {
				return fmt.Errorf("row %d column %d: %q, reference has %q", i, c, g[i][c], w[i][c])
			}
		}
	}
	return nil
}
