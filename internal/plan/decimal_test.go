package plan

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"bdcc/internal/catalog"
	"bdcc/internal/core"
	"bdcc/internal/engine"
	"bdcc/internal/expr"
	"bdcc/internal/iosim"
	"bdcc/internal/storage"
)

// TestDecimalDimensionInList holds a BDCC dimension on a DECIMAL column to
// its stored units: an IN list of several numbers restricts the bins of the
// scaled values (60 at scale 2 is the bin of 6 000 cents, not of 60), so the
// BDCC scan prunes groups and returns the rows Plain returns.
func TestDecimalDimensionInList(t *testing.T) {
	schema := catalog.MustParseDDL(`
CREATE TABLE t (t_id INT, t_price DECIMAL(9,2), PRIMARY KEY (t_id));
CREATE INDEX tp_idx ON t (t_price);
`)
	const n = 20_000
	id, price := make([]int64, n), make([]int64, n)
	for i := range id {
		id[i], price[i] = int64(i), 25*int64(i%400) // 0.00, 0.25, … 99.75
	}
	tables := map[string]*storage.Table{"t": storage.MustNewTable("t", 4096,
		storage.NewInt64Column("t_id", id), storage.NewDecimalColumn("t_price", price, 2))}
	dev := iosim.PaperSSD()
	bd, err := NewBDCCDB(schema, tables, dev, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range [][]*expr.Const{
		{expr.Int(60), expr.Int(80)},
		{expr.Float(61.5), expr.Float(72.25), expr.Int(99)},
	} {
		build := func() Node {
			return &Agg{Child: &Scan{Table: "t", Cols: []string{"t_id", "t_price"}, Filter: expr.NewIn(expr.C("t_price"), in...)},
				Aggs: []engine.AggSpec{{Name: "c", Func: engine.AggCount}}}
		}
		want, _ := runRows(t, NewPlainDB(schema, tables, dev), build())
		got, p := runRows(t, bd, build())
		if !slices.Equal(got, want) || want[0] != fmt.Sprintf("[%d]", 50*len(in)) {
			t.Errorf("IN %v: BDCC counts %v, Plain %v", in, got, want)
		}
		if log := strings.Join(p.Log, "\n"); !strings.Contains(log, "bdcc pushdown") {
			t.Errorf("IN %v restricts no group: %s", in, log)
		}
	}
}
