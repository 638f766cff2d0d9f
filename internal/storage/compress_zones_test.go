package storage_test

import (
	"testing"

	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// TestCompressKeepsZones: on every column of the SF 0.01 tables under Plain,
// PK and BDCC, the zones Compress keeps are the zones the column's chunks
// give, with the rows that hold them recorded; the same tables adopted from
// their frames build their zones from the chunks, without rows.
func TestCompressKeepsZones(t *testing.T) {
	b, err := tpchSF01()
	if err != nil {
		t.Fatal(err)
	}
	for scheme, db := range b.DBs {
		for name := range db.Tables {
			tab, err := db.StoredTable(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := storage.CheckChunkZones(tab, true); err != nil {
				t.Fatalf("%s %s: %v", scheme, name, err)
			}
			names := make([]string, len(tab.Cols))
			kinds := make([]vector.Kind, len(tab.Cols))
			for i, c := range tab.Cols {
				names[i], kinds[i] = c.Name, c.Kind
			}
			a, err := storage.NewTableAdopter(tab.Name, tab.PageSize, tab.Rows(), true, names, kinds)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range tab.Frames(1 << 16) {
				if _, _, err := a.Add(f); err != nil {
					t.Fatal(err)
				}
			}
			adopted, err := a.Table()
			if err != nil {
				t.Fatal(err)
			}
			if err := storage.CheckChunkZones(adopted, false); err != nil {
				t.Fatalf("%s %s adopted: %v", scheme, name, err)
			}
		}
	}
}
