package storage

import (
	"fmt"
	"slices"

	"bdcc/internal/vector"
)

// sameZoneBounds reports whether two zonemaps have the same geometry and
// bounds, whatever rows they record.
func sameZoneBounds(a, b *zonemap) bool {
	return a.rowsPerPage == b.rowsPerPage && slices.Equal(a.minI, b.minI) && slices.Equal(a.maxI, b.maxI) &&
		slices.Equal(a.minS, b.minS) && slices.Equal(a.maxS, b.maxS)
}

// CheckChunkZones returns an error unless every column of the compressed
// table t has the zones its chunks' bounds give, recording the rows that
// hold them exactly when kept is set: a table that compressed itself keeps
// its zones, one adopted from frames builds them from its chunks.
func CheckChunkZones(t *Table, kept bool) error {
	for i, c := range t.Cols {
		if c.Enc == nil {
			return fmt.Errorf("column %s is not encoded", c.Name)
		}
		if chunks := zonemapFromChunks(c); !sameZoneBounds(&t.zones[i], &chunks) {
			return fmt.Errorf("column %s: zones differ from its chunks' bounds", c.Name)
		}
		if c.Kind != vector.Float64 && (t.zones[i].minAt != nil) != kept {
			return fmt.Errorf("column %s: bound rows recorded %v, want %v", c.Name, t.zones[i].minAt != nil, kept)
		}
		if err := boundRowsHold(t, i); err != nil {
			return err
		}
	}
	return nil
}
