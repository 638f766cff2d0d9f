package storage

import (
	"fmt"
	"reflect"
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

// CheckExtract returns Extract of the given ranges of the compressed table
// t — AppendRows of them when appendRows is set — and an error unless it is
// the table NewTable and Compress build over the same rows: every column
// deep-equal (values, encoding, width), and the zones of the same geometry
// and bounds, with every recorded bound row holding its bound.
func CheckExtract(t *Table, ranges RowRanges, appendRows bool) (*Table, error) {
	extract := t.Extract
	if appendRows {
		extract = t.AppendRows
	}
	got, err := extract(ranges)
	if appendRows {
		ranges = append(RowRanges{{0, t.rows}}, ranges...)
	}
	if err != nil {
		return nil, err
	}
	cols := make([]*Column, len(t.Cols))
	for i, c := range t.Cols {
		cols[i] = &Column{Name: c.Name, Kind: c.Kind}
		cols[i].reserve(0)
		for _, r := range ranges {
			cols[i].appendRows(c, r.Start, r.End)
		}
	}
	want, err := NewTable(t.Name, t.PageSize, cols...)
	if err != nil {
		return nil, err
	}
	want.Compress()
	for i, wc := range want.Cols {
		gc := got.Cols[i]
		if gc.Enc.ChunkRows != wc.Enc.ChunkRows || len(gc.Enc.Chunks) != len(wc.Enc.Chunks) {
			return got, fmt.Errorf("column %s: %d chunks of %d rows, a re-encode has %d of %d",
				wc.Name, len(gc.Enc.Chunks), gc.Enc.ChunkRows, len(wc.Enc.Chunks), wc.Enc.ChunkRows)
		}
		for k := range wc.Enc.Chunks {
			if !reflect.DeepEqual(gc.Enc.Chunks[k], wc.Enc.Chunks[k]) {
				return got, fmt.Errorf("column %s: chunk %d differs from a re-encode", wc.Name, k)
			}
		}
		if !reflect.DeepEqual(gc, wc) {
			return got, fmt.Errorf("column %s differs from a re-encode", wc.Name)
		}
	}
	return got, sameBounds(got, want)
}

// strs returns the values of a heap.
func strs(h vector.Heap) []string {
	out := make([]string, h.Len())
	for i := range out {
		out[i] = h.At(i)
	}
	return out
}

// appendRows appends rows [lo,hi) of src to c (same kind), the way the tests
// gather reference tables row by row.
func (c *Column) appendRows(src *Column, lo, hi int) {
	switch c.Kind {
	case vector.Int64:
		c.I64 = append(c.I64, src.I64[lo:hi]...)
	case vector.Float64:
		c.F64 = append(c.F64, src.F64[lo:hi]...)
	case vector.String:
		c.Str.AppendRange(src.Str, lo, hi)
	}
}
