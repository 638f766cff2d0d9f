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
		cols[i] = rawCopy(c, ranges)
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

// rawCopy returns the uncompressed column of c's rows in ranges, in order.
func rawCopy(c *Column, ranges RowRanges) *Column {
	v := vector.NewVector(c.Kind, 0)
	for _, r := range ranges {
		c.AppendRange(r.Start, r.End, v)
	}
	return columnOf(c.Name, v)
}

// columnOf returns the uncompressed column named name of v's values.
func columnOf(name string, v *vector.Vector) *Column {
	if v.Kind == vector.String {
		return NewStringColumn(name, v.Str)
	}
	return rawColumn(name, v.Kind, Chunk{ValI: v.I64, ValF: v.F64})
}

// heldBytes returns the first of the string bytes column c holds: those its
// chunks' and dictionary's strings own (ownStrings), else the heap its first
// raw chunk windows.
func heldBytes(c *Column) *byte {
	if len(c.Enc.strs) > 0 {
		return &c.Enc.strs[0]
	}
	for _, ch := range c.Enc.Chunks {
		if ch.Enc == EncRaw {
			return &ch.ValS.Bytes[0]
		}
	}
	return nil
}

// readAll returns column ci of tab as one vector, read through a Reader over
// the full range.
func readAll(tab *Table, ci int) *vector.Vector {
	r := NewReader(tab, []int{ci}, nil, nil)
	b := vector.NewBatch(r.Kinds())
	out := &vector.Vector{Kind: tab.Cols[ci].Kind}
	for r.Next(b) {
		out.AppendVector(b.Cols[0])
	}
	return out
}

// spliceRuns is Splice's step for a row list: row i of the result is row
// src[i] of the concatenation of a's first aRows rows and b.
func spliceRuns(src []int32, aRows int) []Run {
	var runs []Run
	for _, s := range src {
		if s < int32(aRows) {
			runs = AppendRun(runs, 0, s, 1)
		} else {
			runs = AppendRun(runs, 1, s-int32(aRows), 1)
		}
	}
	return runs
}

// encodeAt encodes the raw column c in chunks of chunkRows rows, as
// compress does at a table's pages.
func (c *Column) encodeAt(chunkRows int) {
	c.Enc, _ = encodeColumn(c.Kind, c.raw(), nil, 0, c.Len(), chunkRows, nil, 0)
	c.useEncodedWidth()
}

// encodedGathering returns Encoded of t and, by column, whether the encoder
// read it into one heap (gatherStrings) rather than from its root's codes.
func encodedGathering(t *Table) (*Table, []bool) {
	gathered := make([]bool, len(t.Cols)) // each column's own element: eachColumn's goroutines do not race
	defer func(f func(*view, int, vector.Kind, int, int) Chunk) { gatherStrings = f }(gatherStrings)
	gatherStrings = func(v *view, ci int, kind vector.Kind, n, bytes int) Chunk {
		gathered[ci] = true
		return v.column(ci, kind, n, bytes)
	}
	return t.Encoded(), gathered
}
