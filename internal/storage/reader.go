package storage

import (
	"bdcc/internal/iosim"
	"bdcc/internal/vector"
)

// PushPred is a predicate interval pushed into the reader. Col indexes the
// reader's cols slice (not the table's columns). On compressed columns the
// reader evaluates pushed intervals against the encoded form — per RLE run
// and on dictionary codes — before materializing rows; pruning is
// conservative, so scans still re-apply the full predicate on the output.
type PushPred struct {
	Col int
	Iv  Interval
}

// Reader iterates the given row ranges of selected columns, producing
// batches. Device I/O for the covered pages is charged to the accountant
// once, at construction, with page runs coalesced across the range set —
// matching a scan that issues all its reads up front. A compressed column
// decodes only the rows a batch takes, each span of a chunk straight into
// the batch (Chunk.AppendRange): a reader over one group of a scatter scan
// unpacks that group's rows, not the whole chunks they sit in.
//
// Batches are cut by the ranges alone: each range is read in BatchSize-row
// windows from its start, and one window is at most one batch. A pushed
// predicate only drops rows inside a window (a window left empty is
// skipped), so once the scan's filter has run the batch sequence is the same
// with or without pushdown, on any encoding of the same rows, and wherever a
// reader over a window-aligned slice of the ranges starts.
type Reader struct {
	t      *Table
	v      *view // t's runs (runsOf)
	cols   []int
	ranges RowRanges
	push   []PushPred
	spans  []RowRange // the window's surviving spans, ping-ponged per predicate
	spans2 []RowRange
	ri     int // current range index
	pos    int // next row within current range
}

// NewReader returns a reader over the row ranges (nil means the full table)
// of the named column positions. acct may be nil.
func NewReader(t *Table, cols []int, ranges RowRanges, acct *iosim.Accountant) *Reader {
	return NewReaderPush(t, cols, ranges, acct, nil)
}

// NewReaderPush is NewReader with predicate intervals pushed into the scan.
// Pushdown refines which rows are materialized but not what is charged: the
// covered pages were already selected by zonemap pruning, so the saving is
// decode and filter work, not modeled I/O.
func NewReaderPush(t *Table, cols []int, ranges RowRanges, acct *iosim.Accountant, push []PushPred) *Reader {
	if ranges == nil {
		ranges = FullRange(t.Rows())
	}
	t.ChargeIO(acct, cols, ranges)
	r := &Reader{t: t, v: t.runsOf(), cols: cols, ranges: ranges, push: push}
	if len(ranges) > 0 {
		r.pos = ranges[0].Start
	}
	return r
}

// Kinds returns the column kinds the reader produces, in order.
func (r *Reader) Kinds() []vector.Kind {
	ks := make([]vector.Kind, len(r.cols))
	for i, ci := range r.cols {
		ks[i] = r.t.Cols[ci].Kind
	}
	return ks
}

// Next fills out with the surviving rows of the next window that has any
// and reports whether it found one. Batches never span a range boundary, so
// callers that align range boundaries with group boundaries (scatter scans)
// get group-pure batches.
func (r *Reader) Next(out *vector.Batch) bool {
	out.Reset()
	for r.ri < len(r.ranges) {
		lo := r.pos
		hi := min(r.ranges[r.ri].End, lo+vector.BatchSize)
		if r.pos = hi; hi == r.ranges[r.ri].End {
			if r.ri++; r.ri < len(r.ranges) {
				r.pos = r.ranges[r.ri].Start
			}
		}
		// Refine the window through each pushed predicate on the encoded
		// form; surviving sub-spans materialize, the rest never decode.
		r.spans = appendSpan(r.spans[:0], lo, hi)
		for _, p := range r.push {
			c := r.t.Cols[r.cols[p.Col]]
			r.spans2 = r.spans2[:0]
			for _, s := range r.spans {
				r.spans2 = c.pruneSpan(p.Iv, s.Start, s.End, r.spans2)
			}
			r.spans, r.spans2 = r.spans2, r.spans
		}
		for _, s := range r.spans {
			r.copySpan(out, s.Start, s.End)
		}
		if out.Len() > 0 {
			return true
		}
	}
	return false
}

// copySpan appends rows [lo,hi) of every selected column to out, read
// through the table's runs: a raw chunk's numbers copy and its strings are
// views of its heap, a compressed chunk decodes its piece of the span.
func (r *Reader) copySpan(out *vector.Batch, lo, hi int) {
	k := locate(r.v.runs, int32(lo))
	for i, ci := range r.cols {
		r.v.read(ci, lo, hi, k, out.Cols[i])
	}
}
