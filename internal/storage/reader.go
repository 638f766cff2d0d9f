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
type Reader struct {
	t      *Table
	cols   []int
	ranges RowRanges
	push   []PushPred
	spans  []RowRange // pushdown scratch, ping-ponged per predicate
	spans2 []RowRange
	ri     int // current range index
	pos    int // next row within current range
	limit  int // rows per emitted batch
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
	r := &Reader{t: t, cols: cols, ranges: ranges, push: push, limit: vector.BatchSize}
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

// Next fills out with up to BatchSize rows and reports whether any rows were
// produced. Batches never span a range boundary, so callers that align range
// boundaries with group boundaries (scatter scans) get group-pure batches.
func (r *Reader) Next(out *vector.Batch) bool {
	out.Reset()
	for r.ri < len(r.ranges) {
		rr := r.ranges[r.ri]
		if r.pos >= rr.End {
			r.ri++
			if r.ri < len(r.ranges) {
				r.pos = r.ranges[r.ri].Start
			}
			if out.Len() > 0 {
				return true
			}
			continue
		}
		n := rr.End - r.pos
		if n > r.limit-out.Len() {
			n = r.limit - out.Len()
		}
		lo, hi := r.pos, r.pos+n
		r.pos = hi
		if len(r.push) == 0 {
			r.copySpan(out, lo, hi)
		} else {
			// Refine [lo,hi) through each pushed predicate on the encoded
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
		}
		if out.Len() == r.limit {
			return true
		}
		// Stop at the range boundary to keep batches range-pure. A pushed
		// predicate can leave the batch empty here; continue to the next
		// range rather than ending the scan early.
		if r.pos >= rr.End {
			r.ri++
			if r.ri < len(r.ranges) {
				r.pos = r.ranges[r.ri].Start
			}
			if out.Len() > 0 {
				return true
			}
		}
	}
	return out.Len() > 0
}

// copySpan appends rows [lo,hi) of every selected column to out: an
// uncompressed column is one raw chunk over its arrays, so its numbers copy
// and its strings are views of its heap; compressed ones decode each chunk's
// piece of the span into out.
func (r *Reader) copySpan(out *vector.Batch, lo, hi int) {
	for i, ci := range r.cols {
		c := r.t.Cols[ci]
		dst := out.Cols[i]
		if c.Enc == nil {
			raw := vector.Chunk{ValI: c.I64, ValF: c.F64, ValS: c.Str}
			raw.AppendRange(nil, lo, hi, dst)
			continue
		}
		for p := lo; p < hi; {
			ch := &c.Enc.Chunks[c.Enc.chunkIndex(p)]
			end := min(hi, ch.Start+ch.Rows)
			ch.AppendRange(c.Enc.Dict, p-ch.Start, end-ch.Start, dst)
			p = end
		}
	}
}
