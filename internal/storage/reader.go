package storage

import (
	"slices"
	"sort"

	"bdcc/internal/iosim"
	"bdcc/internal/vector"
)

// PushPred is a predicate interval pushed into the reader. Col indexes the
// reader's cols slice (not the table's columns). Pruning is conservative, so
// scans still re-apply the full predicate on the output.
type PushPred struct {
	Col int
	Iv  Interval
}

// Reader iterates the given row ranges of selected columns, producing
// batches. Device I/O for the covered pages is charged to the accountant
// once, at construction, with page runs coalesced across the range set —
// matching a scan that issues all its reads up front. A compressed column
// decodes only the rows a batch takes, straight into the batch
// (Chunk.AppendRange): a reader over one group of a scatter scan unpacks that
// group's rows, not the whole chunks they sit in.
//
// Batches are cut by the ranges alone: each range is read in BatchSize-row
// windows from its start, and one window is at most one batch. Pushed
// predicates only select rows inside a window (a window left empty is
// skipped), so once the scan's filter has run the batch sequence is the same
// with or without pushdown, on any encoding of the same rows, and wherever a
// reader over a window-aligned slice of the ranges starts.
type Reader struct {
	t   *Table
	v   *view // t's runs: a view's own, or one over t held in one
	one struct {
		v    view
		srcs [1]*Table
		runs [1]Run
	}
	cols   []int
	ranges RowRanges
	push   []pushed
	ri     int // current range index
	pos    int // next row within current range
}

// pushed is a PushPred resolved once per reader against its column's
// encoding, a string interval also as the range of dictionary codes it spans.
type pushed struct {
	e     *ColumnEncoding
	kind  vector.Kind
	iv    Interval
	codes [2]uint64 // the codes c with c-codes[0] < codes[1] lie inside iv
}

// NewReader returns a reader over the row ranges (nil means the full table)
// of the named column positions. acct may be nil.
func NewReader(t *Table, cols []int, ranges RowRanges, acct *iosim.Accountant) *Reader {
	return NewReaderPush(t, cols, ranges, acct, nil)
}

// NewReaderPush is NewReader with predicate intervals pushed into the scan.
// A window's rows are selected on the encoded form before any decode
// (pushed.keep); a column of a view (Splice), a Float64 column and one with
// no RLE or dictionary chunk select nothing. Pushdown refines which rows are
// materialized but not what is charged: the covered pages were already
// selected by zonemap pruning, so the saving is decode and filter work, not
// modeled I/O.
func NewReaderPush(t *Table, cols []int, ranges RowRanges, acct *iosim.Accountant, push []PushPred) *Reader {
	if ranges == nil {
		ranges = FullRange(t.Rows())
	}
	t.ChargeIO(acct, cols, ranges)
	r := &Reader{t: t, v: t.view, cols: cols, ranges: ranges}
	if r.v == nil { // t as one run over itself, as runsOf would build it, without its three allocations
		r.one.srcs[0], r.one.runs[0] = t, Run{0, 0, int32(t.rows), 0}
		r.one.v.srcs, r.one.v.runs, r.v = r.one.srcs[:], r.one.runs[:], &r.one.v
	}
	if len(ranges) > 0 {
		r.pos = ranges[0].Start
	}
	for _, p := range push {
		c := t.Cols[cols[p.Col]]
		if c.Enc == nil || c.Kind == vector.Float64 || c.Enc.Counts[EncRLE]+c.Enc.Counts[EncDict] == 0 {
			continue
		}
		d := c.Enc.Dict // sorted, so the codes inside the interval are consecutive
		from := sort.Search(len(d), func(k int) bool { return !p.Iv.Lo.Set || d[k] >= p.Iv.Lo.S })
		to := sort.Search(len(d), func(k int) bool { return p.Iv.Hi.Set && d[k] > p.Iv.Hi.S })
		r.push = append(r.push, pushed{c.Enc, c.Kind, p.Iv, [2]uint64{uint64(from), uint64(max(to-from, 0))}})
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
		if len(r.push) == 0 {
			r.copySpan(out, lo, hi)
		} else {
			r.copySelected(out, lo, hi)
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

// copySelected appends to out the rows of window [lo,hi) that the pushed
// predicates select. Survivors that are one span decode as copySpan's;
// otherwise each column decodes the span that covers them, at most a window,
// and keeps them in place (Vector.Compact): one decode call per column, where
// one per surviving span costs a chunk lookup and a call chain per span, and
// spans shrink towards a row as a selection fragments.
func (r *Reader) copySelected(out *vector.Batch, lo, hi int) {
	var buf [vector.BatchSize]int32
	sel := window[:hi-lo]
	for i := range r.push {
		if sel = r.push[i].keep(lo, sel, buf[:]); len(sel) == 0 {
			return
		}
	}
	first, n := sel[0], len(sel)
	if int(sel[n-1]-first) == n-1 {
		r.copySpan(out, lo+int(first), lo+int(first)+n)
		return
	}
	for k := range sel {
		sel[k] -= first
	}
	lo += int(first)
	hi, at, k := lo+int(sel[n-1])+1, out.Len(), locate(r.v.runs, int32(lo))
	for i, ci := range r.cols {
		r.v.read(ci, lo, hi, k, out.Cols[i])
		out.Cols[i].Compact(at, sel)
	}
}

// window lists every offset of a window: the selection before any predicate.
var window = func() (o [vector.BatchSize]int32) {
	for i := range o {
		o[i] = int32(i)
	}
	return o
}()

// keep writes to dst, in order, the offsets in sel (from row lo, of a
// window's rows the predicates before p left) whose value in p's column can
// lie in p's interval, and returns them: an RLE run is tested once, a
// dictionary code against the interval's code range, and a row of any other
// chunk is kept. dst may be sel, which is then narrowed in place.
func (p *pushed) keep(lo int, sel, dst []int32) []int32 {
	e, n := p.e, 0
	for i := 0; i < len(sel); {
		ch := &e.Chunks[e.chunkIndex(lo+int(sel[i]))]
		at := int32(ch.Start - lo) // the offset of ch's first row
		j := below(sel, i, at+int32(ch.Rows))
		switch ch.Enc {
		case EncRLE:
			for run := 0; i < j; run++ {
				at += ch.RunN[run]
				k := below(sel, i, at)
				if k > i && (p.kind == vector.Int64 && p.iv.overlapsI64(ch.RunI[run], ch.RunI[run]) ||
					p.kind == vector.String && p.iv.overlapsStr(ch.RunS[run], ch.RunS[run])) {
					n += copy(dst[n:], sel[i:k])
				}
				i = k
			}
		case EncDict:
			var blk [256]uint64
			for i < j {
				base := sel[i]
				codes := blk[:min(len(blk), int(sel[j-1]-base)+1)]
				vector.BitUnpack(codes, ch.Packed, lo+int(base)-ch.Start, ch.BitW, 0)
				for ; i < j && int(sel[i]-base) < len(codes); i++ {
					if dst[n] = sel[i]; codes[sel[i]-base]-p.codes[0] < p.codes[1] {
						n++
					}
				}
			}
		default:
			n += copy(dst[n:], sel[i:j])
			i = j
		}
	}
	return dst[:n]
}

// below returns the index of the first offset of sel from i on that is not
// below end. Offsets increase, so at most end-sel[i] of them are.
func below(sel []int32, i int, end int32) int {
	k, _ := slices.BinarySearch(sel[i:min(len(sel), i+max(int(end-sel[i]), 0))], end)
	return i + k
}
