package storage

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"bdcc/internal/iosim"
	"bdcc/internal/vector"
)

// Table is a stored columnar table. Columns are laid out independently in
// logical pages of the table's page size; a column's rows-per-page depends on
// its value width, so narrow columns pack many more rows per page than wide
// ones (this is what makes the widest column the "highest density" column of
// Algorithm 1 — it has the most pages, hence the finest meaningful
// granularity).
type Table struct {
	Name     string
	Cols     []*Column
	PageSize int64

	rows       int
	byName     map[string]int
	zones      []zonemap  // every column's, unless lazy derives them
	lazy       *lazyZones // how zones derive on first use; nil: zones holds them
	view       *view      // the runs a table Splice built holds its rows as; nil: arrays
	compressed bool
	derived    sync.Map // Derived's memo
}

// NewTable builds a table over the given columns, computes widths and
// per-page zonemaps, and validates that all columns have equal length.
// pageSize must be positive; the paper's setup uses 32 KB.
func NewTable(name string, pageSize int64, cols ...*Column) (*Table, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("storage: table %q: page size %d must be positive", name, pageSize)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("storage: table %q has no columns", name)
	}
	t := &Table{Name: name, Cols: cols, PageSize: pageSize, rows: cols[0].Len()}
	t.byName = make(map[string]int, len(cols))
	for i, c := range cols {
		if c.Len() != t.rows {
			return nil, fmt.Errorf("storage: column %q has %d rows, table has %d", c.Name, c.Len(), t.rows)
		}
		if _, dup := t.byName[c.Name]; dup {
			return nil, fmt.Errorf("storage: table %q: duplicate column %q", name, c.Name)
		}
		t.byName[c.Name] = i
		c.finish()
	}
	t.zones = make([]zonemap, len(cols))
	eachColumn(cols, func(i int) { t.zones[i] = t.deriveZonemap(i, nil, nil) })
	return t, nil
}

// dictScratch is the encoder's dictionary scratch, reused across columns and
// tables: it holds no string, so it pins no heap and adds no scanned memory.
var dictScratch = sync.Pool{New: func() any { return new(vector.StrDict) }}

// eachColumn calls fn(i) for every column i of cols on up to GOMAXPROCS
// goroutines, the caller's among them, widest column first (the most work).
// fn may write only column i's state, so the columns come out as a serial
// loop builds them.
func eachColumn(cols []*Column, fn func(i int)) {
	order := make([]int, len(cols))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cols[b].width, cols[a].width) })
	var next atomic.Int64
	work := func() {
		for k := next.Add(1) - 1; k < int64(len(order)); k = next.Add(1) - 1 {
			fn(order[k])
		}
	}
	var wg sync.WaitGroup
	for range min(len(cols), runtime.GOMAXPROCS(0)) - 1 {
		wg.Add(1)
		go func() { defer wg.Done(); work() }()
	}
	work()
	wg.Wait()
}

// Compress builds the lightweight chunk encoding of every column (chunks
// page-aligned at raw width), points the modeled widths at encoded bytes —
// shrinking rows-per-page, page counts and ChargeIO accordingly — and keeps
// the zonemaps: a chunk is a raw-width page, so its bounds are the page's,
// and the rows holding them stay known to the next splice. Zones without
// those rows are built from the chunks. Raw chunks stay windows of the
// column's values; a column whose chunks are all packed no longer holds
// them. Permute re-encodes in the new row order, which is how BDCC
// clustering improves the ratio; Extract and AppendRows keep the chunks of
// rows left in place. Idempotent; safe to call on a table already
// compressed.
func (t *Table) Compress() { t.settleZones(); t.compress(t, nil) }

// compress encodes t's columns, at raw-width pages, from the rows of src — t
// itself, or the table t is the Encoded form of, read through its runs. A
// column that is one raw chunk is encoded from it, any other from src's runs
// (encodeColumn); an Encoded t keeps a string column's offsets (strOffsets).
// t keeps its zones and builds the others from the chunks. keep, when not nil, is the
// view over a compressed root t's rows were gathered from (Extract): the
// root's whole chunks its leading run leaves in place are kept if they can be.
func (t *Table) compress(src *Table, keep *view) {
	if t.view != nil {
		panic("storage: compress of a view: its Encoded form is the compressed table")
	}
	t.compressed = true
	t.derived.Clear() // whatever was derived from the uncompressed form is stale
	rows := src.runsOf()
	eachColumn(t.Cols, func(i int) {
		c, own := t.Cols[i], t.Cols[i].raw()
		var par *ColumnEncoding
		inPlace := 0
		if keep != nil && len(keep.runs) > 0 && keep.runs[0] == (Run{0, 0, keep.runs[0].N, 0}) {
			par, inPlace = keep.srcs[0].Cols[i].Enc, int(keep.runs[0].N)
		}
		if c.width = 8; c.Kind == vector.String {
			c.width = strWidth(rows.strBytes(i, t.rows), t.rows)
		}
		var offs []uint32
		if c.Enc, offs = encodeColumn(c.Kind, own, rows, i, t.rows, t.rowsPerPage(c), par, inPlace); src != t && offs != nil {
			t.derived.Store(offsKey(i), offs)
		}
		c.useEncodedWidth()
		if z := &t.zones[i]; z.minAt == nil {
			*z = zonemapFromChunks(c)
		} else if z.minS != nil { // the chunks' bounds: the same values, not views of the raw heap
			zc := zonemapFromChunks(c)
			z.minS, z.maxS = zc.minS, zc.maxS
		}
	})
}

// Compressed reports whether Compress has run on this table.
func (t *Table) Compressed() bool { return t.compressed }

// Encoded returns the compressed form of t: new columns encoded from t's
// rows, a view's read through its runs rather than gathered (compress), and
// t's zones. Those t derives on first use and has not yet are its chunks',
// and the result derives them on first use too (see Splice). Raw chunks of
// a raw column are windows of t's values, so a table of raw columns is not
// copied. Sharing is safe because a published table never changes; t itself
// is left as it was.
func (t *Table) Encoded() *Table {
	out := &Table{Name: t.Name, PageSize: t.PageSize, rows: t.rows, byName: t.byName, Cols: make([]*Column, len(t.Cols)),
		zones: make([]zonemap, len(t.Cols)), lazy: &lazyZones{memo: make([]atomic.Pointer[zonemap], len(t.Cols))}}
	for i, c := range t.Cols {
		out.Cols[i] = &Column{Name: c.Name, Kind: c.Kind, Scale: c.Scale, Enc: c.Enc}
		if z := t.known(i); z != nil {
			out.zones[i] = *z
			out.lazy.memo[i].Store(&out.zones[i])
		}
	}
	out.compress(t, nil)
	return out
}

// Derived returns the value memoised on this table under key, building it on
// a miss. A published table never changes — an append or a merge publishes a
// new one — so what is computed from its rows (the serialised partitions a
// coordinator ships, say) holds for as long as the table is reachable and is
// collected with it: no invalidation, no registry. Concurrent callers may each
// build; the first to finish is kept and handed to all of them. A nil result
// (a build that failed) is returned but not kept.
func (t *Table) Derived(key any, build func() any) any {
	if v, ok := t.derived.Load(key); ok {
		return v
	}
	v := build()
	if v != nil {
		v, _ = t.derived.LoadOrStore(key, v)
	}
	return v
}

// CompressionStats aggregates the modeled compression outcome of a table.
// Zero-valued when the table is uncompressed.
type CompressionStats struct {
	RawBytes     int64
	EncodedBytes int64
	Chunks       [vector.NumEncodings]int64 // per encoding, indexed by Encoding
}

// Add accumulates o into s (for per-scheme totals across tables).
func (s *CompressionStats) Add(o CompressionStats) {
	s.RawBytes += o.RawBytes
	s.EncodedBytes += o.EncodedBytes
	for e, n := range o.Chunks {
		s.Chunks[e] += n
	}
}

// CompressionStats sums the encoded state of every column.
func (t *Table) CompressionStats() CompressionStats {
	var s CompressionStats
	if !t.compressed {
		return s
	}
	for _, c := range t.Cols {
		s.Add(CompressionStats{c.Enc.RawBytes, c.Enc.EncodedBytes, c.Enc.Counts})
	}
	return s
}

// MustNewTable is NewTable panicking on error, for construction of static
// test and example fixtures.
func MustNewTable(name string, pageSize int64, cols ...*Column) *Table {
	t, err := NewTable(name, pageSize, cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// Rows returns the number of rows in the table.
func (t *Table) Rows() int { return t.rows }

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.byName[name]; ok {
		return i
	}
	return -1
}

// Column returns the named column or an error.
func (t *Table) Column(name string) (*Column, error) {
	i := t.ColumnIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("storage: table %q has no column %q", t.Name, name)
	}
	return t.Cols[i], nil
}

// Scale returns the decimal scale of the named column, 0 for a column t
// lacks.
func (t *Table) Scale(name string) uint8 {
	if i := t.ColumnIndex(name); i >= 0 {
		return t.Cols[i].Scale
	}
	return 0
}

// MustColumn is Column panicking on unknown names.
func (t *Table) MustColumn(name string) *Column {
	c, err := t.Column(name)
	if err != nil {
		panic(err)
	}
	return c
}

// rowsPerPage returns how many values of column c fit in one page.
func (t *Table) rowsPerPage(c *Column) int {
	w := c.width
	if w <= 0 {
		w = 1
	}
	return max(int(float64(t.PageSize)/w), 1)
}

// Pages returns the number of logical pages of column c in this table.
func (t *Table) Pages(c *Column) int {
	rpp := t.rowsPerPage(c)
	return (t.rows + rpp - 1) / rpp
}

// DensestColumn returns the column with the most pages (the widest).
func (t *Table) DensestColumn() *Column {
	best := t.Cols[0]
	for _, c := range t.Cols[1:] {
		if c.width > best.width {
			best = c
		}
	}
	return best
}

// Permute returns the table whose row i is row perm[i] of t, perm being a
// permutation of t's rows. The identity (a sorted perm) copies nothing: it
// returns t, or a view's Materialized form. Any other builds a new table,
// re-encoded in its row order when t is compressed.
func (t *Table) Permute(perm []int32) (*Table, error) {
	if len(perm) != t.rows {
		return nil, fmt.Errorf("storage: permutation of length %d for table %q with %d rows", len(perm), t.Name, t.rows)
	}
	t = t.Materialized()
	if slices.IsSorted(perm) {
		return t, nil
	}
	cols := make([]*Column, len(t.Cols))
	eachColumn(t.Cols, func(i int) { cols[i] = t.Cols[i].permute(perm) })
	out, err := NewTable(t.Name, t.PageSize, cols...)
	if err == nil && t.compressed {
		out.Compress()
	}
	return out, err
}

// AppendRows returns a new table consisting of t followed by the given row
// ranges of t copied once more at the end. This implements the paper's
// small-group relocation: "the low percentage of data in very small groups
// ... is copied and appended once more to table T". It is Extract, so its
// zones are derived from t's and, when t is compressed, t's whole chunks are
// kept where the encoder allows: what is encoded is the relocated tail and
// the chunk t's last partial one becomes.
func (t *Table) AppendRows(ranges RowRanges) (*Table, error) {
	return t.Extract(append(RowRanges{{0, t.rows}}, ranges...))
}

// Extract returns a new table holding the given row ranges of t, in the order
// given (ranges may repeat or overlap), compressed when t is. The ranges are
// the runs of a view over t, gathered: the zones are derived from t's
// (derivePages), and when the first range starts at row 0, t's whole chunks
// under it are kept where encodeColumn allows instead of being encoded again.
func (t *Table) Extract(ranges RowRanges) (*Table, error) {
	t = t.Materialized()
	v := &view{srcs: []*Table{t}}
	n := 0
	for _, r := range ranges {
		if r.Start < 0 || r.End > t.rows || r.Start > r.End {
			return nil, fmt.Errorf("storage: range [%d,%d) outside table %q", r.Start, r.End, t.Name)
		}
		v.runs = AppendRun(v.runs, 0, int32(r.Start), int32(r.Len()))
		n += r.Len()
	}
	vt := v.table(t, n, v.runs)
	out := v.gather(vt, vt.lazy)
	if out.settleZones(); t.compressed {
		out.compress(out, v)
	}
	return out, nil
}

// SortPerm returns the permutation that sorts rows by the given uint64 keys
// ascending (keys[i] is the key of row i), equal keys in row order. It is an
// LSD radix sort over the keys' significant bits in 11-bit digits: each pass
// is a stable counting sort, so the result is stable by construction, and a
// pass is O(n) — six at most for the 62-bit _bdcc_ key budget.
func SortPerm(keys []uint64) []int32 {
	const digitBits = 11
	const radix = 1 << digitBits
	perm := make([]int32, len(keys))
	for i := range perm {
		perm[i] = int32(i)
	}
	var or uint64
	for _, k := range keys {
		or |= k
	}
	// One scan counts the digits of every pass: a pass's histogram does not
	// depend on the order the previous passes left.
	counts := make([][radix]int32, (bits.Len64(or)+digitBits-1)/digitBits)
	for _, k := range keys {
		for p := range counts {
			counts[p][k>>(p*digitBits)&(radix-1)]++
		}
	}
	tmp := make([]int32, len(keys))
	for p := range counts {
		shift := p * digitBits
		c := &counts[p]
		var at int32
		for d, m := range c {
			c[d], at = at, at+m
		}
		for _, i := range perm {
			d := keys[i] >> shift & (radix - 1)
			tmp[c[d]] = i
			c[d]++
		}
		perm, tmp = tmp, perm
	}
	return perm
}

// forEachRun calls fn once per maximal page run of reading the given row
// ranges of columns cols: page accesses are coalesced per column, so adjacent
// page intervals form a single run.
func (t *Table) forEachRun(cols []int, ranges RowRanges, fn func(pages, bytes int64)) {
	if len(ranges) == 0 {
		return
	}
	for _, ci := range cols {
		c := t.Cols[ci]
		rpp := t.rowsPerPage(c)
		runStart, runEnd := -1, -1
		flush := func() {
			if runStart < 0 {
				return
			}
			pages := int64(runEnd - runStart + 1)
			fn(pages, pages*t.PageSize)
			runStart, runEnd = -1, -1
		}
		for _, r := range ranges {
			p0 := r.Start / rpp
			p1 := (r.End - 1) / rpp
			if runStart >= 0 && p0 <= runEnd+1 {
				runEnd = max(runEnd, p1)
				continue
			}
			flush()
			runStart, runEnd = p0, p1
		}
		flush()
	}
}

// ReadStats returns the coalesced run/page/byte totals of reading the given
// row ranges of columns cols, without charging anything. Parallel scans use
// it to size asynchronous read submissions (iosim Submit/Wait).
func (t *Table) ReadStats(cols []int, ranges RowRanges) (runs, pages, bytes int64) {
	t.forEachRun(cols, ranges, func(p, b int64) {
		runs++
		pages += p
		bytes += b
	})
	return runs, pages, bytes
}

// ChargeIO records with acct the device activity of reading the given row
// ranges of columns cols, coalescing page accesses per column into maximal
// runs. It returns the total bytes charged. A nil accountant is a no-op.
func (t *Table) ChargeIO(acct *iosim.Accountant, cols []int, ranges RowRanges) int64 {
	var total int64
	t.forEachRun(cols, ranges, func(pages, bytes int64) {
		total += bytes
		if acct != nil {
			acct.AddRun(pages, bytes)
		}
	})
	return total
}
