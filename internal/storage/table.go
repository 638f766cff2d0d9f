package storage

import (
	"fmt"
	"math/bits"
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
	zones      []zonemap
	compressed bool
	derived    sync.Map // Derived's memo
	// tip is set on a table Concat built until a Concat claims it: only that
	// one may write the batch into the spare capacity past the table's rows.
	tip atomic.Bool
}

// NewTable builds a table over the given columns, computes widths and
// per-page zonemaps, and validates that all columns have equal length.
// pageSize must be positive; the paper's setup uses 32 KB.
func NewTable(name string, pageSize int64, cols ...*Column) (*Table, error) {
	return newTable(name, pageSize, cols, nil)
}

// newTable is NewTable for columns whose rows sp gathered (nil: none): their
// zonemaps are derived from sp's parent's instead of built from every value
// (see buildZonemap).
func newTable(name string, pageSize int64, cols []*Column, sp *spliced) (*Table, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("storage: table %q: page size %d must be positive", name, pageSize)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("storage: table %q has no columns", name)
	}
	t := &Table{Name: name, Cols: cols, PageSize: pageSize, rows: cols[0].Len()}
	t.byName = make(map[string]int, len(cols))
	for i, c := range cols {
		if err := c.validate(t.rows); err != nil {
			return nil, err
		}
		if _, dup := t.byName[c.Name]; dup {
			return nil, fmt.Errorf("storage: table %q: duplicate column %q", name, c.Name)
		}
		t.byName[c.Name] = i
		c.finish()
	}
	t.zones = make([]zonemap, len(cols))
	for i, c := range cols {
		var par *zonemap
		if sp != nil {
			par = &sp.parent.zones[i]
		}
		t.zones[i] = buildZonemap(c, t.rowsPerPage(c), sp, par)
	}
	return t, nil
}

// Compress builds the lightweight chunk encoding of every column (chunks
// page-aligned at raw width), points the modeled widths at encoded bytes —
// shrinking rows-per-page, page counts and ChargeIO accordingly — and keeps
// the zonemaps: a chunk is a raw-width page, so its bounds are the page's,
// and the rows holding them stay known to the next splice. Zones without
// those rows are built from the chunks. Permute re-encodes in the new row
// order, which is how BDCC clustering improves the ratio; Extract and
// AppendRows keep the chunks of rows left in place. Idempotent; safe to call
// on a table already compressed.
func (t *Table) Compress() { t.compress(nil) }

// compress is Compress for a table whose rows sp gathered (nil: none) from a
// compressed parent: the parent's whole chunks over the rows its leading run
// leaves in place are kept where the encoder allows (see encodeColumn).
func (t *Table) compress(sp *spliced) {
	t.compressed = true
	t.derived.Clear() // whatever was derived from the uncompressed form is stale
	var dict vector.StrDict
	for i, c := range t.Cols {
		c.finish() // chunk granularity is page-aligned at the raw width
		var par *ColumnEncoding
		inPlace := 0
		if sp != nil && len(sp.runs) > 0 && sp.runs[0].src == 0 {
			par, inPlace = sp.parent.Cols[i].Enc, int(sp.runs[0].n)
		}
		c.encode(t.rowsPerPage(c), &dict, par, inPlace)
		if t.zones[i].minAt == nil {
			t.zones[i] = zonemapFromChunks(c)
		}
	}
}

// Compressed reports whether Compress has run on this table.
func (t *Table) Compressed() bool { return t.compressed }

// Encoded returns the compressed form of t over t's own value arrays and
// zones: new columns, one encode, no copy of the rows. t must hold its raw
// values (a table built here, not adopted from frames). Sharing is safe
// because a published table never changes; t itself is left as it was.
func (t *Table) Encoded() *Table {
	out := &Table{Name: t.Name, PageSize: t.PageSize, rows: t.rows, byName: t.byName,
		Cols: make([]*Column, len(t.Cols)), zones: slices.Clone(t.zones)}
	for i, c := range t.Cols {
		out.Cols[i] = &Column{Name: c.Name, Kind: c.Kind, I64: c.I64, F64: c.F64, Str: c.Str}
	}
	out.Compress()
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
	RawChunks    int64
	RLEChunks    int64
	DictChunks   int64
	FORChunks    int64
}

// Add accumulates o into s (for per-scheme totals across tables).
func (s *CompressionStats) Add(o CompressionStats) {
	s.RawBytes += o.RawBytes
	s.EncodedBytes += o.EncodedBytes
	s.RawChunks += o.RawChunks
	s.RLEChunks += o.RLEChunks
	s.DictChunks += o.DictChunks
	s.FORChunks += o.FORChunks
}

// CompressionStats sums the encoded state of every column.
func (t *Table) CompressionStats() CompressionStats {
	var s CompressionStats
	for _, c := range t.Cols {
		if c.Enc == nil {
			continue
		}
		s.RawBytes += c.Enc.RawBytes
		s.EncodedBytes += c.Enc.EncodedBytes
		s.RawChunks += c.Enc.Counts[EncRaw]
		s.RLEChunks += c.Enc.Counts[EncRLE]
		s.DictChunks += c.Enc.Counts[EncDict]
		s.FORChunks += c.Enc.Counts[EncFOR]
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
	rpp := int(float64(t.PageSize) / w)
	if rpp < 1 {
		rpp = 1
	}
	return rpp
}

// Pages returns the number of logical pages of column c in this table.
func (t *Table) Pages(c *Column) int {
	rpp := t.rowsPerPage(c)
	return (t.rows + rpp - 1) / rpp
}

// DensestColumn returns the column with the most pages (the widest). This is
// the column Algorithm 1 sizes groups against.
func (t *Table) DensestColumn() *Column {
	best := t.Cols[0]
	for _, c := range t.Cols[1:] {
		if c.width > best.width {
			best = c
		}
	}
	return best
}

// Permute returns a new table with rows reordered so that row i of the result
// is row perm[i] of t. Zonemaps are rebuilt. len(perm) must equal t.Rows().
func (t *Table) Permute(perm []int32) (*Table, error) {
	if len(perm) != t.rows {
		return nil, fmt.Errorf("storage: permutation of length %d for table %q with %d rows", len(perm), t.Name, t.rows)
	}
	cols := make([]*Column, len(t.Cols))
	for i, c := range t.Cols {
		cols[i] = c.permute(perm)
	}
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
// the runs of a splice of t: the zones are derived from t's (derivePages),
// and when the first range starts at row 0, t's whole chunks under it are
// kept where encodeColumn allows instead of being encoded again.
func (t *Table) Extract(ranges RowRanges) (*Table, error) {
	sp := &spliced{parent: t, aRows: t.rows}
	n := 0
	for _, r := range ranges {
		if r.Start < 0 || r.End > t.rows || r.Start > r.End {
			return nil, fmt.Errorf("storage: range [%d,%d) outside table %q", r.Start, r.End, t.Name)
		}
		if r.Len() > 0 {
			sp.runs = append(sp.runs, run{int32(n), int32(r.Start), int32(r.Len())})
		}
		n += r.Len()
	}
	out, err := sp.build(nil, n)
	if err == nil && t.compressed {
		out.compress(sp)
	}
	return out, err
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
				if p1 > runEnd {
					runEnd = p1
				}
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
