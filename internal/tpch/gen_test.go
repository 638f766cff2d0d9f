package tpch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"testing"

	"bdcc/internal/core"
	"bdcc/internal/plan"

	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// hashTable folds a table's name, schema and every value, in row order, into
// h: numbers as 8 little-endian bytes (floats by bit pattern), strings as a
// length and their bytes. It reads through storage.Reader, so the digest does
// not depend on how a column holds its values.
func hashTable(h hash.Hash, t *storage.Table) {
	var buf [8]byte
	putU64 := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	h.Write([]byte(t.Name))
	cols := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		cols[i] = i
		h.Write([]byte(c.Name))
		h.Write([]byte{byte(c.Kind)})
	}
	putU64(uint64(t.Rows()))
	r := storage.NewReader(t, cols, nil, nil)
	b := vector.NewBatch(r.Kinds())
	for r.Next(b) {
		for _, v := range b.Cols {
			for i := range v.Len() {
				switch v.Kind {
				case vector.Int64:
					putU64(uint64(v.I64[i]))
				case vector.Float64:
					putU64(math.Float64bits(v.F64[i]))
				case vector.String:
					putU64(uint64(len(v.Str[i])))
					h.Write([]byte(v.Str[i]))
				}
			}
		}
	}
}

// TestGeneratePinned holds the generator to the data it produced before its
// string columns became heaps: a SHA-256 over every table of Generate(0.01),
// and one over the first five 30-order batches of NewDeltaGen(d, 1).
func TestGeneratePinned(t *testing.T) {
	const (
		wantBase  = "4e9982efbb5692367432237628fdbef3368b00795df43b50d19c07739b576360"
		wantDelta = "b7d90a8c8c789ee1aaf4b67803ec38d0ea452c617ef03bdfdbc02dda11522f03"
	)
	d := Generate(0.01)
	h := sha256.New()
	names := make([]string, 0, len(d.Tables))
	for n := range d.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		hashTable(h, d.Tables[n])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantBase {
		t.Errorf("Generate(0.01) digest %s, want %s", got, wantBase)
	}
	h.Reset()
	g := NewDeltaGen(d, 1)
	for range 5 {
		b := g.Next(30)
		hashTable(h, b.Orders)
		hashTable(h, b.Lineitem)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantDelta {
		t.Errorf("NewDeltaGen(d, 1).Next(30) ×5 digest %s, want %s", got, wantDelta)
	}
}

// BenchmarkGenerate times one SF 0.05 dataset: the load's generation share.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		Generate(0.05)
	}
}

// scannedHeap returns the heap bytes the collector scans, after a full
// collection: what each GC cycle marks through.
func scannedHeap() int64 { return afterGC("/gc/scan/heap:bytes") }

// afterGC returns the value of a runtime metric in bytes after a collection.
func afterGC(metric string) int64 {
	runtime.GC()
	s := []metrics.Sample{{Name: metric}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// TestLoadedBaseIsNotScanned holds a loaded, compressed BDCC benchmark to a
// few MB of scannable heap: string columns are byte heaps and offsets, which
// hold no pointers, so a collection does not walk the stored values.
func TestLoadedBaseIsNotScanned(t *testing.T) {
	before := scannedHeap()
	b, err := NewBenchmarkCompressed(0.01, true, plan.BDCC)
	if err != nil {
		t.Fatal(err)
	}
	grew := scannedHeap() - before
	runtime.KeepAlive(b)
	t.Logf("loaded base adds %.1f MB of scannable heap", float64(grew)/(1<<20))
	if grew > 4<<20 {
		t.Errorf("loaded base adds %d bytes of scannable heap, want at most 4 MB", grew)
	}
}

// TestLoadedBaseHoldsItsChunksOnce holds a loaded, compressed SF 0.01
// benchmark under all three schemes to 24 MiB of live heap (19.4–21.2). A
// stored column is its chunks: raw chunks are windows of its values, and a
// column whose chunks are all packed keeps no array of them beside its
// chunks, nor a view of the heap its strings were encoded from. Holding both
// took 46.7 MiB. A table is held once for every scheme whose layout it is:
// the generator emits every table but partsupp in primary-key order, so PK's
// sort moves no row of those seven and PK holds Plain's very tables
// (storage.Table.Permute of the identity); partsupp is PK's own. PK's copies
// of the seven, equal to Plain's byte for byte, took 28.7–28.9 MiB.
func TestLoadedBaseHoldsItsChunksOnce(t *testing.T) {
	before := afterGC("/gc/heap/live:bytes")
	b, err := NewBenchmarkCompressed(0.01, true)
	if err != nil {
		t.Fatal(err)
	}
	grew := afterGC("/gc/heap/live:bytes") - before
	runtime.KeepAlive(b)
	t.Logf("loaded base adds %.1f MiB of live heap", float64(grew)/(1<<20))
	if grew > 24<<20 {
		t.Errorf("loaded base adds %d bytes of live heap, want at most 24 MiB", grew)
	}
	plain, pk := b.DBs[plan.Plain].Tables, b.DBs[plan.PK].Tables
	if len(pk) != 8 || len(plain) != 8 {
		t.Fatalf("PK holds %d tables and Plain %d, want 8 each", len(pk), len(plain))
	}
	for name, tab := range plain {
		if shared := pk[name] == tab; shared != (name != "partsupp") {
			t.Errorf("%s: PK shares Plain's table = %v", name, shared)
		}
	}
	if ps := pk["partsupp"]; !ps.Compressed() || ps.Rows() != plain["partsupp"].Rows() {
		t.Errorf("PK's partsupp: compressed %v with %d rows, want compressed with Plain's %d", ps.Compressed(), ps.Rows(), plain["partsupp"].Rows())
	}
}

// TestIngestHeapHeld holds what an ingesting database keeps. A BDCC-only
// compressed SF 0.01 benchmark, after eight appends of 30 orders and a
// merge, holds at most 1.15 times the live heap it held loaded (19.8 against
// 18.6 MiB, 1.06×). A designed table is held as its clustering alone, and the
// merge lets the loaded clustering go; insertion-order views of the designed
// tables beside their clusterings, and the DB's own pin on the loaded
// version, held 46.0 MiB (2.45×). Plain-only and PK-only benchmarks hold at
// most 1.4 times their loaded heap after the eight appends, before the merge:
// their appended versions are runs over the loaded tables (Plain 8.5 MiB
// loaded, 1.21×; PK 9.5 MiB, 1.19×, since it shares the seven tables the
// generator emits in key order with the loaded data and copies only
// partsupp — 16.7 MiB and 1.11× while it re-encoded all eight). A raw copy
// of each appended table, with room to grow, held 2.99× under Plain, and
// PK's insertion-order copy beside its re-sorted one 2.72×. They are not
// bounded after the merge, because Benchmark.Data still pins the loaded
// tables that the merge replaces.
func TestIngestHeapHeld(t *testing.T) {
	live := func() int64 { // after a second collection, which drops pooled scratch
		afterGC("/gc/heap/live:bytes")
		return afterGC("/gc/heap/live:bytes")
	}
	for _, c := range []struct {
		scheme   plan.Scheme
		appended float64 // bound after the appends, before the merge; 0: none
		merged   float64 // bound after the merge; 0: none
	}{{plan.BDCC, 0, 1.15}, {plan.Plain, 1.4, 0}, {plan.PK, 1.4, 0}} {
		before := live()
		b, err := NewBenchmarkCompressed(0.01, true, c.scheme)
		if err != nil {
			t.Fatal(err)
		}
		loaded := live() - before
		if err := b.EnableIngest(0, 0); err != nil {
			t.Fatal(err)
		}
		g := NewDeltaGen(b.Data, 1)
		for range 8 {
			if err := b.AppendBatch(g.Next(30)); err != nil {
				t.Fatal(err)
			}
		}
		check := func(when string, bound float64) {
			held := live() - before
			ratio := float64(held) / float64(loaded)
			t.Logf("%s: loaded %.1f MiB of live heap, %.1f MiB after %s (%.2f×)",
				c.scheme, float64(loaded)/(1<<20), float64(held)/(1<<20), when, ratio)
			if bound > 0 && ratio > bound {
				t.Errorf("%s: after %s the database holds %d bytes of live heap, more than %.2f× the %d it held loaded", c.scheme, when, held, bound, loaded)
			}
		}
		check("8 appends", c.appended)
		if err := b.MergeAll(); err != nil {
			t.Fatal(err)
		}
		check("8 appends and a merge", c.merged)
		runtime.KeepAlive(b)
	}
}

// TestFirstAppendCostsItsBatch holds the first append after loading a
// compressed SF 0.01 database — 30 orders and their lineitems — to 3 MB of
// allocation under every scheme. Under BDCC it used to build the
// insertion-order views of the designed tables, decoding their compressed
// bases (24.95 MB), and to read every string column of the compressed
// clustered roots into a new heap to keep its offsets (6.55 MB without the
// views). Plain's first append decoded its compressed base into arrays with
// room to grow (18.4 MB), and PK's also re-sorted that copy (55.8 MB).
func TestFirstAppendCostsItsBatch(t *testing.T) {
	for _, scheme := range []plan.Scheme{plan.BDCC, plan.Plain, plan.PK} {
		b, err := NewBenchmarkCompressed(0.01, true, scheme)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.EnableIngest(0, 0); err != nil {
			t.Fatal(err)
		}
		batch := NewDeltaGen(b.Data, 1).Next(30)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := b.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: the first append allocates %.2f MB", scheme, float64(alloc)/1e6)
		if alloc > 3e6 {
			t.Errorf("%s: the first append allocates %d bytes, want at most 3 MB", scheme, alloc)
		}
	}
}

// hashStored folds into h what a stored table is: hashTable's rows, the
// column frames (every chunk, dictionary and bound), each column's page
// count and its values as Column.AppendRange reads them (none on a view's
// columns) and, when bt is the table's clustering, the count table, the
// granularities and the sorted keys.
func hashStored(h hash.Hash, t *storage.Table, bt *core.BDCCTable) {
	var buf [8]byte
	putU64 := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	hashTable(h, t)
	for _, f := range t.Frames(64 << 10) {
		putU64(uint64(len(f)))
		h.Write(f)
	}
	for _, c := range t.Cols {
		putU64(uint64(t.Pages(c)))
		vals := c.Values()
		putU64(uint64(vals.Len()))
		for _, v := range vals.I64 {
			putU64(uint64(v))
		}
		for _, v := range vals.F64 {
			putU64(math.Float64bits(v))
		}
		for _, s := range vals.Str {
			putU64(uint64(len(s)))
			h.Write([]byte(s))
		}
	}
	if bt == nil {
		return
	}
	putU64(uint64(bt.Bits))
	putU64(uint64(bt.FullBits))
	putU64(uint64(bt.RelocatedRows))
	putU64(uint64(len(bt.Count)))
	for _, e := range bt.Count {
		rel := uint64(0)
		if e.Relocated {
			rel = 1
		}
		putU64(e.Key)
		putU64(uint64(e.Count))
		putU64(uint64(e.Offset))
		putU64(rel)
	}
	putU64(uint64(len(bt.SortedKeys)))
	for _, k := range bt.SortedKeys {
		putU64(k)
	}
}

// dbDigest is the SHA-256 of every table db stores, in name order.
func dbDigest(t *testing.T, db *plan.DB) string {
	names := make([]string, 0, len(db.Tables))
	for n := range db.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		st, err := db.StoredTable(n)
		if err != nil {
			t.Fatal(err)
		}
		var bt *core.BDCCTable
		if db.Clustered != nil {
			bt = db.Clustered.Tables[n]
		}
		hashStored(h, st, bt)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildPinned holds what a build produces to what the one-column-at-a-
// time build produced: a SHA-256 over every table NewBenchmarkCompressed(0.01,
// true) stores under each scheme, and one over the BDCC database after eight
// appends of 30 orders (NewDeltaGen(d, 1)) and a merge. The constants were
// computed with the serial build, before storage spread a table's columns
// over goroutines; a table must not depend on how its columns were scheduled.
func TestBuildPinned(t *testing.T) {
	want := map[plan.Scheme]string{
		plan.Plain: "edd1eb586184f21c63c13dc1d67b870e8e9caf79151cbcc569bc6fa324c7e350",
		plan.PK:    "f429cb0f9e43119501f4144c8c4b0263b3a663d53c1c14fcf37c6633bcf42e4b",
		plan.BDCC:  "5d8ba7a2dd3f803c23cdd0cdf7abf0ee25e919c2612473d135705480389a1ea9",
	}
	const wantIngest = "8125b0e5391f831f7b811d63bb893d3b18f10cd039a16873afaf71a760dd277c"
	b, err := NewBenchmarkCompressed(0.01, true)
	if err != nil {
		t.Fatal(err)
	}
	for s, w := range want {
		if got := dbDigest(t, b.DBs[s]); got != w {
			t.Errorf("%s build digest %s, want %s", s, got, w)
		}
	}
	db := b.DBs[plan.BDCC]
	ing, err := db.EnableIngest(0)
	if err != nil {
		t.Fatal(err)
	}
	g := NewDeltaGen(b.Data, 1)
	for range 8 {
		if err := appendTo(db, g.Next(30)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Merge(); err != nil {
		t.Fatal(err)
	}
	if got := dbDigest(t, db.Snapshot()); got != wantIngest {
		t.Errorf("BDCC digest after 8 appends and a merge %s, want %s", got, wantIngest)
	}
}
