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
func scannedHeap() int64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
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
