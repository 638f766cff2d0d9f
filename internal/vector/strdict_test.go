package vector

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// FuzzStrDict holds StrDict to a map[string]uint32 reference: the input is
// columns separated by '|', each values separated by ',', numbered one after
// another by the same StrDict so that its table is reused. lim picks the
// limit: 0 (none), 1, a small one, or one above the column's row count.
func FuzzStrDict(f *testing.F) {
	f.Add([]byte("a,b,a,,ab,abc,ab|x,x,x,|,,"), uint8(0))
	f.Add([]byte("a,b,a,,ab,abc,ab|x,x,x,|,,"), uint8(1))
	f.Add([]byte("prefix1,prefix2,prefix1,prefix,pre,prefix2|p,pr,pre"), uint8(2))
	f.Add([]byte("c,b,a,c,b,a,d|d,d,e"), uint8(3))
	var many []string // enough distinct values to grow the table twice
	for i := range 300 {
		many = append(many, fmt.Sprintf("v%03d", i*7%300), fmt.Sprintf("v%03d", i%11))
	}
	for lim := range uint8(4) {
		f.Add([]byte(strings.Join(many, ",")+"|"+strings.Join(many[:40], ",")), lim)
	}
	f.Fuzz(func(t *testing.T, data []byte, lim uint8) {
		var d StrDict
		for _, col := range strings.Split(string(data), "|") {
			vals := strings.Split(col, ",")
			limit := [4]int{0, 1, 2 + int(lim>>2)%5, len(vals) + 1}[lim%4]
			checkStrDict(t, &d, vals, limit)
		}
	})
}

// checkStrDict runs d.Collect over vals and compares every result with a map
// reference: the ids, the count and byte sum, the give-up point, and Sort.
func checkStrDict(t *testing.T, d *StrDict, vals []string, limit int) {
	t.Helper()
	ref := map[string]uint32{}
	var refIDs []uint32
	refBytes, refOK := 0, true
	for _, s := range vals {
		id, seen := ref[s]
		if !seen {
			if limit > 0 && len(ref) == limit {
				refOK = false
				break
			}
			id = uint32(len(ref))
			ref[s] = id
			refBytes += len(s)
		}
		refIDs = append(refIDs, id)
	}
	h := HeapOf(vals)
	ok := d.Collect(h, limit)
	if ok != refOK {
		t.Fatalf("%q limit %d: Collect %v, reference %v", vals, limit, ok, refOK)
	}
	if d.Len() != len(ref) || d.Bytes != refBytes {
		t.Fatalf("%q limit %d: Len %d Bytes %d, reference %d and %d", vals, limit, d.Len(), d.Bytes, len(ref), refBytes)
	}
	if got := d.IDs[:len(refIDs)]; !slices.Equal(got, refIDs) {
		t.Fatalf("%q limit %d: IDs %v, reference %v", vals, limit, got, refIDs)
	}
	if !ok {
		return
	}
	if len(d.IDs) != len(vals) {
		t.Fatalf("%q: %d IDs for %d rows", vals, len(d.IDs), len(vals))
	}
	want := make([]string, 0, len(ref))
	for s := range ref {
		want = append(want, s)
	}
	slices.Sort(want)
	byID := make([]string, len(ref))
	for s, id := range ref {
		byID[id] = s
	}
	sorted := d.Sort(len(byID), func(id uint32) string { return byID[id] })
	if !slices.Equal(sorted, want) {
		t.Fatalf("%q: Sort %q, want %q", vals, sorted, want)
	}
	for i, s := range vals {
		if c := d.IDs[i]; int(c) >= len(sorted) || sorted[c] != s {
			t.Fatalf("%q: row %d (%q) renumbered %d", vals, i, s, c)
		}
	}
}
