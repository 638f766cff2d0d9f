package vector

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestDateRoundTrip(t *testing.T) {
	cases := []string{"1970-01-01", "1992-01-01", "1995-06-17", "1998-08-02", "2000-02-29"}
	for _, s := range cases {
		if got := FormatDate(ParseDate(s)); got != s {
			t.Errorf("round trip %s -> %s", s, got)
		}
	}
	if ParseDate("1970-01-01") != 0 {
		t.Error("epoch should be day 0")
	}
	if ParseDate("1970-01-02") != 1 {
		t.Error("day arithmetic off")
	}
}

func TestDateHelpers(t *testing.T) {
	d := ParseDate("1995-03-15")
	if DateYear(d) != 1995 {
		t.Errorf("year = %d", DateYear(d))
	}
	if makeDate(1995, 3, 15) != d {
		t.Error("makeDate mismatch")
	}
}

func TestVectorAppendAndCompare(t *testing.T) {
	v := NewVector(Int64, 4)
	v.AppendInt64(3)
	v.AppendInt64(1)
	if v.Len() != 2 || v.Compare(0, v, 1) != 1 || v.Compare(1, v, 0) != -1 || v.Compare(0, v, 0) != 0 {
		t.Error("int compare broken")
	}
	s := NewVector(String, 2)
	s.AppendString("a")
	s.AppendString("b")
	if s.Compare(0, s, 1) != -1 {
		t.Error("string compare broken")
	}
	f := NewVector(Float64, 2)
	f.AppendFloat64(1.5)
	f.AppendFrom(f, 0)
	if f.Len() != 2 || f.F64[1] != 1.5 {
		t.Error("AppendFrom broken")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	b := NewBatch([]Kind{Int64, String})
	b.Cols[0].AppendInt64(7)
	b.Cols[1].AppendString("x")
	c := NewBatch(b.Kinds())
	c.AppendRow(b, 0)
	if c.Len() != 1 || c.Cols[0].I64[0] != 7 || c.Cols[1].Str[0] != "x" {
		t.Error("AppendRow broken")
	}
	c.GroupID, c.Grouped = 5, true
	c.Reset()
	if c.Len() != 0 || c.Grouped || c.GroupID != 0 {
		t.Error("Reset must clear rows and group tag")
	}
}

// makeDate builds a day number from a calendar date.
func makeDate(year, month, day int) int64 {
	t := time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC)
	return int64(t.Sub(epoch) / (24 * time.Hour))
}

// TestDateMonotone: parse preserves calendar order.
func TestDateMonotone(t *testing.T) {
	prop := func(a, b uint16) bool {
		d1 := makeDate(1992+int(a%7), 1+int(a%12), 1+int(a%28))
		d2 := makeDate(1992+int(b%7), 1+int(b%12), 1+int(b%28))
		s1, s2 := FormatDate(d1), FormatDate(d2)
		return (d1 < d2) == (s1 < s2) || d1 == d2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	if Int64.String() != "int64" || Float64.String() != "float64" || String.String() != "string" {
		t.Error("kind names")
	}
	if Int64.Width() != 8 || String.Width() != 0 {
		t.Error("widths")
	}
}

// TestBatchAppendBatchAndSelected covers the bulk and gather copies the
// parallel executor and the sandwich lookahead rely on.
func TestBatchAppendBatchAndSelected(t *testing.T) {
	src := NewBatch([]Kind{Int64, Float64, String})
	for i := 0; i < 10; i++ {
		src.Cols[0].AppendInt64(int64(i))
		src.Cols[1].AppendFloat64(float64(i) / 2)
		src.Cols[2].AppendString(fmt.Sprintf("s%d", i))
	}
	dst := NewBatch(src.Kinds())
	dst.AppendBatch(src)
	dst.AppendBatch(src)
	if dst.Len() != 20 {
		t.Fatalf("AppendBatch twice: %d rows, want 20", dst.Len())
	}
	for i := 0; i < 20; i++ {
		if dst.Cols[0].I64[i] != int64(i%10) || dst.Cols[2].Str[i] != fmt.Sprintf("s%d", i%10) {
			t.Fatalf("AppendBatch row %d corrupted", i)
		}
	}
	sel := []int32{9, 0, 3, 3}
	gathered := NewBatch(src.Kinds())
	gathered.AppendSelected(src, sel)
	if gathered.Len() != len(sel) {
		t.Fatalf("AppendSelected: %d rows, want %d", gathered.Len(), len(sel))
	}
	for i, r := range sel {
		if gathered.Cols[0].I64[i] != int64(r) || gathered.Cols[1].F64[i] != float64(r)/2 ||
			gathered.Cols[2].Str[i] != fmt.Sprintf("s%d", r) {
			t.Fatalf("AppendSelected row %d (src %d) corrupted", i, r)
		}
	}
}

// TestBatchBytes checks the canonical footprint measure: 8 bytes per
// scalar, 16 bytes plus payload per string.
func TestBatchBytes(t *testing.T) {
	b := NewBatch([]Kind{Int64, Float64, String})
	if b.Bytes() != 0 {
		t.Fatalf("empty batch reports %d bytes", b.Bytes())
	}
	b.Cols[0].AppendInt64(1)
	b.Cols[1].AppendFloat64(2)
	b.Cols[2].AppendString("abc")
	want := int64(8 + 8 + 16 + 3)
	if got := b.Bytes(); got != want {
		t.Fatalf("Bytes() = %d, want %d", got, want)
	}
}

// TestBatchCloneDetached checks the canonical batch-clone path: the clone
// carries rows and group tags, and mutating the original afterwards (the
// producer reuse cycle) leaves the clone untouched.
func TestBatchCloneDetached(t *testing.T) {
	src := NewBatch([]Kind{Int64, String})
	for i := 0; i < 5; i++ {
		src.Cols[0].AppendInt64(int64(i))
		src.Cols[1].AppendString(fmt.Sprintf("v%d", i))
	}
	src.Grouped = true
	src.GroupID = 42
	c := src.Clone()
	if c.Len() != 5 || !c.Grouped || c.GroupID != 42 {
		t.Fatalf("clone lost rows or tags: len=%d grouped=%v gid=%d", c.Len(), c.Grouped, c.GroupID)
	}
	// Producer reuses src: reset and refill with different data.
	src.Reset()
	src.Cols[0].AppendInt64(999)
	src.Cols[1].AppendString("overwritten")
	if c.Len() != 5 || c.Cols[0].I64[0] != 0 || c.Cols[1].Str[4] != "v4" {
		t.Fatalf("clone shares storage with its source")
	}
	if c.Bytes() == 0 {
		t.Fatal("clone reports zero footprint")
	}
	if got := cap(c.Cols[0].I64) + cap(c.Cols[1].Str); got > 2*5 {
		t.Fatalf("a 5-row clone holds capacity for %d values", got)
	}
}

// TestVectorAppendVectorAndSelected covers the column-level appends the
// engine's buffers and gathers are built from: AppendVector keeps every value
// across its capacity doublings, AppendSelected gathers by row id, and
// AppendSelectedOrZero turns a negative id into the kind's zero value.
func TestVectorAppendVectorAndSelected(t *testing.T) {
	src := NewVector(Int64, 0)
	for i := int64(0); i < 300; i++ {
		src.AppendInt64(i)
	}
	acc := NewVector(Int64, 0)
	for round := 0; round < 20; round++ {
		before := cap(acc.I64)
		acc.AppendVector(src)
		if c := cap(acc.I64); c != before && before > 0 && c < 2*before {
			t.Fatalf("capacity grew %d -> %d, less than doubling", before, c)
		}
	}
	if acc.Len() != 6000 || acc.I64[299] != 299 || acc.I64[5999] != 299 || acc.I64[300] != 0 {
		t.Fatalf("AppendVector lost values: len %d", acc.Len())
	}
	strs := NewVector(String, 0)
	strs.AppendString("a")
	strs.AppendString("b")
	out := NewVector(String, 0)
	out.AppendSelected(strs, []int32{1, 0, 1})
	out.AppendSelectedOrZero(strs, []int32{-1, 0})
	if got := fmt.Sprint(out.Str); got != "[b a b  a]" {
		t.Fatalf("gathered %s", got)
	}
}
