// Package vector provides the typed column-vector and batch representation
// used throughout the engine. Execution is vectorized: operators exchange
// fixed-capacity batches of column vectors rather than single tuples,
// mirroring the batch-at-a-time design of the host system the paper built on.
package vector

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"
)

// BatchSize is the number of tuples operators exchange per call.
const BatchSize = 1024

// Kind enumerates the physical column types of the engine.
//
// Dates are stored as Int64 days since 1970-01-01 (see ParseDate); decimals
// as Int64 values at a decimal scale s, value v standing for v/10^s, the
// scale kept with the column (storage.Column, expr.ColMeta). TPC-H has no
// NULLs, and the engine does not model them.
type Kind uint8

// MaxScale is the largest decimal scale: 10^18 is the largest power of ten
// an int64 holds.
const MaxScale = 18

const (
	// Int64 is a 64-bit signed integer column (also used for dates and
	// decimals).
	Int64 Kind = iota
	// Float64 is a 64-bit IEEE-754 column.
	Float64
	// String is a variable-length UTF-8 column.
	String
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Vector is a typed column of values. Exactly one of the slices matching
// Kind is in use; the others are nil.
type Vector struct {
	Kind Kind
	I64  []int64
	F64  []float64
	Str  []string
}

// NewVector returns an empty vector of kind k with capacity cap.
func NewVector(k Kind, capacity int) *Vector {
	v := &Vector{Kind: k}
	switch k {
	case Int64:
		v.I64 = make([]int64, 0, capacity)
	case Float64:
		v.F64 = make([]float64, 0, capacity)
	case String:
		v.Str = make([]string, 0, capacity)
	}
	return v
}

// Len returns the number of values in the vector.
func (v *Vector) Len() int {
	switch v.Kind {
	case Int64:
		return len(v.I64)
	case Float64:
		return len(v.F64)
	case String:
		return len(v.Str)
	}
	return 0
}

// Reset truncates the vector to length zero, keeping capacity.
func (v *Vector) Reset() {
	v.I64 = v.I64[:0]
	v.F64 = v.F64[:0]
	v.Str = v.Str[:0]
}

// AppendInt64 appends x; the vector must be of kind Int64.
func (v *Vector) AppendInt64(x int64) { v.I64 = append(v.I64, x) }

// AppendFloat64 appends x; the vector must be of kind Float64.
func (v *Vector) AppendFloat64(x float64) { v.F64 = append(v.F64, x) }

// AppendString appends s; the vector must be of kind String.
func (v *Vector) AppendString(s string) { v.Str = append(v.Str, s) }

// AppendFrom appends value i of src (same kind) to v.
func (v *Vector) AppendFrom(src *Vector, i int) {
	switch v.Kind {
	case Int64:
		v.I64 = append(v.I64, src.I64[i])
	case Float64:
		v.F64 = append(v.F64, src.F64[i])
	case String:
		v.Str = append(v.Str, src.Str[i])
	}
}

// reserveDoubling returns dst with room for n more values: out of capacity it
// at least doubles, so an accumulator that grows to table size is copied about
// twice over its life, where append's 1.25× steps on large slices copy it
// about five times.
func reserveDoubling[T any](dst []T, n int) []T {
	if need := len(dst) + n; need > cap(dst) {
		grown := make([]T, len(dst), max(2*cap(dst), need))
		copy(grown, dst)
		dst = grown
	}
	return dst
}

// Reserve makes room for n more values, doubling v's capacity when it runs
// out; the appends that follow then never reallocate.
func (v *Vector) Reserve(n int) {
	switch v.Kind {
	case Int64:
		v.I64 = reserveDoubling(v.I64, n)
	case Float64:
		v.F64 = reserveDoubling(v.F64, n)
	case String:
		v.Str = reserveDoubling(v.Str, n)
	}
}

// AppendVector appends all values of src (same kind) to v, growing by
// Reserve's rule.
func (v *Vector) AppendVector(src *Vector) {
	v.Reserve(src.Len())
	switch v.Kind {
	case Int64:
		v.I64 = append(v.I64, src.I64...)
	case Float64:
		v.F64 = append(v.F64, src.F64...)
	case String:
		v.Str = append(v.Str, src.Str...)
	}
}

// gatherAppend appends src[r] for every r in sel.
func gatherAppend[T any](dst, src []T, sel []int32) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(sel))[:n+len(sel)]
	out := dst[n:]
	for i, r := range sel {
		out[i] = src[r]
	}
	return dst
}

// AppendSelected appends the values of src (same kind) listed in sel to v:
// one type dispatch per call, none per value.
func (v *Vector) AppendSelected(src *Vector, sel []int32) {
	switch v.Kind {
	case Int64:
		v.I64 = gatherAppend(v.I64, src.I64, sel)
	case Float64:
		v.F64 = gatherAppend(v.F64, src.F64, sel)
	case String:
		v.Str = gatherAppend(v.Str, src.Str, sel)
	}
}

// Compact keeps, of v's values from index at on, those at the increasing
// offsets sel lists from at, in place: no offset is below its index in sel.
func (v *Vector) Compact(at int, sel []int32) {
	switch v.Kind {
	case Int64:
		v.I64 = compact(v.I64, at, sel)
	case Float64:
		v.F64 = compact(v.F64, at, sel)
	case String:
		v.Str = compact(v.Str, at, sel)
	}
}

// compact is Compact over one kind's values.
func compact[T any](s []T, at int, sel []int32) []T {
	tail := s[at:]
	for k, o := range sel {
		tail[k] = tail[o]
	}
	return s[:at+len(sel)]
}

// GetString renders value i as a display string (used by result formatting).
func (v *Vector) GetString(i int) string {
	switch v.Kind {
	case Int64:
		return fmt.Sprintf("%d", v.I64[i])
	case Float64:
		return fmt.Sprintf("%.2f", v.F64[i])
	case String:
		return v.Str[i]
	}
	return ""
}

// Compare compares value i of v with value j of o. Both vectors must have the
// same kind. It returns -1, 0 or +1.
func (v *Vector) Compare(i int, o *Vector, j int) int {
	switch v.Kind {
	case Int64:
		return cmp.Compare(v.I64[i], o.I64[j])
	case Float64:
		a, b := v.F64[i], o.F64[j]
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case String:
		return strings.Compare(v.Str[i], o.Str[j])
	}
	return 0
}

// Batch is a set of equal-length column vectors exchanged between operators.
// Group carries the sandwich-operator group identifier of every tuple in the
// batch when the producing scan is a grouped (scatter) scan; it is nil for
// ungrouped streams. All tuples of one batch belong to a single group when
// Group is non-nil (grouped producers cut batches at group boundaries).
type Batch struct {
	Cols []*Vector
	// GroupID is the sandwich group of all tuples in this batch, valid only
	// when Grouped is true.
	GroupID uint64
	Grouped bool
}

// NewBatch returns a batch with one empty vector per kind in kinds.
func NewBatch(kinds []Kind) *Batch {
	b := &Batch{Cols: make([]*Vector, len(kinds))}
	for i, k := range kinds {
		b.Cols[i] = NewVector(k, BatchSize)
	}
	return b
}

// Len returns the number of tuples in the batch.
func (b *Batch) Len() int {
	if len(b.Cols) == 0 {
		return 0
	}
	return b.Cols[0].Len()
}

// Reset truncates all columns, keeping capacity, and clears grouping.
func (b *Batch) Reset() {
	for _, c := range b.Cols {
		c.Reset()
	}
	b.GroupID = 0
	b.Grouped = false
}

// Kinds returns the kind of each column.
func (b *Batch) Kinds() []Kind {
	ks := make([]Kind, len(b.Cols))
	for i, c := range b.Cols {
		ks[i] = c.Kind
	}
	return ks
}

// AppendRow appends row i of src to b. Schemas must match.
func (b *Batch) AppendRow(src *Batch, i int) {
	for c, col := range b.Cols {
		col.AppendFrom(src.Cols[c], i)
	}
}

// AppendBatch appends all rows of src to b column-at-a-time. Schemas must
// match. Group tags are not copied; callers that need them set them
// explicitly.
func (b *Batch) AppendBatch(src *Batch) {
	for c, col := range b.Cols {
		col.AppendVector(src.Cols[c])
	}
}

// Bytes returns the exact footprint of the batch's column data, matching the
// engine's Buffer accounting convention: 8 bytes per scalar value, 16 bytes
// (header) plus payload per string. This is the canonical batch-size measure
// used by exchange buffering and in-flight job accounting.
func (b *Batch) Bytes() int64 {
	var n int64
	for _, c := range b.Cols {
		switch c.Kind {
		case String:
			n += 16 * int64(len(c.Str))
			for _, s := range c.Str {
				n += int64(len(s))
			}
		default:
			n += 8 * int64(c.Len())
		}
	}
	return n
}

// Clone returns a deep copy of the batch, including group tags, detached
// from the producing operator's reuse cycle. This is the canonical
// batch-clone path: parallel feeders clone input batches before handing them
// to workers, because producers reuse their output batch across Next calls.
// The copy is sized to the rows it holds, not to BatchSize: group-pure
// batches are often a handful of rows.
func (b *Batch) Clone() *Batch {
	out := &Batch{Cols: make([]*Vector, len(b.Cols)), GroupID: b.GroupID, Grouped: b.Grouped}
	for i, c := range b.Cols {
		out.Cols[i] = NewVector(c.Kind, c.Len())
		out.Cols[i].AppendVector(c)
	}
	return out
}

// AppendSelected appends the rows of src listed in sel to b, column-at-a-
// time (one type dispatch per column, not per row). Schemas must match.
func (b *Batch) AppendSelected(src *Batch, sel []int32) {
	for c, col := range b.Cols {
		col.AppendSelected(src.Cols[c], sel)
	}
}

// epoch is day zero of the engine's date representation.
var epoch = time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)

// ParseDate converts a YYYY-MM-DD literal to days since 1970-01-01.
// It panics on malformed input; date literals in this codebase are
// compile-time constants of the workload definitions.
func ParseDate(s string) int64 {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		panic(fmt.Sprintf("vector: bad date literal %q: %v", s, err))
	}
	return int64(t.Sub(epoch) / (24 * time.Hour))
}

// FormatDate renders days since 1970-01-01 as YYYY-MM-DD.
func FormatDate(d int64) string {
	return epoch.Add(time.Duration(d) * 24 * time.Hour).Format("2006-01-02")
}

// DateYear returns the calendar year of a day number.
func DateYear(d int64) int64 {
	return int64(epoch.Add(time.Duration(d) * 24 * time.Hour).Year())
}
