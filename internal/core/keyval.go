// Package core implements the paper's contribution: Bitwise Dimensional
// Co-Clustering (BDCC). It provides
//
//   - BDCC dimensions (Definition 1): order-respecting surjective mappings
//     from a dimension key's value domain onto bin numbers, created with the
//     frequency-balanced binning of the companion tech report "Creating
//     Dimensions for BDCC" (binning.go);
//   - dimension paths (Definition 2) and dimension uses with bitmasks
//     (Definition 3), including round-robin (Z-order) and major-minor bit
//     interleaving (zorder.go);
//   - BDCC tables and their count tables (Definition 4), built by the
//     self-tuning Algorithm 1 with log₂ group-size histograms and efficient-
//     random-access-size (AR) granularity choice (bdcctable.go, stats.go);
//   - the semi-automatic schema design Algorithm 2 that derives a co-clustered
//     schema from classic DDL with CREATE INDEX hints (alg2.go);
//   - scatter-scan order computation over count tables, the access method
//     that feeds the sandwich operators (scatter.go);
//   - small-group relocation after bulk load ("puff pastry" handling); and
//   - what query rewriting looks bins up in (binset.go, keybins.go): BinSet,
//     a bitset over one dimension's bins (nil = unrestricted, never mutated
//     after construction), and per path hop a KeyBins index from the
//     referenced table's key to the bin reached over the rest of the path —
//     built once with the design from the bins the table bindings compute
//     anyway, extended per append, rebuilt by a merge, immutable per version.
//
// Ingest (merge.go, keybins.go). Database.AppendRows is the one place an
// append is priced, and its contract is O(batch) work on every table plus
// the merge order of the appended table's clustered view: the batch is
// binned from its own key columns and through the key→bin indexes (never by
// resolving the stored tables — BindUses, which does, is the reference),
// spliced into the view as runs by MergeBDCCTable (no row copied), and the
// indexes that reference the table gain the batch's keys. Parents are
// appended before the children that reference them. The bins are the
// loaded design's and never move: a key past every observed bin clamps into
// the last one (Dimension.BinOf), and a merge re-bins nothing.
package core

import (
	"cmp"
	"fmt"
	"strings"
)

// KeyPart is one component of a (possibly composite) dimension key value.
// Numeric parts order numerically, string parts lexicographically. An Inf
// part compares greater than every ordinary part — query rewriting uses it
// to close prefix ranges over composite keys ("all nations of region 2" =
// [(2), (2, +∞)]).
type KeyPart struct {
	IsStr bool
	Inf   bool
	I     int64
	S     string
}

// InfPart is the +∞ sentinel part.
func InfPart() KeyPart { return KeyPart{Inf: true} }

// KeyVal is a composite dimension key value, compared lexicographically
// part by part (Definition 1 requires an ordered key domain so that bins can
// be value-ordered).
type KeyVal struct {
	Parts []KeyPart
}

// IntKey returns a single-part numeric key value.
func IntKey(v int64) KeyVal { return KeyVal{Parts: []KeyPart{{I: v}}} }

// StrKey returns a single-part string key value.
func StrKey(s string) KeyVal { return KeyVal{Parts: []KeyPart{{IsStr: true, S: s}}} }

// Key returns a composite key value from the given parts.
func Key(parts ...KeyPart) KeyVal { return KeyVal{Parts: parts} }

// Compare orders key values lexicographically; shorter prefixes order first.
func (k KeyVal) Compare(o KeyVal) int {
	for i := range min(len(k.Parts), len(o.Parts)) {
		a, b := k.Parts[i], o.Parts[i]
		var c int
		switch {
		case a.Inf || b.Inf: // infinity orders last, equal to itself
			c = boolCompare(a.Inf, b.Inf)
		case a.IsStr != b.IsStr:
			// Mixed-typed parts should not occur for well-formed keys; order
			// numerics first deterministically.
			c = boolCompare(a.IsStr, b.IsStr)
		case a.IsStr:
			c = strings.Compare(a.S, b.S)
		default:
			c = cmp.Compare(a.I, b.I)
		}
		if c != 0 {
			return c
		}
	}
	return cmp.Compare(len(k.Parts), len(o.Parts))
}

// boolCompare orders false before true.
func boolCompare(a, b bool) int {
	if a == b {
		return 0
	} else if a {
		return 1
	}
	return -1
}

// String implements fmt.Stringer.
func (k KeyVal) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, p := range k.Parts {
		if i > 0 {
			b.WriteByte(',')
		}
		if p.IsStr {
			fmt.Fprintf(&b, "%q", p.S)
		} else {
			fmt.Fprintf(&b, "%d", p.I)
		}
	}
	b.WriteByte(')')
	return b.String()
}
