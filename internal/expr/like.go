package expr

import (
	"fmt"
	"strings"

	"bdcc/internal/vector"
)

// Like is a SQL LIKE pattern match supporting % (any run) and _ (any single
// byte) wildcards.
type Like struct {
	Arg     Expr
	Pattern string
	Negate  bool

	// Bound form (prepare): the pattern compiled once, not per batch.
	segs                       []likeSeg
	anchoredStart, anchoredEnd bool
	scratch
}

// NewLike returns arg LIKE pattern.
func NewLike(arg Expr, pattern string) *Like { return &Like{Arg: arg, Pattern: pattern} }

// NewNotLike returns arg NOT LIKE pattern.
func NewNotLike(arg Expr, pattern string) *Like {
	return &Like{Arg: arg, Pattern: pattern, Negate: true}
}

// Kind implements Expr.
func (l *Like) Kind() vector.Kind { return vector.Int64 }

// String implements Expr.
func (l *Like) String() string {
	op := "LIKE"
	if l.Negate {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("(%s %s %q)", l.Arg, op, l.Pattern)
}

// Eval implements Expr.
func (l *Like) Eval(b *vector.Batch, out *vector.Vector) { appendValues(l, b, out) }

func (l *Like) prepare() { l.segs, l.anchoredStart, l.anchoredEnd = compileLike(l.Pattern) }

func (l *Like) eval(b *vector.Batch, sel []int32) (*vector.Vector, []int32) {
	out := sized(&l.vec, vector.Int64, rows(b, sel)).I64
	v, idx := l.Arg.eval(b, sel)
	if idx != nil {
		for i, r := range idx {
			out[i] = l.match(v.Str[r])
		}
	} else {
		for i, s := range v.Str {
			out[i] = l.match(s)
		}
	}
	return &l.vec, nil
}

func (l *Like) match(s string) int64 {
	return int64(b2i(matchLike(s, l.segs, l.anchoredStart, l.anchoredEnd) != l.Negate))
}

// likeSeg is one literal segment between % wildcards; runes '_' inside a
// segment match any single byte.
type likeSeg string

// compileLike splits the pattern at % into segments and reports whether the
// match is anchored at the start and/or end.
func compileLike(pattern string) (segs []likeSeg, anchoredStart, anchoredEnd bool) {
	parts := strings.Split(pattern, "%")
	anchoredStart = !strings.HasPrefix(pattern, "%")
	anchoredEnd = !strings.HasSuffix(pattern, "%")
	for _, p := range parts {
		if p != "" {
			segs = append(segs, likeSeg(p))
		}
	}
	return segs, anchoredStart, anchoredEnd
}

// segMatchAt reports whether segment seg matches s starting at position i.
func segMatchAt(s string, seg likeSeg, i int) bool {
	if i+len(seg) > len(s) {
		return false
	}
	for j := 0; j < len(seg); j++ {
		if seg[j] != '_' && seg[j] != s[i+j] {
			return false
		}
	}
	return true
}

// segFind returns the first position ≥ from where seg matches s, or -1. A
// segment without _ is a plain substring, found by the runtime's vectorised
// search; one with _ is tried at every position.
func segFind(s string, seg likeSeg, from int) int {
	if strings.IndexByte(string(seg), '_') < 0 {
		if at := strings.Index(s[from:], string(seg)); at >= 0 {
			return from + at
		}
		return -1
	}
	for i := from; i+len(seg) <= len(s); i++ {
		if segMatchAt(s, seg, i) {
			return i
		}
	}
	return -1
}

func matchLike(s string, segs []likeSeg, anchoredStart, anchoredEnd bool) bool {
	if len(segs) == 0 {
		// Pattern was only % wildcards (or empty: matches only empty string).
		if anchoredStart && anchoredEnd {
			return s == ""
		}
		return true
	}
	if len(segs) == 1 && anchoredStart && anchoredEnd {
		return len(s) == len(segs[0]) && segMatchAt(s, segs[0], 0)
	}
	pos := 0
	for i, seg := range segs {
		if i == 0 && anchoredStart {
			if !segMatchAt(s, seg, 0) {
				return false
			}
			pos = len(seg)
			continue
		}
		if i == len(segs)-1 && anchoredEnd {
			start := len(s) - len(seg)
			return start >= pos && segMatchAt(s, seg, start)
		}
		at := segFind(s, seg, pos)
		if at < 0 {
			return false
		}
		pos = at + len(seg)
	}
	return true
}
