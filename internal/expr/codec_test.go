package expr

import (
	"bytes"
	"testing"

	"bdcc/internal/vector"
	"bdcc/internal/wire"
)

// codecSchema is a schema covering all three kinds, for bind-and-eval
// round-trip checks.
var codecSchema = Schema{
	{Name: "a", Kind: vector.Int64},
	{Name: "b", Kind: vector.Float64},
	{Name: "c", Kind: vector.String},
}

func codecBatch() *vector.Batch {
	b := vector.NewBatch(codecSchema.Kinds())
	for i := 0; i < 16; i++ {
		b.Cols[0].AppendInt64(int64(i - 8))
		b.Cols[1].AppendFloat64(float64(i) * 1.5)
		b.Cols[2].AppendString(string(rune('a' + i%5)))
	}
	return b
}

// codecExprs holds every node type, some twice for their variants.
func codecExprs() []Expr {
	return []Expr{
		C("a"),
		Int(42),
		Float(-0.5),
		Str("hello"),
		NewCmp(LE, C("a"), Int(3)),
		NewAnd(Eq(C("c"), Str("b")), NewCmp(GT, C("b"), Float(2))),
		NewOr(Eq(C("a"), Int(0)), Eq(C("a"), Int(1)), Eq(C("a"), Int(2))),
		NewNot(Eq(C("c"), Str("a"))),
		NewArith(Mul, C("b"), NewArith(Sub, Float(1), Float(0.25))),
		NewArith(Add, C("a"), Int(7)),
		NewCase(NewCmp(LT, C("a"), Int(0)), Int(1), Int(0)),
		NewYear(C("a")),
		NewSubstr(C("c"), 1, 1),
		NewIn(C("c"), Str("a"), Str("c")),
		&InList{Arg: C("a"), Values: []*Const{Int(1), Int(2)}, Negate: true},
		NewLike(C("c"), "%a%"),
		NewNotLike(C("c"), "b_"),
		Between(C("a"), Int(-3), Int(3)),
	}
}

// TestExprCodecRoundTrip checks every node type survives the wire: the
// decoded tree renders identically, binds against the same schema, and
// evaluates to the same values as the original.
func TestExprCodecRoundTrip(t *testing.T) {
	in := codecBatch()
	for _, e := range codecExprs() {
		buf, err := EncodeExpr(e, nil)
		if err != nil {
			t.Fatalf("%s: encode: %v", e, err)
		}
		got, n, err := DecodeExpr(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", e, err)
		}
		if n != len(buf) {
			t.Fatalf("%s: decoded %d of %d bytes", e, n, len(buf))
		}
		if got.String() != e.String() {
			t.Fatalf("round trip changed the tree: %s != %s", got, e)
		}
		if err := Bind(e, codecSchema); err != nil {
			t.Fatalf("%s: bind original: %v", e, err)
		}
		if err := Bind(got, codecSchema); err != nil {
			t.Fatalf("%s: bind decoded: %v", e, err)
		}
		want := NewScratch(e.Kind())
		have := NewScratch(got.Kind())
		e.Eval(in, want)
		got.Eval(in, have)
		if want.Len() != have.Len() {
			t.Fatalf("%s: %d values, original has %d", e, have.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			if want.GetString(i) != have.GetString(i) {
				t.Fatalf("%s: row %d = %s, original has %s", e, i, have.GetString(i), want.GetString(i))
			}
		}
	}
}

// TestExprCodecBoundTreeEncodesUnbound locks in that binding state does not
// travel: encoding a bound tree and an identical unbound tree yields the
// same bytes.
func TestExprCodecBoundTreeEncodesUnbound(t *testing.T) {
	mk := func() Expr { return NewAnd(Eq(C("a"), Int(1)), NewLike(C("c"), "x%")) }
	bound := mk()
	if err := Bind(bound, codecSchema); err != nil {
		t.Fatal(err)
	}
	b1, err := EncodeExpr(bound, nil)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeExpr(mk(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("bound and unbound trees encode differently")
	}
}

// TestExprCodecTruncation checks every prefix of a deep encoding fails to
// decode rather than panicking or decoding garbage.
func TestExprCodecTruncation(t *testing.T) {
	e := NewCase(NewIn(C("c"), Str("a")), NewArith(Div, C("b"), Float(2)), NewSubstr(C("c"), 1, 2))
	buf, err := EncodeExpr(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(buf); n++ {
		if _, _, err := DecodeExpr(buf[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", n, len(buf))
		}
	}
	if _, _, err := DecodeExpr([]byte{250}); err == nil {
		t.Fatal("unknown tag decoded without error")
	}
}

// TestDecodeExprDepthBounded: nesting is bounded by the reader, not by the
// stack. Sixteen MiB of one-byte NOT tags — well under the frame cap a setup
// frame may reach a worker with — used to recurse once per byte until the
// runtime killed the process with a stack overflow no recover catches; it is
// an error now, and a tree as deep as the bound still decodes.
func TestDecodeExprDepthBounded(t *testing.T) {
	if _, _, err := DecodeExpr(bytes.Repeat([]byte{tagNot}, 16<<20)); err == nil {
		t.Fatal("16 MiB of nested NOTs decoded without error")
	}
	nest := func(depth int) []byte {
		e := Expr(C("a"))
		for i := 1; i < depth; i++ {
			e = NewNot(e)
		}
		buf, err := EncodeExpr(e, nil)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	if _, n, err := DecodeExpr(nest(wire.MaxDepth)); err != nil || n != len(nest(wire.MaxDepth)) {
		t.Fatalf("a tree %d nodes deep: %v", wire.MaxDepth, err)
	}
	if _, _, err := DecodeExpr(nest(wire.MaxDepth + 1)); err == nil {
		t.Fatalf("a tree %d nodes deep decoded", wire.MaxDepth+1)
	}
	// Width is not depth: siblings share a level.
	wide := make([]Expr, 4*wire.MaxDepth)
	for i := range wide {
		wide[i] = Eq(C("a"), Int(int64(i)))
	}
	buf, err := EncodeExpr(NewOr(wide...), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeExpr(buf); err != nil {
		t.Fatalf("a wide, shallow tree: %v", err)
	}
}

// FuzzDecodeExpr: arbitrary bytes offered as an expression decode cleanly or
// error — never panic, never exhaust the stack — and what decodes survives
// another trip through the codec. The committed corpus has one seed per node
// type and the nesting bomb.
func FuzzDecodeExpr(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		e, n, err := DecodeExpr(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		buf, err := EncodeExpr(e, nil)
		if err != nil {
			t.Fatalf("a decoded tree does not encode: %v", err)
		}
		back, m, err := DecodeExpr(buf)
		if err != nil || m != len(buf) || back.String() != e.String() {
			t.Fatalf("%s re-encoded and decoded to %v (%v, %d of %d bytes)", e, back, err, m, len(buf))
		}
	})
}
