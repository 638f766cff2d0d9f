package expr

import (
	"encoding/binary"
	"fmt"
	"math"

	"bdcc/internal/vector"
	"bdcc/internal/wire"
)

// This file is the expression wire codec: the byte form in which a scalar
// expression crosses a transport boundary (a sandwich plan fragment carries
// its residual predicate to a remote worker). Expressions travel in their
// unbound form — column references as names, result kinds unresolved — and
// the receiver re-binds the decoded tree against its reconstruction of the
// schema with Bind, which is what keeps the codec independent of column
// positions and makes a decoded tree exactly as trustworthy as a freshly
// built one.
//
// The node set is closed (the types of this package), so the encoding is a
// simple tagged pre-order walk (little endian):
//
//	u8 tag, then per node type:
//	  Col    name
//	  Const  u8 kind, then i64 / f64 bits / string
//	  Cmp    u8 op, L, R
//	  And/Or u32 arity, args
//	  Not    arg
//	  Arith  u8 op, L, R
//	  Case   when, then, else
//	  Year   arg
//	  Substr arg, u32 start, u32 length
//	  In     u8 negate, arg, u32 count, consts
//	  Like   u8 negate, pattern, arg
//
// Strings are u32 byte length + raw bytes (wire.AppendString).

// Expression node tags of the wire form. Tags are append-only: a new node
// type takes the next free tag, existing tags never change meaning (see
// docs/WIRE.md for the protocol's versioning rules).
const (
	tagCol = byte(iota + 1)
	tagConst
	tagCmp
	tagAnd
	tagOr
	tagNot
	tagArith
	tagCase
	tagYear
	tagSubstr
	tagIn
	tagLike
)

func encodeConst(c *Const, buf []byte) []byte {
	buf = append(buf, byte(c.K))
	switch c.K {
	case vector.Float64:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.F))
	case vector.String:
		buf = wire.AppendString(buf, c.S)
	default:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.I))
	}
	return buf
}

func readConst(r *wire.Reader) *Const {
	c := &Const{K: vector.Kind(r.U8())}
	switch c.K {
	case vector.Float64:
		c.F = math.Float64frombits(r.U64())
	case vector.String:
		c.S = r.Str()
	case vector.Int64:
		c.I = int64(r.U64())
	default:
		r.Fail("constant of unknown kind %d", c.K)
	}
	return c
}

// EncodeExpr appends the wire encoding of e to buf and returns the extended
// slice. Bound and unbound trees encode identically (binding state does not
// travel); an unknown node type is an error.
func EncodeExpr(e Expr, buf []byte) ([]byte, error) {
	var err error
	switch n := e.(type) {
	case *Col:
		return wire.AppendString(append(buf, tagCol), n.Name), nil
	case *Const:
		return encodeConst(n, append(buf, tagConst)), nil
	case *Cmp:
		buf = append(buf, tagCmp, byte(n.Op))
		if buf, err = EncodeExpr(n.L, buf); err != nil {
			return nil, err
		}
		return EncodeExpr(n.R, buf)
	case *And:
		return encodeNary(tagAnd, n.Args, buf)
	case *Or:
		return encodeNary(tagOr, n.Args, buf)
	case *Not:
		return EncodeExpr(n.Arg, append(buf, tagNot))
	case *Arith:
		buf = append(buf, tagArith, byte(n.Op))
		if buf, err = EncodeExpr(n.L, buf); err != nil {
			return nil, err
		}
		return EncodeExpr(n.R, buf)
	case *Case:
		buf = append(buf, tagCase)
		if buf, err = EncodeExpr(n.When, buf); err != nil {
			return nil, err
		}
		if buf, err = EncodeExpr(n.Then, buf); err != nil {
			return nil, err
		}
		return EncodeExpr(n.Else, buf)
	case *Year:
		return EncodeExpr(n.Arg, append(buf, tagYear))
	case *Substr:
		buf = append(buf, tagSubstr)
		if buf, err = EncodeExpr(n.Arg, buf); err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n.Start))
		return binary.LittleEndian.AppendUint32(buf, uint32(n.Length)), nil
	case *InList:
		buf = append(buf, tagIn, b2b(n.Negate))
		if buf, err = EncodeExpr(n.Arg, buf); err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(n.Values)))
		for _, c := range n.Values {
			buf = encodeConst(c, buf)
		}
		return buf, nil
	case *Like:
		buf = wire.AppendString(append(buf, tagLike, b2b(n.Negate)), n.Pattern)
		return EncodeExpr(n.Arg, buf)
	}
	return nil, fmt.Errorf("expr: cannot encode %T", e)
}

func encodeNary(tag byte, args []Expr, buf []byte) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint32(append(buf, tag), uint32(len(args)))
	var err error
	for _, a := range args {
		if buf, err = EncodeExpr(a, buf); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// DecodeExpr decodes one expression from the front of data, returning the
// tree (unbound — callers Bind it before Eval) and the bytes consumed.
func DecodeExpr(data []byte) (Expr, int, error) {
	r := wire.NewReader(data)
	e := readExpr(&r)
	if err := r.Err(); err != nil {
		return nil, 0, fmt.Errorf("expr: %w", err)
	}
	return e, len(data) - r.Len(), nil
}

// readExpr reads one node and, recursively, its arguments. The reader bounds
// the recursion (wire.MaxDepth) and checks every count against the bytes
// left; after a failure the tree returned is garbage the caller drops.
func readExpr(r *wire.Reader) Expr {
	if !r.Enter() {
		return nil
	}
	defer r.Leave()
	switch tag := r.U8(); tag {
	case tagCol:
		return C(r.Str())
	case tagConst:
		return readConst(r)
	case tagCmp:
		op := CmpOp(r.U8())
		return NewCmp(op, readExpr(r), readExpr(r))
	case tagArith:
		op := ArithOp(r.U8())
		return NewArith(op, readExpr(r), readExpr(r))
	case tagAnd, tagOr:
		args := make([]Expr, r.Count("arguments", r.U32(), 5)) // no node is shorter than an empty name
		for i := 0; i < len(args) && r.Err() == nil; i++ {
			args[i] = readExpr(r)
		}
		if tag == tagAnd {
			return NewAnd(args...)
		}
		return NewOr(args...)
	case tagNot:
		return NewNot(readExpr(r))
	case tagCase:
		return NewCase(readExpr(r), readExpr(r), readExpr(r))
	case tagYear:
		return NewYear(readExpr(r))
	case tagSubstr:
		return NewSubstr(readExpr(r), int(r.U32()), int(r.U32()))
	case tagIn:
		in := &InList{Negate: r.U8() != 0, Arg: readExpr(r)}
		in.Values = make([]*Const, r.Count("IN values", r.U32(), 5))
		for i := 0; i < len(in.Values) && r.Err() == nil; i++ {
			in.Values[i] = readConst(r)
		}
		return in
	case tagLike:
		return &Like{Negate: r.U8() != 0, Pattern: r.Str(), Arg: readExpr(r)}
	default:
		r.Fail("unknown expression tag %d", tag)
		return nil
	}
}

func b2b(b bool) byte {
	if b {
		return 1
	}
	return 0
}
