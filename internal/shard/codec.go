package shard

import (
	"encoding/binary"
	"fmt"

	"bdcc/internal/engine"
	"bdcc/internal/expr"
	"bdcc/internal/storage"
	"bdcc/internal/vector"
	"bdcc/internal/wire"
)

// Wire forms of the two plan-side payloads a backend transport carries (see
// docs/WIRE.md for the full protocol):
//
// Group unit — the serialized shape of one engine.GroupUnit. Layout (little
// endian):
//
//	u64 aligned group id
//	u32 probe batch count, u32 build batch count
//	probe batches then build batches, each in the vector.Batch wire form
//	u32 scan range count, then per range u64 start + u64 end
//	    (coordinator row space; 0 for a join unit, and a scan unit
//	    carries no batches)
//
// Plan fragment — the serialized shape of one engine.Fragment, shipped once
// per operator at query setup. Layout (little endian):
//
//	u8 fragment kind             (0 join, 1 scan)
//	table name                   (u32 length + bytes; empty for a join)
//	probe schema, build schema   (u16 column count; per column: string name
//	                              as u32 length + bytes, u8 kind)
//	probe keys, build keys       (u16 count, strings)
//	u8 join type
//	u8 residual present, then the expr wire form (unbound; the worker
//	   re-binds — against probe+build for a join, against the probe/output
//	   schema for a scan, where the slot carries the scan filter)
//
// Both codecs are exact because the batch and expression codecs are: a
// decoded unit joins (or scans) under a decoded fragment to bit-identical
// results, which is what keeps sharded runs byte-identical. Both decode
// through the bounds-checked wire.Reader.

// EncodeUnit appends the wire encoding of u to buf and returns the extended
// slice.
func EncodeUnit(u *engine.GroupUnit, buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, u.GID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(u.Probe)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(u.Build)))
	for _, b := range u.Probe {
		buf = b.Encode(buf)
	}
	for _, b := range u.Build {
		buf = b.Encode(buf)
	}
	return appendRanges(buf, u.ScanRanges)
}

// RawUnitWireSize returns the size EncodeUnit would produce with every batch
// column forced raw — the baseline the transport's saved-bytes counter
// (iosim.Stats.Saved) is measured against.
func RawUnitWireSize(u *engine.GroupUnit) int {
	sz := 16 + 4 + 16*len(u.ScanRanges)
	for _, b := range u.Probe {
		sz += b.RawWireSize()
	}
	for _, b := range u.Build {
		sz += b.RawWireSize()
	}
	return sz
}

// DecodeUnit decodes one group unit occupying all of data. The decoded unit
// owns its memory — nothing aliases the sender's batches.
func DecodeUnit(data []byte) (*engine.GroupUnit, error) {
	r := wire.NewReader(data)
	u := &engine.GroupUnit{GID: r.U64()}
	np, nb := uint64(r.U32()), uint64(r.U32())
	// A batch that is not there fails to decode, so the counts bound nothing.
	for i := uint64(0); i < np+nb && r.Err() == nil; i++ {
		b, n, err := vector.DecodeBatch(r.Rest())
		if err != nil {
			return nil, fmt.Errorf("shard: unit batch %d: %w", i, err)
		}
		r.Take(n)
		if i < np {
			u.Probe = append(u.Probe, b)
		} else {
			u.Build = append(u.Build, b)
		}
	}
	u.ScanRanges = readRanges(&r)
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("shard: unit: %w", err)
	}
	return u, nil
}

// appendRanges writes row ranges: u32 count, then per range u64 start + u64
// end.
func appendRanges(buf []byte, ranges storage.RowRanges) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ranges)))
	for _, rr := range ranges {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(rr.Start))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(rr.End))
	}
	return buf
}

// readRanges reads what appendRanges wrote, nil for none; a range that ends
// before it starts, or starts below zero, fails the reader.
func readRanges(r *wire.Reader) storage.RowRanges {
	n := r.Count("row ranges", r.U32(), 16)
	if n == 0 {
		return nil
	}
	ranges := make(storage.RowRanges, n)
	for i := range ranges {
		ranges[i] = storage.RowRange{Start: int(r.U64()), End: int(r.U64())}
		if ranges[i].Start < 0 || ranges[i].End < ranges[i].Start {
			r.Fail("row range [%d,%d) malformed", ranges[i].Start, ranges[i].End)
		}
	}
	return ranges
}

func appendSchema(buf []byte, s expr.Schema) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	for _, c := range s {
		buf = append(wire.AppendString(buf, c.Name), byte(c.Kind))
	}
	return buf
}

func readSchema(r *wire.Reader) expr.Schema {
	s := make(expr.Schema, r.Count("columns", uint32(r.U16()), 5))
	for i := range s {
		s[i] = expr.ColMeta{Name: r.Str(), Kind: vector.Kind(r.U8())}
		if s[i].Kind > vector.String {
			r.Fail("column %q has unknown kind %d", s[i].Name, s[i].Kind)
		}
	}
	return s
}

func appendStrs(buf []byte, ss []string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(ss)))
	for _, s := range ss {
		buf = wire.AppendString(buf, s)
	}
	return buf
}

func readStrs(r *wire.Reader) []string {
	ss := make([]string, r.Count("strings", uint32(r.U16()), 4))
	for i := range ss {
		ss[i] = r.Str()
	}
	return ss
}

// EncodeFragment appends the wire encoding of f's plan description to buf
// and returns the extended slice. Execution-site state (bound indexes,
// meters) does not travel — the receiving worker Prepares the decoded
// fragment itself.
func EncodeFragment(f *engine.Fragment, buf []byte) ([]byte, error) {
	buf = append(buf, byte(f.Kind))
	buf = wire.AppendString(buf, f.Table)
	buf = appendSchema(buf, f.Probe)
	buf = appendSchema(buf, f.Build)
	buf = appendStrs(buf, f.ProbeKeys)
	buf = appendStrs(buf, f.BuildKeys)
	buf = append(buf, byte(f.Type))
	if f.Residual == nil {
		return append(buf, 0), nil
	}
	buf = append(buf, 1)
	return expr.EncodeExpr(f.Residual, buf)
}

// DecodeFragment decodes one plan fragment occupying all of data. The
// returned fragment is unprepared and unmetered; the caller Prepares it and
// attaches its own execution-site hooks.
func DecodeFragment(data []byte) (*engine.Fragment, error) {
	r := wire.NewReader(data)
	f := &engine.Fragment{Kind: engine.FragKind(r.U8()), Table: r.Str()}
	f.Probe, f.Build = readSchema(&r), readSchema(&r)
	f.ProbeKeys, f.BuildKeys = readStrs(&r), readStrs(&r)
	f.Type = engine.JoinType(r.U8())
	if r.U8() != 0 && r.Err() == nil {
		e, n, err := expr.DecodeExpr(r.Rest())
		if err != nil {
			return nil, fmt.Errorf("shard: fragment residual: %w", err)
		}
		f.Residual = e
		r.Take(n)
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("shard: fragment: %w", err)
	}
	return f, nil
}
