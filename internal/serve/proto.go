// Package serve is the front-end daemon layer: it accepts concurrent query
// sessions over the same framed wire transport the shard backends speak
// (docs/WIRE.md, client protocol section), admits each query onto a bounded
// number of process-lifetime scheduler pools behind an admission queue,
// governs their combined operator memory with one process-global budget,
// and answers every request with a byte-exact encoded result. The engine,
// planner, and catalog know nothing of it: serve composes them through the
// same engine.Context seam a single-query run uses, which is what keeps
// daemon results byte-identical to serial single-box runs.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"

	"bdcc/internal/engine"
	"bdcc/internal/expr"
	"bdcc/internal/vector"
	"bdcc/internal/wire"
)

// Protocol identity of the client protocol: the frame and the hello exchange
// of internal/wire, under a magic of its own so a client cannot mistake a
// worker for a daemon, and a version counter of its own. The daemon announces
// its pool count as the hello's capacity.
const (
	ProtoMagic   = "BDCQ"
	ProtoVersion = 5
)

// Client-protocol frame types (wire.TypeHello, 1, opens the session),
// numbered after the worker protocol's request types so the one WIRE.md frame
// table stays unambiguous.
const (
	frameQuery      = byte(8)  // client → daemon: run one query; id = request id
	frameResult     = byte(9)  // daemon → client: status + result; id = request id
	frameStats      = byte(10) // client → daemon: admission/memory counters
	frameStatsReply = byte(11) // daemon → client: the Stats fields (encodeStats)
)

// Result statuses carried in the first payload byte of frameResult.
const (
	statusOK       = byte(0) // payload: encoded result
	statusError    = byte(1) // payload: error text (the query failed)
	statusRejected = byte(2) // payload: reason (admission or memory rejection)
)

// ErrRejected marks a query the daemon refused to run — the admission queue
// was full, the bounded queue wait expired, or the process memory budget
// could not cover it — as opposed to a query that ran and failed. Clients
// retry rejected queries (later, elsewhere, or never); failed queries would
// fail identically again.
var ErrRejected = errors.New("serve: query rejected")

var errClosed = errors.New("serve: closed")

// encodeQuery lays out a frameQuery payload: the scheme and the query name,
// each a wire string (u32 length + bytes).
func encodeQuery(scheme, query string, buf []byte) []byte {
	return wire.AppendString(wire.AppendString(buf, scheme), query)
}

func decodeQuery(payload []byte) (scheme, query string, err error) {
	r := wire.NewReader(payload)
	scheme, query = r.Str(), r.Str()
	if err := r.Close(); err != nil {
		return "", "", fmt.Errorf("serve: query frame: %w", err)
	}
	return scheme, query, nil
}

// encodeStats appends a stats-reply payload: the ten Stats fields in
// declaration order, each a little-endian u64.
func encodeStats(st Stats, buf []byte) []byte {
	for _, v := range []int64{int64(st.Active), int64(st.Queued), st.Admitted, st.QueuedTotal, st.Rejected,
		st.Done, st.MemReserved, st.MemPeak, st.MemQueued, st.MemRejected} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

func decodeStats(payload []byte) (Stats, error) {
	r := wire.NewReader(payload)
	st := Stats{Active: int(r.U64()), Queued: int(r.U64()), Admitted: int64(r.U64()), QueuedTotal: int64(r.U64()),
		Rejected: int64(r.U64()), Done: int64(r.U64()), MemReserved: int64(r.U64()), MemPeak: int64(r.U64()),
		MemQueued: int64(r.U64()), MemRejected: int64(r.U64())}
	if err := r.Close(); err != nil {
		return Stats{}, fmt.Errorf("serve: stats reply: %w", err)
	}
	return st, nil
}

// encodeResult appends a result's wire form: u16 column count, each column
// name (a wire string), then the columns as one batch in the exact encoding
// of internal/vector — IEEE-754 float bits and raw string bytes — so a
// decoded result reproduces the original bit for bit.
func encodeResult(res *engine.Result, buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(res.Schema)))
	for _, c := range res.Schema {
		buf = wire.AppendString(buf, c.Name)
	}
	b := &vector.Batch{Cols: res.Cols}
	return b.Encode(buf)
}

func decodeResult(data []byte) (*engine.Result, error) {
	r := wire.NewReader(data)
	names := make([]string, r.Count("result columns", uint32(r.U16()), 4))
	for i := range names {
		names[i] = r.Str()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("serve: result schema: %w", err)
	}
	b, n, err := vector.DecodeBatch(r.Rest())
	if err != nil {
		return nil, err
	}
	r.Take(n)
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("serve: result: %w", err)
	}
	if len(b.Cols) != len(names) {
		return nil, fmt.Errorf("serve: result names %d columns, carries %d", len(names), len(b.Cols))
	}
	res := &engine.Result{Cols: b.Cols, Schema: make(expr.Schema, len(names))}
	for i, c := range b.Cols {
		res.Schema[i] = expr.ColMeta{Name: names[i], Kind: c.Kind}
	}
	return res, nil
}
