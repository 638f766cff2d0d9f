package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"bdcc/internal/engine"
	"bdcc/internal/expr"
	"bdcc/internal/storage"
	"bdcc/internal/wire"
)

// Partition shipping: the wire form and both ends of the base-table
// partition transfer that makes workers shared-nothing (frames
// framePartTable and framePartData; see docs/WIRE.md and
// docs/PARTITIONING.md).
//
// Manifest payload layout (little endian):
//
//	table name        (u32 length + bytes)
//	u8  compressed    (1 = the partition is a compressed table)
//	u64 page size
//	u64 total rows
//	u16 column count, then per column: name (u32 length + bytes), u8 kind
//	    (a schema, as in a plan fragment)
//	u32 segment count, then per segment: u64 start + u64 end
//	    (coordinator row space, in ship order — the order the partition's
//	    rows are stored in, and the order RangeMap assumes)
//
// Each data frame carries one column frame of the partition in storage's
// byte form (storage.Table.Frames): the coordinator builds the worker's local
// table — the segments' rows in ship order, compressed when the original is —
// once per table version, and ships its encoded chunks as they are. The
// worker verifies and adopts them (storage.TableAdopter); it neither decodes
// nor compresses. The transfer has no explicit end: the worker publishes the
// partition the moment its last column completes, and a scan fragment
// referencing a table still short of that fails Prepare — which cannot happen
// on a correct client, since ShipPartition writes every frame before any unit
// ships.

// partManifest is the decoded manifest of one shipped partition.
type partManifest struct {
	Table      string
	Compressed bool
	PageSize   int64
	Rows       int64
	Cols       expr.Schema
	Segs       storage.RowRanges
}

// encodePartManifest appends the manifest payload describing shipping the
// given segments of tab to buf and returns the extended slice.
func encodePartManifest(tab *storage.Table, segs storage.RowRanges, buf []byte) []byte {
	buf = wire.AppendString(buf, tab.Name)
	if tab.Compressed() {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(tab.PageSize))
	var rows int64
	for _, s := range segs {
		rows += int64(s.Len())
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rows))
	cols := make(expr.Schema, len(tab.Cols))
	for i, c := range tab.Cols {
		cols[i] = expr.ColMeta{Name: c.Name, Kind: c.Kind}
	}
	return appendRanges(appendSchema(buf, cols), segs)
}

// decodePartManifest decodes one manifest payload occupying all of data.
func decodePartManifest(data []byte) (*partManifest, error) {
	r := wire.NewReader(data)
	m := &partManifest{Table: r.Str(), Compressed: r.U8() != 0, PageSize: int64(r.U64()), Rows: int64(r.U64())}
	m.Cols, m.Segs = readSchema(&r), readRanges(&r)
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("shard: partition manifest: %w", err)
	}
	var segRows int64
	for _, s := range m.Segs {
		// Checked before the sum: segments past the declared rows could wrap
		// it back onto them, and the worker would map ranges out of its table.
		if int64(s.Len()) > m.Rows-segRows {
			return nil, fmt.Errorf("shard: malformed partition manifest for %q: segments cover more than the %d rows declared", m.Table, m.Rows)
		}
		segRows += int64(s.Len())
	}
	if m.PageSize <= 0 || len(m.Cols) == 0 || segRows != m.Rows {
		return nil, fmt.Errorf("shard: malformed partition manifest for %q: page size %d, %d columns, %d rows declared, segments cover %d",
			m.Table, m.PageSize, len(m.Cols), m.Rows, segRows)
	}
	return m, nil
}

// partRecv is one in-flight partition transfer on a worker session.
type partRecv struct {
	m     *partManifest
	adopt *storage.TableAdopter
	bytes int64
	skip  bool // duplicate, poisoned or complete: drain remaining data frames silently
}

// partStore is a worker session's registry of shipped table partitions: the
// scan source the session installs on every scan fragment it Prepares. All
// methods run on the session's frame-loop goroutine (frames arrive in
// order, and frameSetup — the only reader, via source — is a frame too), so
// the store needs no locking; the resolved engine.ScanTable a fragment
// captures at Prepare is immutable afterwards and safe on scheduler
// goroutines.
type partStore struct {
	// limit caps the bytes the session's partitions keep resident — the
	// received frames the adopted columns point into, plus the strings their
	// heaps became (dictionary, run and raw-chunk values); 0 = none.
	limit int64
	used  int64
	byID  map[uint64]*partRecv
	tabs  map[string]engine.ScanTable
	errs  map[string]error
}

func newPartStore(limit int64) *partStore {
	return &partStore{
		limit: limit,
		byID:  make(map[uint64]*partRecv),
		tabs:  make(map[string]engine.ScanTable),
		errs:  make(map[string]error),
	}
}

// addManifest registers one partition transfer. Duplicates (a table already
// published, typically a plan-time ship racing a re-admission re-ship the
// client-side dedup didn't see) keep the first copy and drain the new
// transfer. The returned error means protocol corruption — the session
// drops.
func (p *partStore) addManifest(id uint64, payload []byte) error {
	m, err := decodePartManifest(payload)
	if err != nil {
		return err
	}
	if _, dup := p.byID[id]; dup {
		return fmt.Errorf("shard: partition id %d reused", id)
	}
	r := &partRecv{m: m}
	p.byID[id] = r
	if _, have := p.tabs[m.Table]; have {
		r.skip = true
	} else if _, poisoned := p.errs[m.Table]; poisoned {
		r.skip = true
	} else if r.adopt, err = storage.NewTableAdopter(m.Table, m.PageSize, int(m.Rows), m.Compressed, m.Cols.Names(), m.Cols.Kinds()); err != nil {
		p.poison(r, err)
	}
	return nil
}

// addData verifies one column frame and adopts it into its transfer,
// publishing the partition when the last column completes. The returned
// error means protocol corruption — a frame that fails its checksum or its
// structure, a kind the manifest did not declare, rows past the manifest's
// total; the resource limit instead poisons the table, failing its scans as
// work errors without dropping the session.
func (p *partStore) addData(id uint64, payload []byte) error {
	r := p.byID[id]
	if r == nil {
		return fmt.Errorf("shard: partition data for unknown id %d", id)
	}
	if r.skip {
		return nil
	}
	resident, done, err := r.adopt.Add(payload)
	if err != nil {
		return fmt.Errorf("shard: partition frame: %w", err)
	}
	p.used += resident
	r.bytes += resident
	if p.limit > 0 && p.used > p.limit {
		p.poison(r, fmt.Errorf("shard: partition for %q exceeds the worker's %d-byte partition limit", r.m.Table, p.limit))
		return nil
	}
	if !done {
		return nil
	}
	tab, err := r.adopt.Table()
	if err != nil {
		p.poison(r, err)
		return nil
	}
	p.tabs[r.m.Table] = engine.ScanTable{Tab: tab, Map: NewRangeMap(r.m.Segs).Map}
	r.adopt, r.skip = nil, true
	return nil
}

// poison records why the table's partition is unusable and frees the
// partial transfer; the table's scan fragments fail Prepare with the cause.
func (p *partStore) poison(r *partRecv, err error) {
	p.errs[r.m.Table] = err
	p.used -= r.bytes
	r.bytes, r.adopt, r.skip = 0, nil, true
}

// source is the engine.ScanSource a scan fragment resolves its table
// through at Prepare.
func (p *partStore) source(table string) (engine.ScanTable, error) {
	if st, ok := p.tabs[table]; ok {
		return st, nil
	}
	if err, ok := p.errs[table]; ok {
		return engine.ScanTable{}, err
	}
	return engine.ScanTable{}, fmt.Errorf("shard: no partition of %q shipped on this session", table)
}

// partFrameBytes is the size at which a column frame of a shipment is closed
// (storage.Table.Frames): large enough that a partition is a few dozen
// messages, small enough that no frame approaches wire.MaxPayload or
// wire.WriteTimeout however large the table.
const partFrameBytes = 4 << 20

// partShipment is the serialised form of one worker's partition of one
// table: the payload bytes ShipPartition frames per session. It is built once
// per table version (shipmentsOf) and shared read-only by every set, session
// and re-ship from then on.
type partShipment struct {
	key      string
	manifest []byte
	data     [][]byte
	saved    int64 // the partition's raw bytes less its frames', credited as wire savings
}

// buildPartShipment builds the table a worker holds — the given segments of
// tab in ship order, compressed when tab is, exactly the rows and the order
// the worker's RangeMap assumes — and serialises it. The local table itself
// is dropped: the chunks live on in the frames. Extraction is a copy of the
// coordinator's in-memory arrays, not a scan: shipping is network work,
// metered on the frames by the session's network accountant, not modeled
// device IO.
func buildPartShipment(key string, tab *storage.Table, segs storage.RowRanges) (*partShipment, error) {
	local, err := tab.Extract(segs)
	if err != nil {
		return nil, err
	}
	s := &partShipment{key: key, manifest: encodePartManifest(tab, segs, nil), data: local.Frames(partFrameBytes)}
	s.saved = local.CompressionStats().RawBytes
	for _, d := range s.data {
		s.saved -= int64(len(d))
	}
	return s, nil
}

// shipKey keys a table version's memoised shipments by the number of workers
// they were cut for.
type shipKey int

// shipmentsOf returns the shipments of tab for p's workers, building them the
// first time this version of the table is partitioned that many ways. A
// shipment is a pure function of the table's rows and the placement, and a
// stored table never changes, so the memo hangs off the table itself
// (storage.Table.Derived): an append or a merge publishes a new table and
// starts empty, a superseded version is collected with its shipments, and
// every set, session and planner sharing a version shares one build. The
// manifests are compared on a hit because the placement is the caller's: a
// version paired with other count entries gets a build of its own.
func shipmentsOf(tab *storage.Table, p *Partitioning) ([]*partShipment, error) {
	var err error
	build := func() any {
		ships := make([]*partShipment, p.Workers)
		for w := range ships {
			key := fmt.Sprintf("%s/%d@%d", p.Table, w, p.Workers)
			if ships[w], err = buildPartShipment(key, tab, p.Segments(w)); err != nil {
				return nil // not kept
			}
		}
		return ships
	}
	ships, _ := tab.Derived(shipKey(p.Workers), build).([]*partShipment)
	for w, s := range ships {
		if !bytes.Equal(s.manifest, encodePartManifest(tab, p.Segments(w), nil)) {
			ships, _ = build().([]*partShipment)
			break
		}
	}
	return ships, err
}

// MemoisedShipments returns, per worker, the column frames memoised on this
// version of tab for a set of that many workers — nil when none has been
// built. These are the very slices every session is sent, so a test or a
// diagnostic tells a shared build from a repeated one by their identity.
func MemoisedShipments(tab *storage.Table, workers int) [][][]byte {
	ships, _ := tab.Derived(shipKey(workers), func() any { return nil }).([]*partShipment)
	var out [][][]byte
	for _, s := range ships {
		out = append(out, s.data)
	}
	return out
}
