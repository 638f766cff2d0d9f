package shard

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"

	"bdcc/internal/engine"
	"bdcc/internal/expr"
	"bdcc/internal/storage"
	"bdcc/internal/wire"
)

// Partition shipping: the wire form and both ends of the base-table
// partition transfer that makes workers shared-nothing (frames
// framePartOffer, framePartAnswer and framePartData; see docs/WIRE.md and
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
// nor compresses. A transfer is offered before it is sent: the offer carries
// the shipment's content digest, and a worker already holding a partition of
// that digest — from any earlier session — binds it and answers that no data
// need follow. The transfer has no explicit end: the worker checks the
// digest and publishes the partition the moment its last column completes,
// and a scan fragment referencing a table still short of that fails Prepare
// — which cannot happen on a correct client, since shipPartition writes
// every frame before any unit ships.

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

// Offer payload layout: the shipment's 32-byte digest, then the manifest
// payload above. The digest is a SHA-256 over the manifest and the column
// frames, each prefixed by its u64 length (shipmentDigest): equal digests
// mean the same partition of the same table version, whoever shipped it.

// partDigest is the content digest that names a shipped partition.
type partDigest [sha256.Size]byte

// shipmentDigest returns the digest of a shipment's manifest and frames.
func shipmentDigest(manifest []byte, data [][]byte) partDigest {
	h := sha256.New()
	hashPiece(h, manifest)
	for _, d := range data {
		hashPiece(h, d)
	}
	var d partDigest
	h.Sum(d[:0])
	return d
}

// hashPiece adds one length-prefixed piece of a shipment to its digest.
func hashPiece(h hash.Hash, b []byte) {
	h.Write(binary.LittleEndian.AppendUint64(make([]byte, 0, 8), uint64(len(b))))
	h.Write(b)
}

// decodePartOffer decodes one offer payload occupying all of data.
func decodePartOffer(data []byte) (partDigest, *partManifest, error) {
	var d partDigest
	if len(data) < len(d) {
		return d, nil, fmt.Errorf("shard: partition offer of %d bytes is shorter than its digest", len(data))
	}
	copy(d[:], data)
	m, err := decodePartManifest(data[len(d):])
	return d, m, err
}

// partStore is a worker's store of resident table partitions, shared by all
// of its sessions and keyed by content digest, so a partition shipped once
// is offered — not sent — to every later session of the same worker. Each
// session binds table names to resident partitions (partSession) and pins
// what it binds until it ends. A partition no session pins is freed as soon
// as a newer partition of the same table name is resident: a table version
// superseded by an append or a merge leaves the worker with the last session
// that scanned it.
type partStore struct {
	mu sync.Mutex
	// limit caps the bytes resident partitions and transfers in flight keep
	// — the received frames the adopted columns point into, plus the strings
	// their heaps became (dictionary, run and raw-chunk values); 0 = none. A
	// transfer that would cross it first evicts unpinned partitions, oldest
	// first, and is poisoned only when that is not enough.
	limit int64
	used  int64
	res   map[partDigest]*residentPart
	seq   uint64
	// frames counts the data frames received, across sessions: zero on a
	// worker every offer of which found its partition resident.
	frames int64
}

// residentPart is one adopted partition held by the store.
type residentPart struct {
	digest partDigest
	table  string
	st     engine.ScanTable
	bytes  int64
	pins   int    // sessions binding it
	seq    uint64 // residency order: a larger seq is newer
}

func newPartStore(limit int64) *partStore {
	return &partStore{limit: limit, res: make(map[partDigest]*residentPart)}
}

// evictSuperseded frees the unpinned partitions of table other than its
// newest resident one; the caller holds mu.
func (p *partStore) evictSuperseded(table string) {
	var newest *residentPart
	for _, r := range p.res {
		if r.table == table && (newest == nil || r.seq > newest.seq) {
			newest = r
		}
	}
	for d, r := range p.res {
		if r.table == table && r != newest && r.pins == 0 {
			p.used -= r.bytes
			delete(p.res, d)
		}
	}
}

// fit evicts unpinned partitions, oldest first, until the store is within
// its limit, and reports whether it is; the caller holds mu.
func (p *partStore) fit() bool {
	for p.limit > 0 && p.used > p.limit {
		var oldest *residentPart
		for _, r := range p.res {
			if r.pins == 0 && (oldest == nil || r.seq < oldest.seq) {
				oldest = r
			}
		}
		if oldest == nil {
			return false
		}
		p.used -= oldest.bytes
		delete(p.res, oldest.digest)
	}
	return true
}

// partRecv is one in-flight partition transfer on a worker session.
type partRecv struct {
	digest partDigest
	m      *partManifest
	adopt  *storage.TableAdopter
	hash   hash.Hash // the digest of what has arrived so far
	bytes  int64     // charged to the store while the transfer is in flight
	skip   bool      // poisoned or complete: drain remaining data frames silently
}

// partSession is one worker session's view of the store: the table names it
// has bound to resident partitions — the scan source the session installs on
// every scan fragment it Prepares — its transfers in flight, and the tables
// poisoned for it. Its methods run on the session's frame loop (frames
// arrive in order, and frameSetup — the only reader, via source — is a frame
// too), so only the shared store locks; the resolved engine.ScanTable a
// fragment captures at Prepare is immutable and outlives any eviction.
type partSession struct {
	store *partStore
	recv  map[uint64]*partRecv
	tabs  map[string]*residentPart
	errs  map[string]error
}

func (p *partStore) session() *partSession {
	return &partSession{
		store: p,
		recv:  make(map[uint64]*partRecv),
		tabs:  make(map[string]*residentPart),
		errs:  make(map[string]error),
	}
}

// offer answers one partition offer: resident (the session now binds the
// table to the store's partition of that digest, and no data follows) or
// send (the data frames follow under the offer's id). An offer of a table
// the session already binds is resident when the digests agree. The
// returned error means protocol corruption — the session drops: a
// malformed offer, a reused id, or a table the session binds to other
// contents.
func (ps *partSession) offer(id uint64, payload []byte) (resident bool, err error) {
	digest, m, err := decodePartOffer(payload)
	if err != nil {
		return false, err
	}
	if _, dup := ps.recv[id]; dup {
		return false, fmt.Errorf("shard: partition id %d reused", id)
	}
	if bound, ok := ps.tabs[m.Table]; ok {
		if bound.digest != digest {
			return false, fmt.Errorf("shard: offer of %q with other contents than the session's", m.Table)
		}
		return true, nil
	}
	p := ps.store
	p.mu.Lock()
	r := p.res[digest]
	if r != nil {
		r.pins++
	}
	p.mu.Unlock()
	if r != nil {
		ps.tabs[m.Table] = r
		return true, nil
	}
	rv := &partRecv{digest: digest, m: m, hash: sha256.New()}
	hashPiece(rv.hash, payload[len(digest):])
	ps.recv[id] = rv
	if _, poisoned := ps.errs[m.Table]; poisoned {
		rv.skip = true
	} else if rv.adopt, err = storage.NewTableAdopter(m.Table, m.PageSize, int(m.Rows), m.Compressed, m.Cols.Names(), m.Cols.Kinds()); err != nil {
		ps.poison(rv, err)
	}
	return false, nil
}

// addData verifies one column frame and adopts it into its transfer,
// publishing the partition when the last column completes. The returned
// error means protocol corruption — a frame that fails its checksum or its
// structure, a kind the manifest did not declare, rows past the manifest's
// total, or a completed transfer whose bytes do not match the offer's
// digest; the resource limit instead poisons the table, failing its scans as
// work errors without dropping the session.
func (ps *partSession) addData(id uint64, payload []byte) error {
	r := ps.recv[id]
	if r == nil {
		return fmt.Errorf("shard: partition data for unknown id %d", id)
	}
	p := ps.store
	p.mu.Lock()
	p.frames++
	p.mu.Unlock()
	if r.skip {
		return nil
	}
	resident, done, err := r.adopt.Add(payload)
	if err != nil {
		return fmt.Errorf("shard: partition frame: %w", err)
	}
	hashPiece(r.hash, payload)
	p.mu.Lock()
	p.used += resident
	r.bytes += resident
	fits := p.fit()
	p.mu.Unlock()
	if !fits {
		ps.poison(r, fmt.Errorf("shard: partition for %q exceeds the worker's %d-byte partition limit", r.m.Table, p.limit))
		return nil
	}
	if !done {
		return nil
	}
	var sum partDigest
	if r.hash.Sum(sum[:0]); sum != r.digest {
		ps.poison(r, nil)
		return fmt.Errorf("shard: partition of %q does not match the digest it was offered under", r.m.Table)
	}
	tab, err := r.adopt.Table()
	if err != nil {
		ps.poison(r, err)
		return nil
	}
	p.mu.Lock()
	res := p.res[r.digest]
	if res == nil {
		p.seq++
		res = &residentPart{digest: r.digest, table: r.m.Table, bytes: r.bytes, seq: p.seq,
			st: engine.ScanTable{Tab: tab, Map: NewRangeMap(r.m.Segs).Map}}
		p.res[r.digest] = res
	} else {
		p.used -= r.bytes // another session published it first
	}
	res.pins++
	p.evictSuperseded(r.m.Table)
	p.mu.Unlock()
	ps.tabs[r.m.Table] = res
	r.adopt, r.bytes, r.skip = nil, 0, true
	return nil
}

// poison records why the table's partition is unusable for this session
// (err nil: the session is dropping anyway) and frees the partial transfer;
// the table's scan fragments fail Prepare with the cause.
func (ps *partSession) poison(r *partRecv, err error) {
	if err != nil {
		ps.errs[r.m.Table] = err
	}
	ps.store.mu.Lock()
	ps.store.used -= r.bytes
	ps.store.mu.Unlock()
	r.bytes, r.adopt, r.skip = 0, nil, true
}

// end releases the session's hold on the store when the session ends: its
// transfers in flight are freed and its partitions unpinned, each freed at
// once when a newer partition of its table is resident.
func (ps *partSession) end() {
	p := ps.store
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range ps.recv {
		p.used -= r.bytes
		r.bytes, r.adopt, r.skip = 0, nil, true
	}
	for table, r := range ps.tabs {
		r.pins--
		p.evictSuperseded(table)
	}
	ps.tabs = nil
}

// source is the engine.ScanSource a scan fragment resolves its table
// through at Prepare.
func (ps *partSession) source(table string) (engine.ScanTable, error) {
	if r, ok := ps.tabs[table]; ok {
		return r.st, nil
	}
	if err, ok := ps.errs[table]; ok {
		return engine.ScanTable{}, err
	}
	return engine.ScanTable{}, fmt.Errorf("shard: no partition of %q bound to this session", table)
}

// partFrameBytes is the size at which a column frame of a shipment is closed
// (storage.Table.Frames): large enough that a partition is a few dozen
// messages, small enough that no frame approaches wire.MaxPayload or
// wire.WriteTimeout however large the table.
const partFrameBytes = 4 << 20

// partShipment is the serialised form of one worker's partition of one
// table: the payload bytes shipPartition offers and frames per session. It
// is built once per table version (shipmentsOf) and shared read-only by
// every set, session and re-ship from then on.
type partShipment struct {
	digest partDigest
	offer  []byte // the part-offer payload: digest, then manifest
	data   [][]byte
	saved  int64 // the partition's raw bytes less its frames', credited as wire savings
}

// manifest returns the shipment's manifest payload.
func (s *partShipment) manifest() []byte { return s.offer[len(s.digest):] }

// buildPartShipment builds the table a worker holds — the given segments of
// tab in ship order, compressed when tab is, exactly the rows and the order
// the worker's RangeMap assumes — serialises it and digests it. The local
// table itself is dropped: the chunks live on in the frames. Extraction is a
// copy of the coordinator's in-memory table, not a scan: shipping is network
// work, metered on the frames by the session's network accountant, not
// modeled device IO.
func buildPartShipment(tab *storage.Table, segs storage.RowRanges) (*partShipment, error) {
	local, err := tab.Extract(segs)
	if err != nil {
		return nil, err
	}
	manifest := encodePartManifest(tab, segs, nil)
	s := &partShipment{data: local.Frames(partFrameBytes)}
	s.digest = shipmentDigest(manifest, s.data)
	s.offer = append(append(make([]byte, 0, len(s.digest)+len(manifest)), s.digest[:]...), manifest...)
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
			if ships[w], err = buildPartShipment(tab, p.Segments(w)); err != nil {
				return nil // not kept
			}
		}
		return ships
	}
	ships, _ := tab.Derived(shipKey(p.Workers), build).([]*partShipment)
	for w, s := range ships {
		if !bytes.Equal(s.manifest(), encodePartManifest(tab, p.Segments(w), nil)) {
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
