package shard

import "bdcc/internal/storage"

// Hooks for ship_test.go, an external test package: it needs internal/tpch
// for real lineitem and orders tables, which this package cannot import.

// Shipped is one worker's serialised partition.
type Shipped struct {
	Manifest []byte
	Frames   [][]byte
}

// ShipmentsOf is shipmentsOf: the memoised shipments of tab under p.
func ShipmentsOf(tab *storage.Table, p *Partitioning) ([]Shipped, error) {
	ships, err := shipmentsOf(tab, p)
	out := make([]Shipped, len(ships))
	for w, s := range ships {
		out[w] = Shipped{s.manifest(), s.data}
	}
	return out, err
}

// Adopt runs a shipment through a fresh worker's partition store, as a
// session's frame loop would, and returns the table its scans resolve to.
func Adopt(s Shipped) (*storage.Table, error) {
	d := shipmentDigest(s.Manifest, s.Frames)
	sess := newPartStore(0).session()
	if _, err := sess.offer(1, append(d[:], s.Manifest...)); err != nil {
		return nil, err
	}
	for _, f := range s.Frames {
		if err := sess.addData(1, f); err != nil {
			return nil, err
		}
	}
	m, err := decodePartManifest(s.Manifest)
	if err != nil {
		return nil, err
	}
	st, err := sess.source(m.Table)
	return st.Tab, err
}

// FleetServers returns the process-lifetime workers NewSet(n, workers) opens
// its sessions on.
func FleetServers(n, workers int) []*Server { return fleet(n, workers) }

// PartFrames returns how many partition data frames s has received.
func PartFrames(s *Server) int64 {
	s.parts.mu.Lock()
	defer s.parts.mu.Unlock()
	return s.parts.frames
}

// ResidentParts returns, per table name, how many partitions s holds, and
// the bytes they and any transfers in flight keep.
func ResidentParts(s *Server) (map[string]int, int64) {
	s.parts.mu.Lock()
	defer s.parts.mu.Unlock()
	n := make(map[string]int)
	for _, r := range s.parts.res {
		n[r.table]++
	}
	return n, s.parts.used
}

// FlipOfferDigests flips a bit of the digest each memoised shipment of tab
// for that many workers offers, so its frames no longer match what it
// claims; a second call flips it back.
func FlipOfferDigests(tab *storage.Table, workers int) {
	ships, _ := tab.Derived(shipKey(workers), func() any { return nil }).([]*partShipment)
	for _, s := range ships {
		s.offer[0] ^= 1
	}
}
