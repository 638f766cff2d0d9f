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
		out[w] = Shipped{s.manifest, s.data}
	}
	return out, err
}

// Adopt runs a shipment through a worker session's partition store, as the
// frame loop would, and returns the table its scans resolve to.
func Adopt(s Shipped) (*storage.Table, error) {
	store := newPartStore(0)
	if err := store.addManifest(1, s.Manifest); err != nil {
		return nil, err
	}
	for _, f := range s.Frames {
		if err := store.addData(1, f); err != nil {
			return nil, err
		}
	}
	m, err := decodePartManifest(s.Manifest)
	if err != nil {
		return nil, err
	}
	st, err := store.source(m.Table)
	return st.Tab, err
}
