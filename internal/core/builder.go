package core

import (
	"fmt"

	"bdcc/internal/catalog"
	"bdcc/internal/storage"
)

// Database is a materialized BDCC design: the created dimensions and the
// re-clustered tables. Tables without a design keep their plain layout and
// are not present here (the query planner falls back to the original stored
// table, as the paper's setup does for REGION).
type Database struct {
	Design     *Design
	Dimensions map[string]*Dimension
	Tables     map[string]*BDCCTable
	// keyBins holds the key→bin index of every path hop of the design (see
	// KeyBins), by keyBinsKey.
	keyBins map[string]*KeyBins
}

// Builder materializes a Design over stored tables: it creates each
// dimension from the frequency histogram over the union of all using tables
// joined over their dimension paths (Algorithm 2 (ii), following the
// companion tech report), then BDCC-clusters every designed table at a
// self-tuned granularity (Algorithm 2 (iii) / Algorithm 1).
type Builder struct {
	Schema  *catalog.Schema
	Tables  map[string]*storage.Table
	Options BuildOptions
	// ForceBitsPerTable pins count-table granularities per table (ablation
	// experiments); absent tables self-tune.
	ForceBitsPerTable map[string]int
	// Frozen, when set, is a build of the same design whose dimensions (so
	// bin boundaries do not move under the data) and count-table
	// granularities Build keeps: a rebuild from scratch under a frozen
	// design, the reference the ingest tests hold a merge to.
	Frozen *Database
}

// Build materializes the design.
func (b *Builder) Build(design *Design) (*Database, error) {
	db := &Database{
		Design:     design,
		Dimensions: make(map[string]*Dimension),
		Tables:     make(map[string]*BDCCTable),
	}
	ub := newUseBins(b.Schema, b.Tables, db)
	res := ub.res
	for _, spec := range design.Dimensions {
		if b.Frozen != nil {
			db.Dimensions[spec.Name] = b.Frozen.Dimensions[spec.Name]
			continue
		}
		dim, err := b.createDimension(design, spec, res)
		if err != nil {
			return nil, err
		}
		if err := dim.Validate(); err != nil {
			return nil, err
		}
		db.Dimensions[spec.Name] = dim
	}
	for _, td := range design.Tables {
		data, err := res.Table(td.Table)
		if err != nil {
			return nil, err
		}
		uses, err := ub.bind(td.Table)
		if err != nil {
			return nil, err
		}
		opt := b.Options
		if fb, ok := b.ForceBitsPerTable[td.Table]; ok {
			opt.ForceBits = fb
		}
		if b.Frozen != nil {
			opt.ForceBits = b.Frozen.Tables[td.Table].Bits
		}
		bt, err := BuildBDCCTable(td.Table, data, uses, opt)
		if err != nil {
			return nil, err
		}
		if err := bt.Validate(); err != nil {
			return nil, err
		}
		db.Tables[td.Table] = bt
	}
	var err error
	if db.keyBins, err = ub.keyBins(""); err != nil {
		return nil, err
	}
	return db, nil
}

// createDimension builds the frequency histogram for one dimension over the
// union of all using tables joined over their paths and cuts it into bins.
// Every host-table row contributes at least weight 1 so the mapping stays
// surjective over the stored key domain even for values no fact references.
func (b *Builder) createDimension(design *Design, spec *DimensionSpec, res *Resolver) (*Dimension, error) {
	host, err := res.Table(spec.Table)
	if err != nil {
		return nil, err
	}
	keys, err := KeyValues(host, spec.Key, 0, host.Rows())
	if err != nil {
		return nil, fmt.Errorf("core: dimension %s: %w", spec.Name, err)
	}
	weights := make([]int64, host.Rows())
	for i := range weights {
		weights[i] = 1
	}
	for _, td := range design.Tables {
		for _, us := range td.Uses {
			if us.Dim != spec.Name {
				continue
			}
			hostRows, err := res.HostRows(td.Table, us.Path)
			if err != nil {
				return nil, fmt.Errorf("core: dimension %s via %s.%s: %w", spec.Name, td.Table, us.PathString(), err)
			}
			for _, hr := range hostRows {
				weights[hr]++
			}
		}
	}
	obs := make([]WeightedKey, len(keys))
	for i := range keys {
		obs[i] = WeightedKey{Val: keys[i], Weight: weights[i]}
	}
	maxBits := DimensionBits(int64(distinctCount(keys)), spec.MaxBits)
	return CreateDimension(spec.Name, spec.Table, spec.Key, obs, maxBits)
}

// distinctCount counts distinct key values (keys need not be sorted).
func distinctCount(keys []KeyVal) int {
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		seen[k.String()] = true
	}
	return len(seen)
}

// binsForUse resolves, for every row of the using table, the bin number of
// the dimension value reached over the use's path.
func binsForUse(res *Resolver, db *Database, table string, us UseSpec) ([]uint64, error) {
	dim := db.Dimensions[us.Dim]
	host, err := res.Table(dim.Table)
	if err != nil {
		return nil, err
	}
	hostKeys, err := KeyValues(host, dim.Key, 0, host.Rows())
	if err != nil {
		return nil, err
	}
	hostBins := make([]uint64, len(hostKeys))
	for i, k := range hostKeys {
		hostBins[i] = dim.BinOf(k)
	}
	hostRows, err := res.HostRows(table, us.Path)
	if err != nil {
		return nil, err
	}
	bins := make([]uint64, len(hostRows))
	for i, hr := range hostRows {
		bins[i] = hostBins[hr]
	}
	return bins, nil
}
