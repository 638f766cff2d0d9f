package plan

import (
	"maps"

	"bdcc/internal/catalog"
	"bdcc/internal/core"
	"bdcc/internal/expr"
	"bdcc/internal/vector"
)

// restrictions maps dimension uses (by useKey, anchored at one base table)
// to the bin sets their rows are known to fall into. These are the planner's
// currency for the paper's selection pushdown and selection propagation:
// they are produced at scans from predicates on dimension keys, transferred
// across joins whose foreign-key paths connect matched uses, and finally
// consumed by the count-table restriction of BDCC scans. Bin sets are
// core.BinSet bitsets: absent means unrestricted, and a stored set is never
// mutated — restrictions, memos and replays alias them.
type restrictions map[string]core.BinSet

// useKey identifies a dimension use within its base table.
func useKey(u *core.DimensionUse) string {
	return u.Dim.Name + "|" + u.PathString()
}

// and restricts use k to bins, intersecting with what is already known
// there into a fresh set so neither input is mutated.
func (r restrictions) and(k string, bins core.BinSet) {
	if cur, ok := r[k]; ok {
		bins = cur.And(bins)
	}
	r[k] = bins
}

// intersectInto merges other into r, intersecting overlapping entries.
func (r restrictions) intersectInto(other restrictions) {
	for k, bins := range other {
		r.and(k, bins)
	}
}

// clone returns a shallow copy (bin sets shared; they are never mutated
// after construction).
func (r restrictions) clone() restrictions { return maps.Clone(r) }

// addLeadingRange adds to set the bins covering a closed interval on the
// leading key column of a dimension. Either bound may be nil.
func addLeadingRange(set core.BinSet, dim *core.Dimension, kind vector.Kind, loI, hiI *int64, loS, hiS *string) {
	mk := func(i *int64, s *string, closeHi bool) *core.KeyVal {
		part := core.KeyPart{IsStr: kind == vector.String}
		switch {
		case part.IsStr && s != nil:
			part.S = *s
		case !part.IsStr && i != nil:
			part.I = *i
		default:
			return nil
		}
		parts := []core.KeyPart{part}
		if closeHi && len(dim.Key) > 1 {
			parts = append(parts, core.InfPart())
		}
		return &core.KeyVal{Parts: parts}
	}
	set.AddRange(dim.BinRange(mk(loI, loS, false), mk(hiI, hiS, true)))
}

// localScanRestrictions derives static restrictions from a scan filter: for
// every local dimension use of the table, a conjunct restricting the
// dimension's leading key column to an interval or an IN list yields a bin
// set ("selection pushdown for a dimension ... used for clustering a
// table").
func localScanRestrictions(bt *core.BDCCTable, filter expr.Expr) restrictions {
	if filter == nil {
		return restrictions{}
	}
	out := restrictions{}
	implied := expr.ImpliedRanges(filter, bt.Data.Scale)
	for _, u := range bt.Uses {
		if len(u.Path) != 0 {
			continue
		}
		lead := u.Dim.Key[0]
		if r, ok := implied[lead]; ok && (r.HasLo || r.HasHi) {
			var loI, hiI *int64
			var loS, hiS *string
			if r.HasLo {
				loI, loS = &r.LoI, &r.LoS
			}
			if r.HasHi {
				hiI, hiS = &r.HiI, &r.HiS
			}
			bins := core.NewBinSet(u.Dim.NumBins())
			addLeadingRange(bins, u.Dim, r.Kind, loI, hiI, loS, hiS)
			out[useKey(u)] = bins
		}
		// IN lists with several constants escape ImpliedRanges; handle them
		// directly, each number in the column's stored units (a list with a
		// number not exact at its decimal scale restricts nothing).
	conjuncts:
		for _, c := range expr.Conjuncts(filter) {
			in, ok := c.(*expr.InList)
			if !ok || in.Negate || len(in.Values) < 2 {
				continue
			}
			col, ok := in.Arg.(*expr.Col)
			if !ok || col.Name != lead {
				continue
			}
			bins := core.NewBinSet(u.Dim.NumBins())
			for _, v := range in.Values {
				if v.K == vector.String {
					addLeadingRange(bins, u.Dim, vector.String, nil, nil, &v.S, &v.S)
				} else if x, ok := expr.Exact(v, bt.Data.Scale(lead)); ok {
					addLeadingRange(bins, u.Dim, vector.Int64, &x.I, &x.I, nil, nil)
				} else {
					continue conjuncts
				}
			}
			out.and(useKey(u), bins)
		}
	}
	return out
}

// keyUse is a dimension use of a probe base table that values of one probe
// stream column can restrict: through idx, the key→bin index of the path hop
// whose foreign key fk is that column, or — both nil — as the leading key
// column of a local dimension (the region→nation prefix-range rewrite).
type keyUse struct {
	u   *core.DimensionUse
	fk  *catalog.ForeignKey
	idx *core.KeyBins
}

// keyUses returns the uses of bt that values of probe stream column probeCol
// can restrict — the paper's "a region equi-selection determines a
// consecutive D_NATION bin range" generalized to key sets at any depth of a
// dimension path; none means the values say nothing about bt. A hop h > 0 is
// only sound if every earlier hop's foreign key is equated by joins inside
// the probe subtree (the self-join safety condition). The key→bin mapping of
// a hop is the materialized design's (core.KeyBins): binning allocates the
// bin set and nothing that grows with the reference table.
func (p *Planner) keyUses(bt *core.BDCCTable, probeCol string, probe Node) []keyUse {
	var out []keyUse
	equated := make(map[string]bool)
	equatedPairs(probe, equated)
	for _, u := range bt.Uses {
		if len(u.Path) == 0 && probeCol == u.Dim.Key[0] {
			out = append(out, keyUse{u: u})
		}
	hops:
		for h, name := range u.Path {
			fk := p.DB.Schema.FK(name)
			if fk == nil {
				break
			}
			if len(fk.Cols) == 1 && fk.Cols[0] == probeCol {
				if idx := p.DB.Clustered.KeyBins(u.Dim.Name, u.Path[h:]); idx != nil {
					out = append(out, keyUse{u, fk, idx})
				}
				break
			}
			for i := range fk.Cols {
				if !equated[fk.Cols[i]+"="+fk.RefCols[i]] {
					break hops
				}
			}
		}
	}
	return out
}

// addBins adds the bins of vals, which ascend, to set.
func (ku keyUse) addBins(set core.BinSet, vals []int64) {
	if ku.idx != nil {
		ku.idx.AddBins(set, vals)
		return
	}
	for _, v := range vals {
		addLeadingRange(set, ku.u.Dim, vector.Int64, &v, &v, nil, nil)
	}
}

// equatedPairs collects the column equalities established by equi-joins in
// a subtree, as "a=b" strings in both orders.
func equatedPairs(n Node, out map[string]bool) {
	if t, ok := n.(*Join); ok {
		for i := range t.LeftKeys {
			out[t.LeftKeys[i]+"="+t.RightKeys[i]] = true
			out[t.RightKeys[i]+"="+t.LeftKeys[i]] = true
		}
	}
	for _, c := range n.children() {
		equatedPairs(c, out)
	}
}
