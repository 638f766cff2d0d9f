package plan

import (
	"bdcc/internal/catalog"
	"bdcc/internal/core"
)

// sharedPair couples a probe-base use with a build-base use of the same
// dimension such that the join's equated keys imply equal (prefix) bins on
// both sides — the applicability condition for sandwich operators and for
// restriction transfer across the join.
type sharedPair struct {
	uP *core.DimensionUse
	uR *core.DimensionUse
}

// useChoice is the grouping assignment of a base scan: scatter-scan in major
// order of this use, exposing the given number of group bits.
type useChoice struct {
	use  *core.DimensionUse
	bits int
}

// sharedDims finds all use pairs of probe base P and build base R whose bins
// are equated by the join keys. Three structural cases (DESIGN.md):
//
//	forward:   P reaches the dimension through the joined foreign key and
//	           onward along R's own path (uP.Path = …fk… ++ uR.Path with fk
//	           landing on R) — LINEITEM⋈ORDERS over FK_L_O;
//	common:    both sides hop over distinct foreign keys onto the same third
//	           table and continue identically — LINEITEM⋈PARTSUPP where
//	           FK_L_P and FK_PS_P both land on PART;
//	reverse:   the foreign key belongs to the build side and lands on P —
//	           CUSTOMER⋈ORDERS with FK_O_C (the paper's Q13 sandwich).
func (p *Planner) sharedDims(P, R *core.BDCCTable, leftKeys, rightKeys []string) []sharedPair {
	var out []sharedPair
	schema := p.DB.Schema
	for _, uP := range P.Uses {
		for _, uR := range R.Uses {
			if uP.Dim != uR.Dim {
				continue
			}
			if matchForward(schema, uP, uR, R.Name, leftKeys, rightKeys) ||
				matchCommon(schema, uP, uR, R.Name, leftKeys, rightKeys) ||
				matchReverse(schema, uP, uR, P.Name, leftKeys, rightKeys) {
				out = append(out, sharedPair{uP: uP, uR: uR})
			}
		}
	}
	return out
}

// keyPairs reports whether every (aCols[i], bCols[i]) pair is equated by the
// join keys (aKeys[j] == aCols[i] with bKeys[j] == bCols[i]).
func keyPairs(aCols, bCols, aKeys, bKeys []string) bool {
	if len(aCols) != len(bCols) || len(aCols) == 0 {
		return false
	}
	for i := range aCols {
		found := false
		for j := range aKeys {
			if aKeys[j] == aCols[i] && bKeys[j] == bCols[i] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// stripAlias removes the "<alias>_" rename prefix from key names so they
// match catalog column names again.
func stripAlias(alias string, keys []string) []string {
	prefix := alias + "_"
	out := make([]string, len(keys))
	for i, k := range keys {
		if len(k) > len(prefix) && k[:len(prefix)] == prefix {
			out[i] = k[len(prefix):]
		} else {
			out[i] = k
		}
	}
	return out
}

func pathsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func matchForward(schema *catalog.Schema, uP, uR *core.DimensionUse, buildTable string, leftKeys, rightKeys []string) bool {
	k := len(uP.Path) - len(uR.Path)
	if k < 1 || !pathsEqual(uP.Path[k:], uR.Path) {
		return false
	}
	fk := schema.FK(uP.Path[k-1])
	return fk != nil && fk.RefTable == buildTable && keyPairs(fk.Cols, fk.RefCols, leftKeys, rightKeys)
}

func matchCommon(schema *catalog.Schema, uP, uR *core.DimensionUse, buildTable string, leftKeys, rightKeys []string) bool {
	if len(uR.Path) < 1 {
		return false
	}
	fkR := schema.FK(uR.Path[0])
	if fkR == nil || fkR.Table != buildTable {
		return false
	}
	k := len(uP.Path) - (len(uR.Path) - 1)
	if k < 1 || !pathsEqual(uP.Path[k:], uR.Path[1:]) {
		return false
	}
	fkP := schema.FK(uP.Path[k-1])
	return fkP != nil && fkP.RefTable == fkR.RefTable && pathsEqual(fkP.RefCols, fkR.RefCols) &&
		keyPairs(fkP.Cols, fkR.Cols, leftKeys, rightKeys)
}

func matchReverse(schema *catalog.Schema, uP, uR *core.DimensionUse, probeTable string, leftKeys, rightKeys []string) bool {
	k := len(uR.Path) - len(uP.Path)
	if k < 1 || !pathsEqual(uR.Path[k:], uP.Path) {
		return false
	}
	fk := schema.FK(uR.Path[k-1])
	return fk != nil && fk.RefTable == probeTable && keyPairs(fk.RefCols, fk.Cols, leftKeys, rightKeys)
}

// probeChild steps down a pipeline: to the probe (left) child of a join, or
// through a group-preserving unary operator (filters, projections,
// aggregations that may flush per group); nil where the pipeline ends — at a
// leaf, or at a sort, which regroups its input.
func probeChild(n Node) Node {
	switch n.(type) {
	case *OrderBy, *TopNNode:
		return nil
	}
	if c := n.children(); len(c) > 0 {
		return c[0]
	}
	return nil
}

// baseScan walks to the base scan of a pipeline, nil if it ends elsewhere.
func baseScan(n Node) *Scan {
	for ; n != nil; n = probeChild(n) {
		if s, ok := n.(*Scan); ok {
			return s
		}
	}
	return nil
}

// preanalyze decides, before lowering, which dimension use every join chain
// aligns on and therefore which base scans become scatter scans. A chain is
// the sequence of joins along probe (left) children; all its sandwich joins
// share one alignment dimension so the probe stream's group order serves
// every join (the build side of each sandwiched join is forced to group on
// its matched use). Joins in the chain that do not share the chosen
// dimension stay hash joins — the probe's group tags pass through them
// unharmed.
func (p *Planner) preanalyze(n Node, forced *core.DimensionUse) {
	switch t := n.(type) {
	case *Join:
		p.analyzeChain(t, forced)
		return
	case *OrderBy, *TopNNode:
		forced = nil
	}
	for _, c := range n.children() {
		p.preanalyze(c, forced)
	}
}

// analyzeChain handles one join chain rooted at top.
func (p *Planner) analyzeChain(top *Join, forced *core.DimensionUse) {
	// Collect the spine of joins down the probe side.
	var spine []*Join
	for n := Node(top); n != nil; n = probeChild(n) {
		if j, ok := n.(*Join); ok {
			spine = append(spine, j)
		}
	}
	base := baseScan(spine[len(spine)-1].Left)
	var P *core.BDCCTable
	if base != nil && base.Alias == "" {
		P = p.DB.BDCCTable(base.Table)
	}
	if P == nil {
		for _, j := range spine {
			p.preanalyze(j.Right, nil)
		}
		return
	}
	// Shared pairs per join, innermost first.
	type joinShared struct {
		j     *Join
		pairs []sharedPair
	}
	var shared []joinShared
	counts := make(map[*core.DimensionUse]int)
	for i := len(spine) - 1; i >= 0; i-- {
		j := spine[i]
		var pairs []sharedPair
		rbase := baseScan(j.Right)
		if rbase != nil {
			if R := p.DB.BDCCTable(rbase.Table); R != nil {
				// Aliased scans rename columns "<alias>_<col>"; strip the
				// prefix so self-joins (TPC-H Q21's lineitem l2/l3) can
				// still be matched and sandwiched.
				rightKeys := j.RightKeys
				if rbase.Alias != "" {
					rightKeys = stripAlias(rbase.Alias, j.RightKeys)
				}
				pairs = p.sharedDims(P, R, j.LeftKeys, rightKeys)
			}
		}
		shared = append(shared, joinShared{j: j, pairs: pairs})
		p.joinPairs[j] = pairs
		seen := map[*core.DimensionUse]bool{}
		for _, pr := range pairs {
			if !seen[pr.uP] {
				seen[pr.uP] = true
				counts[pr.uP]++
			}
		}
	}
	// Choose the alignment use: the forced one if the parent sandwiches this
	// subtree, else the use shared by the most joins (ties: use order).
	var star *core.DimensionUse
	if forced != nil {
		star = forced
	} else {
		best := 0
		for _, u := range P.Uses {
			if c := counts[u]; c > best {
				best = c
				star = u
			}
		}
	}
	if star != nil {
		p.scanChoice[base] = &useChoice{use: star, bits: core.Ones(star.Mask)}
		for _, js := range shared {
			for _, pr := range js.pairs {
				if pr.uP == star {
					pair := pr
					p.alignment[js.j] = &pair
					break
				}
			}
		}
	}
	// Recurse into build sides, forcing the matched use where sandwiched.
	for _, js := range shared {
		var buildForced *core.DimensionUse
		if al := p.alignment[js.j]; al != nil {
			buildForced = al.uR
			// The build base scan must scatter on the matched use even if
			// the build side has no joins of its own.
			if rbase := baseScan(js.j.Right); rbase != nil {
				if _, isJoin := js.j.Right.(*Join); !isJoin {
					p.scanChoice[rbase] = &useChoice{use: al.uR, bits: core.Ones(al.uR.Mask)}
				}
			}
		}
		p.preanalyze(js.j.Right, buildForced)
	}
}
