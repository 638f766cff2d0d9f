// Package plan defines logical query plans and lowers them to physical
// operator trees per storage scheme — the reproduction's three competitors:
//
//   - Plain: unindexed insertion-order tables; hash joins and hash
//     aggregation everywhere, MinMax (zonemap) pruning structurally present
//     but ineffective without clustering.
//   - PK: tables sorted on their primary keys; merge joins where both inputs
//     share the key order (LINEITEM⋈ORDERS, PART⋈PARTSUPP) and streaming
//     aggregation over key order.
//   - BDCC: the paper's scheme. The planner rewrites selections on dimension
//     keys into count-table group restrictions (selection pushdown),
//     propagates restrictions across joins whose foreign-key paths connect
//     co-clustered tables (selection propagation), pre-executes the small
//     dimension-side subtrees whose key sets can prune (canPrune) to turn
//     their selections into bin sets (the paper's "region equi-selection
//     determines a consecutive D_NATION bin range" rewrite), places sandwich
//     operators on joins and aggregations aligned on shared dimensions, and
//     leaves tuple-level predicates in the scans so every rewrite only needs
//     to be conservative.
//
// One logical plan per query is written once; lowering it under the three
// schemes is what makes the reproduction's comparisons apples-to-apples.
//
// Planning-time bin lookups. A restriction is a core.BinSet per dimension
// use: a bitset over the dimension's bins, absent (nil) when the use is
// unrestricted, never mutated once built — intersections make a fresh set,
// so restrictions, recorded memos and concurrent replays alias sets freely.
// The planner owns no value→bin state of its own: a pre-executed key set
// becomes bins through the core.KeyBins indexes of the core.Database the
// planner's DB (or pinned snapshot) already holds, so planning allocates
// nothing that grows with a reference table and two planners never repeat
// each other's work.
//
// Ingest (ingest.go). An Ingest appends batches to a DB and publishes one
// immutable version per append or merge; DB.Snapshot pins one. An append
// costs the batch — a designed table's clustering is spliced as runs by
// core.Database.AppendRows (BDCC), any other table's layout as runs placed
// behind its rows or, under PK, by binary search on its keys — is atomic (a
// rejected batch leaves store, counters and published version untouched),
// and, like Merge, handles parents before the children that reference them.
package plan

import (
	"bdcc/internal/engine"
	"bdcc/internal/expr"
)

// Node is a logical plan node; children are its inputs, the probe side of a
// join first.
type Node interface{ children() []Node }

// Scan reads a base table. Filter is expressed over the table's original
// column names; when Alias is set, every output column is renamed
// "<alias>_<name>" after filtering, so self-joined tables stay
// distinguishable further up the plan.
type Scan struct {
	Table  string
	Alias  string
	Cols   []string
	Filter expr.Expr
}

// Join is an equi-join; Left is the probe side (put the fact pipeline
// here), Right the build side. Residual is an extra non-equi condition over
// the combined row (left columns then right columns).
type Join struct {
	Left, Right         Node
	LeftKeys, RightKeys []string
	Type                engine.JoinType
	Residual            expr.Expr
}

// Agg groups by columns and computes aggregates.
type Agg struct {
	Child   Node
	GroupBy []string
	Aggs    []engine.AggSpec
}

// Project computes scalar expressions.
type Project struct {
	Child Node
	Cols  []engine.ProjCol
}

// FilterNode applies a predicate above other operators (scan-level
// predicates belong in Scan.Filter).
type FilterNode struct {
	Child Node
	Pred  expr.Expr
}

// OrderBy sorts the (usually already aggregated) stream.
type OrderBy struct {
	Child Node
	By    []engine.SortSpec
}

// LimitNode truncates the stream after N rows.
type LimitNode struct {
	Child Node
	N     int
}

// TopNNode is OrderBy+Limit fused into a bounded-memory operator.
type TopNNode struct {
	Child Node
	By    []engine.SortSpec
	N     int
}

// Materialized embeds an already-computed result (scalar subqueries and
// views evaluated once per query, e.g. TPC-H Q15's revenue view).
type Materialized struct {
	Res *engine.Result
}

func (*Scan) children() []Node         { return nil }
func (*Materialized) children() []Node { return nil }
func (n *Join) children() []Node       { return []Node{n.Left, n.Right} }
func (n *Agg) children() []Node        { return []Node{n.Child} }
func (n *Project) children() []Node    { return []Node{n.Child} }
func (n *FilterNode) children() []Node { return []Node{n.Child} }
func (n *OrderBy) children() []Node    { return []Node{n.Child} }
func (n *LimitNode) children() []Node  { return []Node{n.Child} }
func (n *TopNNode) children() []Node   { return []Node{n.Child} }
