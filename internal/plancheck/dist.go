// Distributed plan invariants. The dist package's plan nodes implement
// two small interfaces declared here (plancheck cannot import dist: dist
// imports plancheck, whose CheckRecovery it calls on every failover), and
// Check recognizes them structurally:
//
//   - dist-placement: row placement is consistent — every path from the
//     root to a shard source passes through a gather, so the plan's final
//     output is coordinator-resident, never a per-node fragment;
//   - dist-shuffle-keys: a shuffle exchange repartitions on exactly the
//     positions of its consuming GroupBy's grouping columns, the condition
//     under which SQL2 grouping (NULL equals NULL) over shuffled data
//     equals grouping over the whole input;
//   - dist-agg-split: a merge aggregation (GroupBy over a gathered partial
//     GroupBy) groups on the same columns as the partial and combines each
//     partial column with a legal merge function — SUM over partial
//     SUM/COUNT/COUNT(*), MIN over MIN, MAX over MAX — the plan-operator
//     spelling of the Accumulator.Merge partial-aggregate algebra.
package plancheck

import (
	"repro/internal/algebra"
	"repro/internal/expr"
)

// ExchangeNode is a distributed data-movement operator. Implemented by
// dist.Exchange; declared here to avoid an import cycle.
type ExchangeNode interface {
	algebra.Node
	// ExchangeKindName is "gather", "broadcast" or "shuffle".
	ExchangeKindName() string
	// ShuffleKeys are the input-schema positions a shuffle hashes on; nil
	// for the other kinds.
	ShuffleKeys() []int
}

// ShardSource is a partitioned base-table input (one node's shard).
// Implemented by dist.Leaf.
type ShardSource interface {
	algebra.Node
	// ShardTable names the sharded base table.
	ShardTable() string
}

// hasDistNodes reports whether the plan contains distributed operators.
func hasDistNodes(root algebra.Node) bool {
	found := false
	algebra.Walk(root, func(n algebra.Node) {
		switch n.(type) {
		case ExchangeNode, ShardSource:
			found = true
		}
	})
	return found
}

// checkDistributed enforces the distributed rules on plans containing
// exchange or shard nodes; plain single-site plans are untouched.
func (c *checker) checkDistributed(root algebra.Node) {
	if !hasDistNodes(root) {
		return
	}
	if c.partitioned(root) {
		c.report("dist-placement", root,
			"plan output is partitioned: a shard source reaches the root without passing through a gather exchange")
	}
	c.walkDist(root)
}

// partitioned computes row placement bottom-up, mirroring the distributed
// compiler: shard sources are partitioned, a gather makes its input
// global, broadcast and shuffle outputs stay partitioned, and every other
// operator is partitioned iff any input is.
func (c *checker) partitioned(n algebra.Node) bool {
	switch x := n.(type) {
	case ExchangeNode:
		in := c.partitioned(x.Children()[0])
		switch x.ExchangeKindName() {
		case "gather":
			return false
		case "broadcast", "shuffle":
			return true
		default:
			c.report("dist-placement", x, "unknown exchange kind %q", x.ExchangeKindName())
			return in
		}
	case ShardSource:
		return true
	default:
		for _, child := range n.Children() {
			if c.partitioned(child) {
				return true
			}
		}
		return false
	}
}

// walkDist visits the tree checking shuffle-key consistency and
// partial/final aggregate splits at each consumer.
func (c *checker) walkDist(n algebra.Node) {
	for _, child := range n.Children() {
		c.walkDist(child)
	}
	if g, ok := n.(*algebra.GroupBy); ok {
		if x, ok := g.Input.(ExchangeNode); ok {
			switch x.ExchangeKindName() {
			case "shuffle":
				c.checkShuffleKeys(g, x)
			case "gather":
				if partial, ok := x.Children()[0].(*algebra.GroupBy); ok {
					c.checkAggSplit(g, partial)
				}
			}
		}
	}
	if x, ok := n.(ExchangeNode); ok && x.ExchangeKindName() == "shuffle" {
		// A shuffle whose keys fall outside its schema hashes garbage
		// positions regardless of the consumer.
		width := len(x.Schema())
		for _, k := range x.ShuffleKeys() {
			if k < 0 || k >= width {
				c.report("dist-shuffle-keys", x, "shuffle key position %d is outside the %d-column schema", k, width)
			}
		}
	}
}

// checkShuffleKeys verifies that a shuffled grouping repartitions on
// exactly the grouping columns: the shuffle's key positions must be the
// positions of the GroupBy's grouping columns in the shuffled schema, in
// declaration order. Anything else can split one SQL group across nodes,
// producing duplicate output groups.
func (c *checker) checkShuffleKeys(g *algebra.GroupBy, x ExchangeNode) {
	s := x.Schema()
	keys := x.ShuffleKeys()
	if len(keys) != len(g.GroupCols) {
		c.report("dist-shuffle-keys", g,
			"shuffle hashes %d key position(s) but the grouping has %d column(s); partitioning is inconsistent with the group keys", len(keys), len(g.GroupCols))
		return
	}
	for i, gc := range g.GroupCols {
		idx, err := s.IndexOf(gc)
		if err != nil {
			// group-input already reports the unresolvable column.
			continue
		}
		if keys[i] != idx {
			c.report("dist-shuffle-keys", g,
				"shuffle key %d hashes position %d but grouping column %s sits at position %d; one group could land on two nodes", i, keys[i], gc, idx)
		}
	}
}

// checkAggSplit verifies a gathered partial/final aggregation pair.
func (c *checker) checkAggSplit(final, partial *algebra.GroupBy) {
	if !sameColumnSet(final.GroupCols, partial.GroupCols) {
		c.report("dist-agg-split", final,
			"merge aggregation groups on %s but the partial aggregation grouped on %s; the split changes grouping semantics",
			colList(final.GroupCols), colList(partial.GroupCols))
	}
	// Map each partial output column to the single aggregate that fills it.
	partialAgg := make(map[expr.ColumnID]*expr.Aggregate, len(partial.Aggs))
	for _, item := range partial.Aggs {
		aggs := expr.Aggregates(item.E)
		if len(aggs) == 1 && item.E == expr.Expr(aggs[0]) {
			partialAgg[item.As] = aggs[0]
		}
	}
	for _, item := range final.Aggs {
		for _, a := range expr.Aggregates(item.E) {
			ref, ok := a.Arg.(*expr.ColumnRef)
			if !ok {
				continue // merge over a computed arg: resolve rule covers it
			}
			p, ok := partialAgg[ref.ID]
			if !ok {
				continue // references a grouping column or non-aggregate output
			}
			if !legalMerge(a.Func, p.Func) {
				c.report("dist-agg-split", final,
					"merge aggregate %s over partial column %s is illegal: partial %s(...) requires merge %s",
					a, ref.ID, p.Func, requiredMerge(p.Func))
			}
		}
	}
}

// legalMerge reports whether merge function m legally combines partials
// produced by partial function p.
func legalMerge(m, p expr.AggFunc) bool {
	switch p {
	case expr.AggSum, expr.AggCount, expr.AggCountStar:
		return m == expr.AggSum
	case expr.AggMin:
		return m == expr.AggMin
	case expr.AggMax:
		return m == expr.AggMax
	default:
		return false
	}
}

// requiredMerge names the merge function partial function p demands.
func requiredMerge(p expr.AggFunc) expr.AggFunc {
	switch p {
	case expr.AggMin:
		return expr.AggMin
	case expr.AggMax:
		return expr.AggMax
	default:
		return expr.AggSum
	}
}
