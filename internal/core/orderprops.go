package core

// Order-properties pass: after a plan is assembled, walk it once and mark
// every GroupBy whose input provably streams in an order that makes each
// group contiguous, so that grouping can run as a single streaming pass —
// no sort, no hash table. This is the plan-level statement of the claim;
// the plan verifier re-derives it, and the executor decides from the order
// it can itself prove of the physical stream (DESIGN.md §19), hashing
// whenever it cannot.

import (
	"repro/internal/algebra"
	"repro/internal/expr"
)

// annotateOrder sets GroupBy.Ordered on every grouping node of the plan
// whose input is provably sorted on the grouping columns. The proof walks
// down through order-preserving operators (Select filters, bare-column
// renaming Projects) to an ancestor-of-input Sort whose leading keys are
// all ascending and cover exactly the grouping column set.
func annotateOrder(n algebra.Node) {
	if n == nil {
		return
	}
	if g, ok := n.(*algebra.GroupBy); ok {
		g.Ordered = inputSortedOn(g.Input, g.GroupCols)
	}
	for _, c := range n.Children() {
		annotateOrder(c)
	}
}

// inputSortedOn reports whether every row stream produced by in arrives
// with equal values of cols contiguous and in ascending key order: a
// descendant Sort whose first len(cols) keys are all ascending and form
// exactly the set cols, seen through operators that preserve row order.
func inputSortedOn(in algebra.Node, cols []expr.ColumnID) bool {
	if len(cols) == 0 {
		return false
	}
	mapped := append([]expr.ColumnID(nil), cols...)
	for {
		switch t := in.(type) {
		case *algebra.Select:
			// A filter drops rows but never reorders them.
			in = t.Input
		case *algebra.Project:
			if t.Distinct {
				// DISTINCT deduplicates via grouping; order is not
				// guaranteed to survive.
				return false
			}
			// Translate each tracked column through the projection: only
			// bare column references preserve the sort key's value.
			next := make([]expr.ColumnID, len(mapped))
			for i, c := range mapped {
				found := false
				for _, it := range t.Items {
					if it.As == c {
						cr, ok := it.E.(*expr.ColumnRef)
						if !ok {
							return false
						}
						next[i] = cr.ID
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
			mapped = next
			in = t.Input
		case *algebra.Sort:
			if len(t.Keys) < len(mapped) {
				return false
			}
			prefix := make(map[expr.ColumnID]bool, len(mapped))
			for _, k := range t.Keys[:len(mapped)] {
				if k.Desc {
					return false
				}
				prefix[k.Col] = true
			}
			for _, c := range mapped {
				if !prefix[c] {
					return false
				}
			}
			return true
		default:
			// Joins, scans, grouping, limits: no order guarantee we track.
			return false
		}
	}
}
