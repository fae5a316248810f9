package core

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/expr"
)

// PlanTransformed assembles the "group before join" plan (E2 in the paper)
// for a normalized query:
//
//	π[SGA1, SGA2, FAA] σ[C0]( F[AA] π_A[GA1+, AA] G[GA1+] σ[C1] R1
//	                           ×  π_A[GA2+] σ[C2] R2 )
//
// The R1 side is planned as a join tree over the R1 tables with the C1
// conjuncts, grouped on GA1+ with the F(AA) aggregates computed eagerly;
// the R2 side is a join tree over the R2 tables with the C2 conjuncts,
// projected to GA2+ (Lemma 1 licenses removing the other columns). The two
// sides join on C0, and the final projection and DISTINCT flag are shared
// with the standard plan so both produce identical output schemas.
//
// Validity is the caller's responsibility: apply only when TestFD returned
// YES (or when the Main Theorem's FD1/FD2 are otherwise known to hold).
func (p *Planner) PlanTransformed(shape *Shape) (algebra.Node, error) {
	b := shape.Bound

	r1Tables, r2Tables := make([]boundTable, 0), make([]boundTable, 0)
	for _, bt := range b.tables {
		if shape.InR1(bt.alias) {
			r1Tables = append(r1Tables, bt)
		} else {
			r2Tables = append(r2Tables, bt)
		}
	}

	// R1 side: σ[C1] over the R1 join tree, then eager grouping on GA1+.
	r1Side, err := p.buildJoinTree(b, r1Tables, shape.C1)
	if err != nil {
		return nil, err
	}
	r1Grouped := &algebra.GroupBy{
		Input:     r1Side,
		GroupCols: shape.GA1Plus,
		Aggs:      shape.AggItems,
	}

	// R2 side: σ[C2] over the R2 join tree, projected to GA2+.
	r2Side, err := p.buildJoinTree(b, r2Tables, shape.C2)
	if err != nil {
		return nil, err
	}
	if len(shape.GA2Plus) > 0 {
		items := make([]algebra.ProjItem, len(shape.GA2Plus))
		for i, c := range shape.GA2Plus {
			items[i] = algebra.ProjItem{E: expr.Column(c.Table, c.Name), As: c}
		}
		r2Side = &algebra.Project{Input: r2Side, Items: items}
	}

	// Join on C0. The grouped R1 side exposes GA1+ under their original
	// identifiers, so C0 binds unchanged.
	var joined algebra.Node = &algebra.Join{L: r1Grouped, R: r2Side, Cond: expr.And(shape.C0...)}

	// Aggregate-referencing HAVING conjuncts filter the joined rows: the
	// $aggN columns computed by the eager aggregation are in scope here,
	// and under FD1/FD2 they equal the standard plan's per-group values.
	if len(shape.HavingAgg) > 0 {
		joined = &algebra.Select{Input: joined, Cond: expr.And(shape.HavingAgg...)}
	}

	// Final projection: the select list already references grouping
	// columns and $aggN outputs (Shape.Items), both present here.
	var plan algebra.Node = &algebra.Project{Input: joined, Items: shape.Items, Distinct: b.Distinct}
	if len(b.OrderBy) > 0 {
		outSchema := plan.Schema()
		for _, k := range b.OrderBy {
			if _, err := outSchema.IndexOf(k.Col); err != nil {
				return nil, fmt.Errorf("core: ORDER BY column %s is not in the select list", k.Col)
			}
		}
		plan = &algebra.Sort{Input: plan, Keys: b.OrderBy}
	}
	if b.HasLimit {
		plan = &algebra.Limit{Input: plan, N: b.Limit}
	}
	return plan, nil
}
