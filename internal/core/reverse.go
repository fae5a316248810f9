package core

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/sql"
)

// ReverseReport documents a Section 8 analysis: a query over an aggregated
// view can sometimes be rewritten into a single flat query that joins first
// and groups afterwards — the reverse of the main transformation. The same
// TestFD conditions govern validity; when they hold, the optimizer gains
// the flat plan as an alternative to materializing the view.
type ReverseReport struct {
	// Applicable is false when the query does not have the Section 8
	// shape (one aggregated view joined with other tables, no outer
	// aggregation); WhyNot explains.
	Applicable bool
	WhyNot     string

	// Flat is the merged single-block query (joins + group-by at the
	// top), built so that its group-before-join form is exactly the
	// original nested evaluation.
	Flat *sql.SelectStmt
	// Decision is the TestFD outcome on the flat query.
	Decision Decision

	// Nested is the original plan (materialize the view, then join);
	// FlatPlan is the join-first plan. Both are executable.
	Nested   algebra.Node
	FlatPlan algebra.Node
	// NestedCost and FlatCost are the estimates; UseFlat reports the
	// cost-based choice.
	NestedCost PlanCost
	FlatCost   PlanCost
	UseFlat    bool
}

// reverse runs the Section 8 analysis on a bound query. The nested plan is
// always available; when the merge succeeds and TestFD proves the flat form
// equivalent, the report carries both plans and the cost-based choice. With
// CheckPlans set, both plans are statically verified (a view's grouping is
// wrapped in a rename projection, so neither plan contains an eager
// aggregation needing a certificate).
func (o *Optimizer) reverse(b *BoundQuery) (*ReverseReport, error) {
	nested, err := o.planner.PlanStandard(b)
	if err != nil {
		return nil, err
	}
	if err := o.verifyPlain(nested, "nested"); err != nil {
		return nil, err
	}
	r := &ReverseReport{Nested: nested}
	model := o.costModel(b)
	r.NestedCost = model.Estimate(nested)

	merged, why, err := o.mergeAggregatedView(b)
	if err != nil {
		return nil, err
	}
	if merged == nil {
		r.WhyNot = why
		return r, nil
	}
	r.Flat = merged.flat

	// Validate the flat form: bind, normalize with R1 forced to the
	// view's tables, and run TestFD. The flat query's group-before-join
	// form must group exactly on the view's grouping columns — that is
	// what makes it coincide with the nested evaluation.
	fb, err := o.planner.Bind(merged.flat)
	if err != nil {
		return nil, fmt.Errorf("core: binding merged query: %w", err)
	}
	shape, err := Normalize(fb, merged.viewTables)
	if err != nil {
		if na, ok := err.(*ErrNotApplicable); ok {
			r.WhyNot = "merged query not transformable: " + na.Why
			return r, nil
		}
		return nil, err
	}
	r.Applicable = true
	r.Decision = TestFD(shape)
	if !r.Decision.OK {
		r.WhyNot = "TestFD on merged query: " + r.Decision.Reason
		return r, nil
	}

	// GA1+ of the flat query must equal the view's grouping columns:
	// then E2(flat) is the nested evaluation and the Main Theorem
	// equates it with E1(flat).
	viewGA := merged.viewGroupBy
	if !sameColumnSet(shape.GA1Plus, viewGA) {
		r.Applicable = false
		r.WhyNot = fmt.Sprintf("merged query groups R1 on %s, but the view groups on %s",
			colList(shape.GA1Plus), colList(viewGA))
		return r, nil
	}

	flatPlan, err := o.planner.PlanStandard(fb)
	if err != nil {
		return nil, err
	}
	if err := o.verifyPlain(flatPlan, "flat"); err != nil {
		return nil, err
	}
	r.FlatPlan = flatPlan
	r.FlatCost = model.Estimate(flatPlan)
	r.UseFlat = r.FlatCost.Total < r.NestedCost.Total
	return r, nil
}

// Explain renders the Section 8 report: the nested plan, the TestFD run on
// the merged query and the flat plan with the choice, or why the reverse
// transformation was rejected.
func (r *ReverseReport) Explain() string {
	var sb strings.Builder
	sb.WriteString("=== Nested plan (materialize the aggregated view, then join) ===\n")
	sb.WriteString(algebra.Format(r.Nested, r.NestedCost.Ann))
	fmt.Fprintf(&sb, "estimated cost: %.0f\n\n", r.NestedCost.Total)
	if !r.Decision.OK {
		fmt.Fprintf(&sb, "reverse transformation rejected: %s\n", r.WhyNot)
		return sb.String()
	}
	sb.WriteString("=== TestFD on the merged query (paper Section 8) ===\n")
	sb.WriteString(r.Decision.TraceString())
	sb.WriteString("\nanswer: YES — join-before-group-by is equivalent\n\n")
	sb.WriteString("=== Flat plan (join first, group once at the top) ===\n")
	sb.WriteString(algebra.Format(r.FlatPlan, r.FlatCost.Ann))
	fmt.Fprintf(&sb, "estimated cost: %.0f\n\n", r.FlatCost.Total)
	if r.UseFlat {
		sb.WriteString("chosen: flat plan (join before group-by)\n")
	} else {
		sb.WriteString("chosen: nested plan (view materialization)\n")
	}
	return sb.String()
}

// mergedView is the result of a successful view merge.
type mergedView struct {
	flat        *sql.SelectStmt
	viewTables  []string
	viewGroupBy []expr.ColumnID
}

// mergeAggregatedView builds the flat query. It returns (nil, why, nil)
// when the query lacks the Section 8 shape.
func (o *Optimizer) mergeAggregatedView(b *BoundQuery) (*mergedView, string, error) {
	// Outer query restrictions: plain select-project-join.
	if len(b.GroupBy) != 0 || b.Having != nil {
		return nil, "outer query already aggregates", nil
	}
	for _, it := range b.Items {
		if expr.HasAggregate(it.E) {
			return nil, "outer query already aggregates", nil
		}
	}

	// Exactly one aggregated view in FROM; everything else base tables.
	var viewBT *boundTable
	for i := range b.tables {
		bt := &b.tables[i]
		if bt.view == nil {
			continue
		}
		if viewBT != nil {
			return nil, "more than one view in FROM", nil
		}
		viewBT = bt
	}
	if viewBT == nil {
		return nil, "no aggregated view in FROM", nil
	}
	v := viewBT.view
	if len(v.GroupBy) == 0 || v.Having != nil || v.Distinct || len(v.OrderBy) != 0 || v.HasLimit {
		return nil, "view is not a plain aggregation query", nil
	}

	// Bind the view definition to get resolved items and tables.
	vb, err := o.planner.Bind(v)
	if err != nil {
		return nil, "", fmt.Errorf("core: binding view: %w", err)
	}
	for _, bt := range vb.tables {
		if bt.def == nil {
			return nil, "view references another view", nil
		}
	}

	// Alias collisions between the outer FROM (minus the view) and the
	// view's FROM would change reference meaning; refuse.
	outerAliases := make(map[string]bool)
	for _, bt := range b.tables {
		if bt.alias != viewBT.alias {
			outerAliases[bt.alias] = true
		}
	}
	for _, bt := range vb.tables {
		if outerAliases[bt.alias] {
			return nil, fmt.Sprintf("alias %s used both outside and inside the view", bt.alias), nil
		}
	}

	// Map the view's output column names to their defining expressions.
	// Plain grouping columns may appear anywhere; aggregate outputs may
	// appear only in the outer select list.
	viewOut := make(map[string]expr.Expr, len(vb.Items))
	viewOutIsAgg := make(map[string]bool, len(vb.Items))
	colNames := viewColumnNames(viewBT)
	for i, it := range vb.Items {
		name := colNames[i]
		viewOut[name] = it.E
		viewOutIsAgg[name] = expr.HasAggregate(it.E)
	}

	substitute := func(e expr.Expr, allowAgg bool) (expr.Expr, string) {
		blocked := ""
		out := expr.RewritePre(e, func(n expr.Expr) expr.Expr {
			c, ok := n.(*expr.ColumnRef)
			if !ok || c.ID.Table != viewBT.alias {
				return nil
			}
			def, hit := viewOut[c.ID.Name]
			if !hit {
				blocked = fmt.Sprintf("view column %s has no definition", c.ID)
				return nil
			}
			if viewOutIsAgg[c.ID.Name] && !allowAgg {
				blocked = fmt.Sprintf("aggregate view column %s used outside the select list", c.ID)
				return nil
			}
			return def
		})
		return out, blocked
	}

	// Build the flat query AST with fully qualified expressions.
	flat := &sql.SelectStmt{Distinct: b.Distinct}
	for _, bt := range b.tables {
		if bt.alias == viewBT.alias {
			continue
		}
		flat.From = append(flat.From, bt.ref)
	}
	for _, bt := range vb.tables {
		flat.From = append(flat.From, bt.ref)
	}

	var groupBy []expr.ColumnID
	for _, it := range b.Items {
		sub, blocked := substitute(it.E, true)
		if blocked != "" {
			return nil, blocked, nil
		}
		flat.Items = append(flat.Items, sql.SelectItem{E: sub, Alias: it.As.Name})
		if c, ok := sub.(*expr.ColumnRef); ok {
			groupBy = append(groupBy, c.ID)
		} else if !expr.HasAggregate(sub) {
			return nil, fmt.Sprintf("select item %s is neither a column nor an aggregate after merging", sub), nil
		}
	}
	if len(groupBy) == 0 {
		return nil, "merged query would have no grouping columns", nil
	}
	flat.GroupBy = groupBy

	var where []expr.Expr
	for _, conj := range expr.Conjuncts(b.Where) {
		sub, blocked := substitute(conj, false)
		if blocked != "" {
			return nil, blocked, nil
		}
		where = append(where, sub)
	}
	where = append(where, expr.Conjuncts(vb.Where)...)
	flat.Where = expr.And(where...)

	// ORDER BY carries over only when it references outer output names.
	for _, k := range b.OrderBy {
		flat.OrderBy = append(flat.OrderBy, sql.OrderItem{Col: expr.ColumnID{Name: k.Col.Name}, Desc: k.Desc})
	}
	// LIMIT on the outer query survives merging unchanged: it bounds the
	// final result either way.
	flat.Limit = b.Limit
	flat.HasLimit = b.HasLimit
	out := &mergedView{flat: flat, viewGroupBy: vb.GroupBy}
	for _, bt := range vb.tables {
		out.viewTables = append(out.viewTables, bt.alias)
	}
	return out, "", nil
}

// viewColumnNames returns the names the view's outputs are visible under.
func viewColumnNames(bt *boundTable) []string {
	names := make([]string, len(bt.schema))
	for i, d := range bt.schema {
		names[i] = d.ID.Name
	}
	return names
}

func sameColumnSet(a, b []expr.ColumnID) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[expr.ColumnID]bool, len(a))
	for _, c := range a {
		set[c] = true
	}
	for _, c := range b {
		if !set[c] {
			return false
		}
	}
	return true
}
