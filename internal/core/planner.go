// Package core implements the paper's contribution: deciding when a
// GROUP BY can be performed before a join (eager aggregation) and applying
// the transformation.
//
// The package contains:
//
//   - a planner/binder that turns parsed SELECT statements into logical
//     plans (the standard "group after join" plan E1 of the paper);
//   - query-shape normalization into the paper's Section 3 form
//     (R1, R2, C1 ∧ C0 ∧ C2, GA1, GA2, GA1+, GA2+);
//   - Algorithm TestFD (Section 6.3), which decides from key constraints
//     and equality predicates whether the two functional dependencies of
//     the Main Theorem — FD1: (GA1,GA2) → GA1+ and FD2: (GA1+,GA2) →
//     RowID(R2) — are guaranteed to hold in the join result;
//   - the transformation itself, producing the "group before join" plan E2;
//   - the reverse transformation of Section 8 (merging an aggregated view
//     into the outer query so grouping can be deferred past the joins);
//   - a cost model implementing the trade-off discussion of Section 7,
//     including the distributed (communication-cost) variant.
package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/value"
)

// Planner binds parsed statements against a store's catalog and produces
// logical plans.
type Planner struct {
	store *storage.Store
}

// NewPlanner returns a planner over the store.
func NewPlanner(store *storage.Store) *Planner { return &Planner{store: store} }

// boundTable is one resolved FROM entry.
type boundTable struct {
	ref    sql.TableRef
	alias  string
	plan   algebra.Node    // scan or expanded view subplan
	schema algebra.Schema  // columns qualified by alias
	def    *schema.Table   // nil for views and derived tables
	view   *sql.SelectStmt // non-nil for views and derived tables
	reads  []string        // a view's or derived table's base tables
	// derived carries the Example 2-style derived constraints (keys,
	// NOT NULL, equality checks) of a view or FROM-subquery.
	derived *derivedConstraints
}

// BoundQuery is a SELECT statement after name resolution: every column
// reference carries its table alias, star items are expanded, and output
// columns are named. It is the input both to standard planning (E1) and to
// the transformation analysis.
type BoundQuery struct {
	stmt   *sql.SelectStmt
	tables []boundTable
	// reads are the base tables binding read, each once: the FROM entries',
	// a view's or derived table's, and those of the subqueries it ran.
	reads []string

	// Items are the resolved select-list items with assigned output names.
	Items []algebra.ProjItem
	// Where is the resolved WHERE predicate (nil if absent).
	Where expr.Expr
	// GroupBy are the resolved grouping columns.
	GroupBy []expr.ColumnID
	// Having is the resolved HAVING predicate (nil if absent).
	Having expr.Expr
	// OrderBy are the resolved ORDER BY keys, referencing output columns.
	OrderBy []algebra.SortItem
	// Distinct is the SELECT DISTINCT flag.
	Distinct bool
	// Limit is the LIMIT row count; meaningful only when HasLimit is set.
	Limit    int64
	HasLimit bool
}

// Tables returns the effective aliases of the FROM entries in order.
func (b *BoundQuery) Tables() []string {
	out := make([]string, len(b.tables))
	for i, t := range b.tables {
		out[i] = t.alias
	}
	return out
}

// read adds tables to b.reads, each once.
func (b *BoundQuery) read(tables ...string) {
	for _, t := range tables {
		if !slices.Contains(b.reads, t) {
			b.reads = append(b.reads, t)
		}
	}
}

// Stmt returns the underlying parsed statement.
func (b *BoundQuery) Stmt() *sql.SelectStmt { return b.stmt }

// Bind resolves a parsed SELECT against the catalog.
func (p *Planner) Bind(q *sql.SelectStmt) (*BoundQuery, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("core: query has no FROM clause")
	}
	b := &BoundQuery{stmt: q, Distinct: q.Distinct, Limit: q.Limit, HasLimit: q.HasLimit}
	seen := make(map[string]bool)
	for _, ref := range q.From {
		alias := ref.EffectiveAlias()
		if seen[alias] {
			return nil, fmt.Errorf("core: duplicate table alias %s", alias)
		}
		seen[alias] = true
		bt, err := p.bindTable(ref)
		if err != nil {
			return nil, err
		}
		b.tables = append(b.tables, bt)
		if bt.def != nil {
			b.read(bt.def.Name)
		}
		b.read(bt.reads...)
	}

	// Expand star items and resolve the select list.
	items, err := p.resolveSelectList(b, q)
	if err != nil {
		return nil, err
	}
	b.Items = items

	// Materialize uncorrelated subqueries (the paper's Section 3: "Note
	// that subqueries are allowed") before name resolution: an IN/EXISTS
	// subquery is planned and executed once, then replaced by a literal
	// value list / boolean. The remaining predicate is an ordinary
	// non-equality atom, which TestFD soundly ignores.
	where, err := p.materializeSubqueries(b, q.Where)
	if err != nil {
		return nil, err
	}
	if b.Where, err = p.resolveExpr(b, where); err != nil {
		return nil, err
	}
	b.Where = expr.SimplifyTruth(b.Where)
	if expr.HasAggregate(b.Where) {
		return nil, fmt.Errorf("core: aggregates are not allowed in WHERE")
	}
	for _, gc := range q.GroupBy {
		resolved, err := p.resolveColumn(b, gc)
		if err != nil {
			return nil, err
		}
		b.GroupBy = append(b.GroupBy, resolved)
	}
	having, err := p.materializeSubqueries(b, q.Having)
	if err != nil {
		return nil, err
	}
	if b.Having, err = p.resolveExpr(b, having); err != nil {
		return nil, err
	}
	b.Having = expr.SimplifyTruth(b.Having)

	// ORDER BY resolves against the output column names first, then the
	// input tables (for non-aggregating queries).
	for _, oi := range q.OrderBy {
		item := algebra.SortItem{Desc: oi.Desc}
		resolvedOut := false
		if oi.Col.Table == "" {
			for _, it := range b.Items {
				if it.As.Name == oi.Col.Name {
					item.Col = it.As
					resolvedOut = true
					break
				}
			}
		}
		if !resolvedOut {
			resolved, err := p.resolveColumn(b, oi.Col)
			if err != nil {
				return nil, fmt.Errorf("core: ORDER BY: %w", err)
			}
			item.Col = resolved
		}
		b.OrderBy = append(b.OrderBy, item)
	}
	return b, nil
}

// materializeSubqueries replaces uncorrelated IN (SELECT ...) and
// EXISTS (SELECT ...) predicates with literal value lists / booleans by
// planning and executing the subquery once. Correlated subqueries (ones
// referencing outer tables) fail the subquery's own binding and are
// reported as unsupported. The tables a subquery reads become b's reads.
func (p *Planner) materializeSubqueries(b *BoundQuery, e expr.Expr) (expr.Expr, error) {
	if e == nil {
		return nil, nil
	}
	var firstErr error
	fail := func(err error) expr.Expr {
		if firstErr == nil {
			firstErr = err
		}
		return nil
	}
	out := expr.RewritePre(e, func(n expr.Expr) expr.Expr {
		switch s := n.(type) {
		case *expr.InSubquery:
			q, ok := s.Query.(*sql.SelectStmt)
			if !ok {
				return fail(fmt.Errorf("core: IN subquery has no planable definition"))
			}
			rows, width, err := p.runSubquery(b, q)
			if err != nil {
				return fail(err)
			}
			if width != 1 {
				return fail(fmt.Errorf("core: IN subquery must produce exactly one column, got %d", width))
			}
			inner, err := p.materializeSubqueries(b, s.E)
			if err != nil {
				return fail(err)
			}
			list := make([]expr.Expr, len(rows))
			for i, row := range rows {
				list[i] = expr.Lit(row[0])
			}
			return &expr.InList{E: inner, List: list, Negate: s.Negate}
		case *expr.ExistsSubquery:
			q, ok := s.Query.(*sql.SelectStmt)
			if !ok {
				return fail(fmt.Errorf("core: EXISTS subquery has no planable definition"))
			}
			rows, _, err := p.runSubquery(b, q)
			if err != nil {
				return fail(err)
			}
			return expr.Lit(value.NewBool((len(rows) > 0) != s.Negate))
		case *expr.ScalarSubquery:
			q, ok := s.Query.(*sql.SelectStmt)
			if !ok {
				return fail(fmt.Errorf("core: scalar subquery has no planable definition"))
			}
			rows, width, err := p.runSubquery(b, q)
			if err != nil {
				return fail(err)
			}
			if width != 1 {
				return fail(fmt.Errorf("core: scalar subquery must produce exactly one column, got %d", width))
			}
			switch len(rows) {
			case 0:
				return expr.Lit(value.Null)
			case 1:
				return expr.Lit(rows[0][0])
			default:
				return fail(fmt.Errorf("core: scalar subquery produced %d rows, want at most one", len(rows)))
			}
		}
		return nil
	})
	return out, firstErr
}

// runSubquery plans and executes an uncorrelated subquery of b.
func (p *Planner) runSubquery(b *BoundQuery, q *sql.SelectStmt) ([]value.Row, int, error) {
	sb, err := p.Bind(q)
	var plan algebra.Node
	if err == nil {
		plan, err = p.PlanStandard(sb)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("core: planning subquery: %w (correlated subqueries are not supported)", err)
	}
	b.read(sb.reads...)
	res, err := exec.Run(plan, p.store, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("core: executing subquery: %w", err)
	}
	return res.Rows, len(res.Schema), nil
}

// bindTable resolves one FROM entry to a scan (base table), a renamed view
// subplan, or a derived-table subplan.
func (p *Planner) bindTable(ref sql.TableRef) (boundTable, error) {
	alias := ref.EffectiveAlias()
	cat := p.store.Catalog()
	if ref.Subquery != nil {
		return p.bindDerived(ref, alias, ref.Subquery, nil, "derived table "+alias)
	}
	if cat.HasTable(ref.Name) {
		def, err := cat.Table(ref.Name)
		if err != nil {
			return boundTable{}, err
		}
		cols := make(algebra.Schema, len(def.Columns))
		for i, c := range def.Columns {
			cols[i] = algebra.ColDesc{
				ID:      expr.ColumnID{Table: alias, Name: c.Name},
				Type:    c.Type,
				NotNull: c.NotNull,
			}
		}
		return boundTable{
			ref: ref, alias: alias,
			plan:   algebra.NewScan(ref.Name, alias, cols),
			schema: cols,
			def:    def,
		}, nil
	}
	if v := cat.View(ref.Name); v != nil {
		viewStmt, ok := v.Def.(*sql.SelectStmt)
		if !ok {
			return boundTable{}, fmt.Errorf("core: view %s has no planable definition", ref.Name)
		}
		return p.bindDerived(ref, alias, viewStmt, v.Columns, "view "+ref.Name)
	}
	return boundTable{}, fmt.Errorf("core: unknown table or view %s", ref.Name)
}

// bindDerived plans a view definition or FROM-subquery and renames its
// output columns under the outer alias (optionally through a declared
// column list).
func (p *Planner) bindDerived(ref sql.TableRef, alias string, def *sql.SelectStmt, columns []string, what string) (boundTable, error) {
	vb, err := p.Bind(def)
	if err != nil {
		return boundTable{}, fmt.Errorf("core: binding %s: %w", what, err)
	}
	reads := vb.reads
	sub, err := p.PlanStandard(vb)
	if err != nil {
		return boundTable{}, fmt.Errorf("core: planning %s: %w", what, err)
	}
	inner := sub.Schema()
	if len(columns) != 0 && len(columns) != len(inner) {
		return boundTable{}, fmt.Errorf("core: %s declares %d columns but produces %d",
			what, len(columns), len(inner))
	}
	items := make([]algebra.ProjItem, len(inner))
	cols := make(algebra.Schema, len(inner))
	for i, d := range inner {
		name := d.ID.Name
		if len(columns) != 0 {
			name = columns[i]
		}
		items[i] = algebra.ProjItem{
			E:  expr.Column(d.ID.Table, d.ID.Name),
			As: expr.ColumnID{Table: alias, Name: name},
		}
		cols[i] = algebra.ColDesc{ID: items[i].As, Type: d.Type, NotNull: d.NotNull}
	}
	// Fuse the rename into the subplan's own projection instead of
	// stacking two Project operators: the inner items are simply
	// re-exposed under the outer identifiers.
	var plan algebra.Node
	if innerProj, ok := sub.(*algebra.Project); ok {
		fused := make([]algebra.ProjItem, len(innerProj.Items))
		for i, it := range innerProj.Items {
			fused[i] = algebra.ProjItem{E: it.E, As: items[i].As}
		}
		plan = &algebra.Project{Input: innerProj.Input, Items: fused, Distinct: innerProj.Distinct}
	} else {
		plan = &algebra.Project{Input: sub, Items: items}
	}
	return boundTable{
		ref: ref, alias: alias,
		plan:    plan,
		schema:  cols,
		reads:   reads,
		view:    def,
		derived: deriveConstraints(vb, outNamesFor(vb, columns)),
	}, nil
}

// resolveSelectList expands stars and resolves + names each item.
func (p *Planner) resolveSelectList(b *BoundQuery, q *sql.SelectStmt) ([]algebra.ProjItem, error) {
	var out []algebra.ProjItem
	usedNames := make(map[string]int)
	assign := func(e expr.Expr, alias string, ordinal int) algebra.ProjItem {
		name := alias
		if name == "" {
			if c, ok := e.(*expr.ColumnRef); ok {
				name = c.ID.Name
			} else if a, ok := e.(*expr.Aggregate); ok {
				name = strings.ToLower(a.Func.String())
			} else {
				name = fmt.Sprintf("column%d", ordinal+1)
			}
		}
		// Disambiguate duplicates: a, a → a, a_2.
		usedNames[name]++
		if n := usedNames[name]; n > 1 {
			name = fmt.Sprintf("%s_%d", name, n)
		}
		return algebra.ProjItem{E: e, As: expr.ColumnID{Name: name}}
	}
	ordinal := 0
	for _, item := range q.Items {
		if item.Star {
			for _, bt := range b.tables {
				if item.Table != "" && bt.alias != item.Table {
					continue
				}
				for _, d := range bt.schema {
					out = append(out, assign(expr.Column(d.ID.Table, d.ID.Name), "", ordinal))
					ordinal++
				}
			}
			if item.Table != "" && !hasAlias(b, item.Table) {
				return nil, fmt.Errorf("core: %s.* references unknown table %s", item.Table, item.Table)
			}
			continue
		}
		resolved, err := p.resolveExpr(b, item.E)
		if err != nil {
			return nil, err
		}
		out = append(out, assign(resolved, item.Alias, ordinal))
		ordinal++
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: empty select list")
	}
	return out, nil
}

func hasAlias(b *BoundQuery, alias string) bool {
	for _, bt := range b.tables {
		if bt.alias == alias {
			return true
		}
	}
	return false
}

// resolveColumn qualifies a possibly-unqualified column against the FROM
// tables.
func (p *Planner) resolveColumn(b *BoundQuery, id expr.ColumnID) (expr.ColumnID, error) {
	var found expr.ColumnID
	matches := 0
	for _, bt := range b.tables {
		if id.Table != "" && bt.alias != id.Table {
			continue
		}
		for _, d := range bt.schema {
			if d.ID.Name == id.Name {
				found = d.ID
				matches++
				break
			}
		}
	}
	switch matches {
	case 0:
		return expr.ColumnID{}, fmt.Errorf("core: unknown column %s", id)
	case 1:
		return found, nil
	default:
		return expr.ColumnID{}, fmt.Errorf("core: ambiguous column %s", id)
	}
}

// resolveExpr qualifies every column reference in e.
func (p *Planner) resolveExpr(b *BoundQuery, e expr.Expr) (expr.Expr, error) {
	if e == nil {
		return nil, nil
	}
	var firstErr error
	resolved := expr.Rewrite(e, func(n expr.Expr) expr.Expr {
		if c, ok := n.(*expr.ColumnRef); ok {
			id, err := p.resolveColumn(b, c.ID)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return n
			}
			return expr.Column(id.Table, id.Name)
		}
		return n
	})
	return resolved, firstErr
}

// PlanQuery binds and plans a query into the standard plan (E1 in the
// paper: all joins first, then grouping).
func (p *Planner) PlanQuery(q *sql.SelectStmt) (algebra.Node, error) {
	b, err := p.Bind(q)
	if err != nil {
		return nil, err
	}
	return p.PlanStandard(b)
}

// PlanStandard assembles the standard "group after join" plan for a bound
// query: per-table predicates pushed to the scans, a left-deep join tree in
// FROM order, grouping above the joins, HAVING, projection, DISTINCT and
// ORDER BY on top.
func (p *Planner) PlanStandard(b *BoundQuery) (algebra.Node, error) {
	joined, err := p.buildJoinTree(b, nil, nil)
	if err != nil {
		return nil, err
	}
	return p.finishPlan(b, joined, b.Items, b.GroupBy)
}

// buildJoinTree builds the FROM/WHERE part of the plan over the given
// tables (nil means all FROM tables) using the given predicate conjuncts
// (nil means the query's WHERE conjuncts). The transformation passes the
// R1/R2 table groups with their C1/C2 conjunct lists — including any
// predicates added by expansion.
func (p *Planner) buildJoinTree(b *BoundQuery, only []boundTable, preds []expr.Expr) (algebra.Node, error) {
	tables := b.tables
	if only != nil {
		tables = only
	}
	aliasSet := make(map[string]bool, len(tables))
	for _, bt := range tables {
		aliasSet[bt.alias] = true
	}
	// Partition the conjuncts by the aliases they touch; conjuncts
	// referencing tables outside this subtree are skipped (the caller
	// handles them).
	conjuncts := preds
	if conjuncts == nil {
		conjuncts = expr.Conjuncts(b.Where)
	}
	var perTable = make(map[string][]expr.Expr)
	var multi []expr.Expr
	for _, c := range conjuncts {
		ts := expr.Tables(c)
		inside := true
		for _, t := range ts {
			if !aliasSet[t] {
				inside = false
				break
			}
		}
		if !inside {
			continue
		}
		switch len(ts) {
		case 0:
			multi = append(multi, c) // constant predicate: apply at the top
		case 1:
			perTable[ts[0]] = append(perTable[ts[0]], c)
		default:
			multi = append(multi, c)
		}
	}

	// Greedy join ordering: start from the first FROM entry and prefer,
	// at each step, a table connected to the already-joined set by some
	// predicate — avoiding accidental Cartesian products when the FROM
	// order interleaves unrelated tables. Ties break in FROM order, so
	// well-ordered queries plan exactly as written.
	var tree algebra.Node
	joinedAliases := make(map[string]bool)
	connected := func(bt boundTable) bool {
		for _, c := range multi {
			touchesThis, touchesJoined := false, false
			for _, t := range expr.Tables(c) {
				if t == bt.alias {
					touchesThis = true
				} else if joinedAliases[t] {
					touchesJoined = true
				}
			}
			if touchesThis && touchesJoined {
				return true
			}
		}
		return false
	}
	remaining := append([]boundTable{}, tables...)
	for len(remaining) > 0 {
		pick := 0
		if tree != nil {
			for i, bt := range remaining {
				if connected(bt) {
					pick = i
					break
				}
			}
			// No connected table found: pick == 0, a true product.
		}
		bt := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		node := bt.plan
		if preds := perTable[bt.alias]; len(preds) > 0 {
			node = &algebra.Select{Input: node, Cond: expr.And(preds...)}
		}
		if tree == nil {
			tree = node
			joinedAliases[bt.alias] = true
			continue
		}
		joinedAliases[bt.alias] = true
		// Attach every multi-table conjunct now fully covered.
		var cond []expr.Expr
		var rest []expr.Expr
		for _, c := range multi {
			covered := true
			for _, t := range expr.Tables(c) {
				if !joinedAliases[t] {
					covered = false
					break
				}
			}
			if covered {
				cond = append(cond, c)
			} else {
				rest = append(rest, c)
			}
		}
		multi = rest
		tree = &algebra.Join{L: tree, R: node, Cond: expr.And(cond...)}
	}
	if len(multi) > 0 {
		// Constant predicates, or conjuncts left uncovered (single
		// table in FROM).
		tree = &algebra.Select{Input: tree, Cond: expr.And(multi...)}
	}
	return tree, nil
}

// finishPlan adds grouping, HAVING, projection, DISTINCT and ORDER BY on
// top of a join tree.
func (p *Planner) finishPlan(b *BoundQuery, input algebra.Node, items []algebra.ProjItem, groupBy []expr.ColumnID) (algebra.Node, error) {
	hasAgg := false
	for _, it := range items {
		if expr.HasAggregate(it.E) {
			hasAgg = true
			break
		}
	}
	if expr.HasAggregate(b.Having) {
		hasAgg = true
	}

	plan := input
	finalItems := items
	if hasAgg || len(groupBy) > 0 {
		grouped, rewrittenItems, rewrittenHaving, err := p.buildGrouping(input, items, groupBy, b.Having)
		if err != nil {
			return nil, err
		}
		plan = grouped
		if rewrittenHaving != nil {
			plan = &algebra.Select{Input: plan, Cond: rewrittenHaving}
		}
		finalItems = rewrittenItems
	} else if b.Having != nil {
		return nil, fmt.Errorf("core: HAVING requires GROUP BY or aggregation")
	}

	plan = &algebra.Project{Input: plan, Items: finalItems, Distinct: b.Distinct}
	if len(b.OrderBy) > 0 {
		// ORDER BY keys must be output columns at this point.
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

// buildGrouping constructs the GroupBy node: one aggregate output column
// per distinct aggregate occurring in the select list or HAVING, with the
// outer expressions rewritten to reference those columns (see
// analyzeAggregates).
func (p *Planner) buildGrouping(
	input algebra.Node,
	items []algebra.ProjItem,
	groupBy []expr.ColumnID,
	having expr.Expr,
) (algebra.Node, []algebra.ProjItem, expr.Expr, error) {
	aggItems, outItems, outHaving, err := analyzeAggregates(items, groupBy, having)
	if err != nil {
		return nil, nil, nil, err
	}
	group := &algebra.GroupBy{Input: input, GroupCols: groupBy, Aggs: aggItems}
	return group, outItems, outHaving, nil
}
