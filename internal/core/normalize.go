package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/schema"
)

// Shape is a query normalized into the paper's Section 3 form:
//
//	SELECT [ALL|DISTINCT] SGA1, SGA2, F(AA)
//	FROM   R1, R2
//	WHERE  C1 ∧ C0 ∧ C2
//	GROUP BY GA1, GA2
//
// where R1 is the group of tables contributing aggregation columns and R2
// the group contributing none. GA1+/GA2+ extend the grouping columns of
// each side with its join columns (the columns involved in C0).
type Shape struct {
	Bound *BoundQuery

	// R1 and R2 are the effective aliases of the two table groups, in
	// FROM order.
	R1, R2 []string
	// r1Set is the membership set for R1.
	r1Set map[string]bool

	// C1, C0, C2 are the WHERE conjuncts classified per Section 3.
	C1, C0, C2 []expr.Expr

	// GA1, GA2 are the grouping columns drawn from R1 and R2.
	GA1, GA2 []expr.ColumnID
	// GA1Plus, GA2Plus are GA1/GA2 extended with each side's C0 columns.
	GA1Plus, GA2Plus []expr.ColumnID

	// AggItems is F(AA): one entry per distinct aggregate, named $agg0,
	// $agg1, ... — shared between the standard and transformed plans so
	// the final projection binds identically in both.
	AggItems []algebra.AggItem
	// Items is the select list rewritten to reference grouping columns
	// and the $aggN aggregate outputs.
	Items []algebra.ProjItem
	// HavingAgg holds HAVING conjuncts that reference aggregate results
	// (rewritten to the $aggN columns). This extends the paper — its
	// Section 9 lists HAVING as future work: conjuncts over grouping
	// columns alone migrate into the WHERE decomposition (filtering a
	// whole group equals filtering its rows when the predicate only
	// reads group columns), and aggregate conjuncts are applied to the
	// transformed plan after the join, which is valid exactly when FD1
	// and FD2 hold: then E1 and E2 rows correspond one to one with equal
	// aggregate values, so the same filter keeps the same rows.
	HavingAgg []expr.Expr
}

// R1Tables reports whether the alias belongs to the R1 group.
func (s *Shape) InR1(alias string) bool { return s.r1Set[alias] }

// String summarizes the normalization for EXPLAIN output.
func (s *Shape) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "R1 = {%s}, R2 = {%s}\n", strings.Join(s.R1, ", "), strings.Join(s.R2, ", "))
	fmt.Fprintf(&sb, "C1 = %s\n", predList(s.C1))
	fmt.Fprintf(&sb, "C0 = %s\n", predList(s.C0))
	fmt.Fprintf(&sb, "C2 = %s\n", predList(s.C2))
	fmt.Fprintf(&sb, "GA1 = %s, GA2 = %s\n", colList(s.GA1), colList(s.GA2))
	fmt.Fprintf(&sb, "GA1+ = %s, GA2+ = %s\n", colList(s.GA1Plus), colList(s.GA2Plus))
	aggs := make([]string, len(s.AggItems))
	for i, a := range s.AggItems {
		aggs[i] = a.E.String()
	}
	fmt.Fprintf(&sb, "F(AA) = [%s]", strings.Join(aggs, ", "))
	if len(s.HavingAgg) > 0 {
		fmt.Fprintf(&sb, "\nHAVING (post-join) = %s", predList(s.HavingAgg))
	}
	return sb.String()
}

func predList(preds []expr.Expr) string {
	if len(preds) == 0 {
		return "(empty)"
	}
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}

func colList(cols []expr.ColumnID) string {
	if len(cols) == 0 {
		return "()"
	}
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// ErrNotApplicable explains why a query is outside the transformable class.
type ErrNotApplicable struct{ Why string }

func (e *ErrNotApplicable) Error() string {
	return "core: group-by pushdown not applicable: " + e.Why
}

func notApplicable(format string, args ...any) error {
	return &ErrNotApplicable{Why: fmt.Sprintf(format, args...)}
}

// Normalize puts a bound query into the paper's form. r1Override, when
// non-empty, forces the R1 table group (used to explore alternative
// partitions when the aggregation columns leave the partition free, e.g.
// for COUNT(*)-only queries); otherwise R1 is the set of tables referenced
// by aggregate arguments, per the paper.
func Normalize(b *BoundQuery, r1Override []string) (*Shape, error) {
	if len(b.GroupBy) == 0 {
		return nil, notApplicable("query has no GROUP BY")
	}
	if len(b.tables) < 2 {
		return nil, notApplicable("query references a single table; there is no join to push past")
	}

	// Collect F(AA), the rewritten select list and the rewritten HAVING.
	aggItems, items, having, err := analyzeAggregates(b.Items, b.GroupBy, b.Having)
	if err != nil {
		return nil, err
	}

	// Split HAVING (see the HavingAgg field comment): conjuncts over
	// grouping columns alone join the WHERE decomposition; conjuncts
	// over aggregate results are filed for post-join filtering.
	var havingToWhere, havingAgg []expr.Expr
	for _, conj := range expr.Conjuncts(having) {
		refsAgg := false
		expr.Walk(conj, func(n expr.Expr) bool {
			if c, ok := n.(*expr.ColumnRef); ok && strings.HasPrefix(c.ID.Name, "$agg") {
				refsAgg = true
			}
			return !refsAgg
		})
		if refsAgg {
			havingAgg = append(havingAgg, conj)
		} else {
			havingToWhere = append(havingToWhere, conj)
		}
	}

	// Partition tables: those contributing aggregation columns form R1.
	aaTables := make(map[string]bool)
	for _, a := range aggItems {
		agg := a.E.(*expr.Aggregate)
		if agg.Arg == nil {
			continue // COUNT(*) constrains no table
		}
		for _, t := range expr.Tables(agg.Arg) {
			aaTables[t] = true
		}
	}
	r1Set := aaTables
	if len(r1Override) > 0 {
		r1Set = make(map[string]bool, len(r1Override))
		for _, a := range r1Override {
			r1Set[a] = true
		}
		// The override must cover every aggregation column's table.
		for t := range aaTables {
			if !r1Set[t] {
				return nil, notApplicable("R1 override excludes %s, which holds aggregation columns", t)
			}
		}
	}
	if len(r1Set) == 0 {
		return nil, notApplicable("no aggregation columns pin the table partition; supply an R1 override")
	}

	s := &Shape{Bound: b, r1Set: r1Set, AggItems: aggItems, Items: items, HavingAgg: havingAgg}
	for _, bt := range b.tables {
		if r1Set[bt.alias] {
			s.R1 = append(s.R1, bt.alias)
		} else {
			s.R2 = append(s.R2, bt.alias)
		}
	}
	if len(s.R2) == 0 {
		return nil, notApplicable("every table contributes aggregation columns; no table can play R2")
	}
	if len(s.R1) != len(r1Set) {
		return nil, notApplicable("R1 override names a table not in the FROM clause")
	}

	// Classify the WHERE conjuncts — plus the grouping-column HAVING
	// conjuncts folded into WHERE — into C1 / C0 / C2.
	conjuncts := append(expr.Conjuncts(b.Where), havingToWhere...)
	for _, conj := range conjuncts {
		switch expr.Classify(conj, s.r1Set) {
		case expr.SideC1:
			s.C1 = append(s.C1, conj)
		case expr.SideC0:
			s.C0 = append(s.C0, conj)
		default:
			s.C2 = append(s.C2, conj)
		}
	}

	// Split the grouping columns.
	for _, gc := range b.GroupBy {
		if s.r1Set[gc.Table] {
			s.GA1 = append(s.GA1, gc)
		} else {
			s.GA2 = append(s.GA2, gc)
		}
	}

	// GA1+ / GA2+: grouping columns plus each side's C0 columns.
	c0cols := expr.Columns(expr.And(s.C0...))
	s.GA1Plus = appendUnique(append([]expr.ColumnID{}, s.GA1...), filterBySide(c0cols, s.r1Set, true))
	s.GA2Plus = appendUnique(append([]expr.ColumnID{}, s.GA2...), filterBySide(c0cols, s.r1Set, false))
	return s, nil
}

func filterBySide(cols []expr.ColumnID, r1 map[string]bool, wantR1 bool) []expr.ColumnID {
	var out []expr.ColumnID
	for _, c := range cols {
		if r1[c.Table] == wantR1 {
			out = append(out, c)
		}
	}
	return out
}

func appendUnique(base []expr.ColumnID, extra []expr.ColumnID) []expr.ColumnID {
	seen := make(map[expr.ColumnID]bool, len(base))
	for _, c := range base {
		seen[c] = true
	}
	for _, c := range extra {
		if !seen[c] {
			seen[c] = true
			base = append(base, c)
		}
	}
	return base
}

// ExpandPredicates implements the paper's Section 6.3 closing remark
// ("predicate expansion ... routinely used but outside the scope of this
// paper"): derive constant predicates for R1's join columns from equality
// chains through C0 and C2, and add them to C1 so the eager aggregation
// does not group rows that could never join.
//
// Example 3: from C0's U.Machine = A.Machine and C2's U.Machine = 'dragon'
// it derives A.Machine = 'dragon' — without it the transformed plan
// wastefully groups the printer usage of every machine.
//
// Soundness: a derived predicate references only GA1+ columns (they come
// from C0's equivalence classes), so all rows of a GA1+ group share the
// tested value and the filter drops exactly the groups whose aggregated
// row would fail C0 against every σ[C2]R2 row. The added conjuncts are
// returned for tracing; Shape.C1 is updated in place.
func ExpandPredicates(s *Shape) []expr.Expr {
	// Union the columns Type 2 atoms connect; then constants[root] is a
	// constant expression some member of root's class equals.
	u := colUnion{}
	var consts []expr.EqAtom
	for _, conj := range slices.Concat(s.C1, s.C0, s.C2) {
		switch atom := expr.ClassifyAtom(conj); atom.Class {
		case expr.AtomColCol:
			u.union(atom)
		case expr.AtomColConst:
			consts = append(consts, atom)
		}
	}
	constants := make(map[expr.ColumnID]expr.Expr)
	for _, atom := range consts {
		root := u.find(atom.Col)
		if _, ok := constants[root]; !ok {
			constants[root] = atom.Const
		}
	}

	// Columns already pinned directly in C1.
	pinned := make(map[expr.ColumnID]bool)
	for _, conj := range s.C1 {
		if atom := expr.ClassifyAtom(conj); atom.Class == expr.AtomColConst {
			pinned[atom.Col] = true
		}
	}

	var added []expr.Expr
	for _, col := range s.GA1Plus {
		if !s.r1Set[col.Table] || pinned[col] {
			continue
		}
		c, ok := constants[u.find(col)]
		if !ok {
			continue
		}
		pred := expr.Eq(expr.Column(col.Table, col.Name), c)
		s.C1 = append(s.C1, pred)
		pinned[col] = true
		added = append(added, pred)
	}
	return added
}

// analyzeAggregates extracts one AggItem per distinct aggregate in the
// select list (and HAVING, if supplied), rewriting the outer expressions to
// reference the $aggN output columns, and validates that every remaining
// plain column reference is a grouping column.
func analyzeAggregates(
	items []algebra.ProjItem,
	groupBy []expr.ColumnID,
	having expr.Expr,
) (aggs []algebra.AggItem, outItems []algebra.ProjItem, outHaving expr.Expr, err error) {
	groupSet := make(map[expr.ColumnID]bool, len(groupBy))
	for _, gc := range groupBy {
		groupSet[gc] = true
	}
	aggName := func(a *expr.Aggregate) expr.ColumnID {
		for _, existing := range aggs {
			if expr.Equal(existing.E, a) {
				return existing.As
			}
		}
		id := expr.ColumnID{Name: fmt.Sprintf("$agg%d", len(aggs))}
		aggs = append(aggs, algebra.AggItem{E: a, As: id})
		return id
	}
	rewrite := func(e expr.Expr) (expr.Expr, error) {
		out := expr.RewritePre(e, func(n expr.Expr) expr.Expr {
			if a, ok := n.(*expr.Aggregate); ok {
				return expr.Column("", aggName(a).Name)
			}
			return nil
		})
		var bad expr.ColumnID
		ok := true
		expr.Walk(out, func(n expr.Expr) bool {
			if c, okc := n.(*expr.ColumnRef); okc {
				if !groupSet[c.ID] && !strings.HasPrefix(c.ID.Name, "$agg") {
					bad = c.ID
					ok = false
				}
			}
			return ok
		})
		if !ok {
			return nil, fmt.Errorf("core: column %s must appear in the GROUP BY clause or inside an aggregate", bad)
		}
		return out, nil
	}
	outItems = make([]algebra.ProjItem, len(items))
	for i, it := range items {
		e, rerr := rewrite(it.E)
		if rerr != nil {
			return nil, nil, nil, rerr
		}
		outItems[i] = algebra.ProjItem{E: e, As: it.As}
	}
	if having != nil {
		outHaving, err = rewrite(having)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return aggs, outItems, outHaving, nil
}

// tableConstraints gathers, for one bound base table, the alias-qualified
// CHECK predicates (the T1/T2 of Theorem 3) and the key constraints.
type tableConstraints struct {
	alias string
	// checks are the column- and table-level CHECK predicates with
	// columns qualified by the alias.
	checks []expr.Expr
	// keys are the candidate keys as qualified column lists.
	keys []qualifiedKey
	// allCols are all columns of the table, qualified.
	allCols []expr.ColumnID
	// notNull records which qualified columns are declared NOT NULL.
	notNull map[expr.ColumnID]bool
}

type qualifiedKey struct {
	cols    []expr.ColumnID
	primary bool
	// nullSafe marks keys that hold under =ⁿ even with NULL values
	// (grouped / DISTINCT derived tables), unlike base-table UNIQUE.
	nullSafe bool
	display  string
}

// constraintsFor builds the constraint view of a bound table — a base
// table's declared constraints, or a derived table's Example 2-style
// derived constraints.
func constraintsFor(bt boundTable) tableConstraints {
	tc := tableConstraints{alias: bt.alias, notNull: make(map[expr.ColumnID]bool)}
	qualify := func(e expr.Expr) expr.Expr {
		return expr.Rewrite(e, func(n expr.Expr) expr.Expr {
			if c, ok := n.(*expr.ColumnRef); ok && c.ID.Table == "" {
				return expr.Column(bt.alias, c.ID.Name)
			}
			return n
		})
	}
	if bt.def == nil {
		// Derived table or view.
		for _, d := range bt.schema {
			tc.allCols = append(tc.allCols, d.ID)
			if d.NotNull {
				tc.notNull[d.ID] = true
			}
		}
		if dc := bt.derived; dc != nil {
			for name := range dc.notNull {
				tc.notNull[expr.ColumnID{Table: bt.alias, Name: name}] = true
			}
			for _, k := range dc.keys {
				qk := qualifiedKey{nullSafe: k.nullSafe, display: bt.alias + " " + k.display}
				for _, name := range k.cols {
					qk.cols = append(qk.cols, expr.ColumnID{Table: bt.alias, Name: name})
				}
				tc.keys = append(tc.keys, qk)
			}
			for _, chk := range dc.checks {
				tc.checks = append(tc.checks, qualify(chk))
			}
		}
		return tc
	}
	def := bt.def
	for _, c := range def.Columns {
		id := expr.ColumnID{Table: bt.alias, Name: c.Name}
		tc.allCols = append(tc.allCols, id)
		if c.NotNull {
			tc.notNull[id] = true
		}
		if c.Check != nil {
			tc.checks = append(tc.checks, qualify(c.Check))
		}
	}
	for _, chk := range def.Checks {
		tc.checks = append(tc.checks, qualify(chk))
	}
	for _, k := range def.Keys {
		qk := qualifiedKey{primary: k.Primary, display: fmt.Sprintf("%s %s", bt.alias, schema.Key{Columns: k.Columns, Primary: k.Primary})}
		for _, name := range k.Columns {
			qk.cols = append(qk.cols, expr.ColumnID{Table: bt.alias, Name: name})
		}
		tc.keys = append(tc.keys, qk)
	}
	return tc
}
