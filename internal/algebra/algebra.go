// Package algebra defines the logical plan representation: a tree of
// operators mirroring the paper's SQL2 algebra (Section 4.1) —
// G[GA] grouping, F[AA] aggregation, σ[C] selection, π_A/π_D projection,
// Cartesian product and join. Logical plans are produced by the planner,
// rewritten by the optimizer (the group-by pushdown transformation works at
// this level), and lowered to physical operators by the executor.
//
// Every node exposes an output schema of typed, qualified columns; schema
// computation is where duplicate-column and unknown-column errors surface.
package algebra

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/value"
)

// ColDesc describes one output column of a plan node.
type ColDesc struct {
	ID   expr.ColumnID
	Type value.Kind
	// NotNull tracks non-nullability where it can be derived; the FD
	// machinery uses it when reasoning about keys.
	NotNull bool
}

// Schema is an ordered list of output columns.
type Schema []ColDesc

// IndexOf resolves a column reference against the schema: an exact
// qualified match, or a unique unqualified match. It returns an error for
// unknown or ambiguous references.
func (s Schema) IndexOf(id expr.ColumnID) (int, error) {
	found := -1
	for i, c := range s {
		if c.ID.Name != id.Name {
			continue
		}
		if id.Table != "" && c.ID.Table != id.Table {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("algebra: ambiguous column reference %s", id)
		}
		found = i
	}
	if found < 0 {
		return -1, fmt.Errorf("algebra: unknown column %s", id)
	}
	return found, nil
}

// Resolve implements expr.Resolver.
func (s Schema) Resolve(id expr.ColumnID) (int, error) { return s.IndexOf(id) }

// IDs returns the column identifiers in order.
func (s Schema) IDs() []expr.ColumnID {
	out := make([]expr.ColumnID, len(s))
	for i, c := range s {
		out[i] = c.ID
	}
	return out
}

// String renders the schema as "(a, b, c)".
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = c.ID.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Node is a logical plan operator.
type Node interface {
	// Schema returns the node's output columns.
	Schema() Schema
	// Children returns the node's inputs, left to right.
	Children() []Node
	// Describe returns a one-line description, e.g. "σ[E.DeptID = 25]".
	Describe() string
}

// Scan reads a base table. Alias is the correlation name the query used
// ("E" in "Employee E"); output columns are qualified by it.
type Scan struct {
	Table string
	Alias string
	Cols  Schema // filled by the planner from the catalog
}

// NewScan builds a scan over a table with the given alias and columns.
func NewScan(table, alias string, cols Schema) *Scan {
	return &Scan{Table: table, Alias: alias, Cols: cols}
}

// Schema returns the scan's output columns.
func (s *Scan) Schema() Schema { return s.Cols }

// Children returns no inputs.
func (s *Scan) Children() []Node { return nil }

// Describe names the scanned table.
func (s *Scan) Describe() string {
	if s.Alias != "" && s.Alias != s.Table {
		return fmt.Sprintf("Scan %s AS %s", s.Table, s.Alias)
	}
	return "Scan " + s.Table
}

// Select is σ[Cond]: keep rows where Cond evaluates to true (unknown
// disqualifies, per SQL2 WHERE semantics). Duplicates are preserved.
type Select struct {
	Input Node
	Cond  expr.Expr
}

// Schema passes the input schema through.
func (s *Select) Schema() Schema { return s.Input.Schema() }

// Children returns the single input.
func (s *Select) Children() []Node { return []Node{s.Input} }

// Describe renders σ[condition].
func (s *Select) Describe() string { return fmt.Sprintf("Select σ[%s]", s.Cond) }

// Product is the Cartesian product L × R.
type Product struct {
	L, R Node
}

// Schema concatenates the input schemas.
func (p *Product) Schema() Schema {
	l, r := p.L.Schema(), p.R.Schema()
	out := make(Schema, 0, len(l)+len(r))
	out = append(out, l...)
	out = append(out, r...)
	return out
}

// Children returns both inputs.
func (p *Product) Children() []Node { return []Node{p.L, p.R} }

// Describe renders the product.
func (p *Product) Describe() string { return "Product ×" }

// Join is σ[Cond](L × R) fused into one operator: the executor runs every
// join as a hash join, keyed on Cond's equi-join conjuncts — on the empty
// key when there are none — with the rest of Cond as its residual. Cond may
// be nil (pure product).
type Join struct {
	L, R Node
	Cond expr.Expr
}

// Schema concatenates the input schemas.
func (j *Join) Schema() Schema {
	l, r := j.L.Schema(), j.R.Schema()
	out := make(Schema, 0, len(l)+len(r))
	out = append(out, l...)
	out = append(out, r...)
	return out
}

// Children returns both inputs.
func (j *Join) Children() []Node { return []Node{j.L, j.R} }

// Describe renders the join predicate.
func (j *Join) Describe() string {
	if j.Cond == nil {
		return "Join ⨯ (no predicate)"
	}
	return fmt.Sprintf("Join ⋈[%s]", j.Cond)
}

// ProjItem is one output column of a projection: an expression and the
// identifier it is exposed under.
type ProjItem struct {
	E  expr.Expr
	As expr.ColumnID
}

// Project is π_A (Distinct=false) or π_D (Distinct=true): evaluate the item
// expressions per row, eliminating duplicate output rows under =ⁿ when
// Distinct is set.
type Project struct {
	Input    Node
	Items    []ProjItem
	Distinct bool
}

// Schema derives the output columns from the projection items. Types are
// inferred from the item expressions against the input schema.
func (p *Project) Schema() Schema {
	in := p.Input.Schema()
	out := make(Schema, len(p.Items))
	for i, item := range p.Items {
		out[i] = ColDesc{ID: item.As, Type: inferType(item.E, in)}
	}
	return out
}

// Children returns the single input.
func (p *Project) Children() []Node { return []Node{p.Input} }

// Describe renders π with its item list.
func (p *Project) Describe() string {
	sym := "π_A"
	if p.Distinct {
		sym = "π_D"
	}
	items := make([]string, len(p.Items))
	for i, it := range p.Items {
		if c, ok := it.E.(*expr.ColumnRef); ok && c.ID == it.As {
			items[i] = it.As.String()
		} else {
			items[i] = fmt.Sprintf("%s AS %s", it.E, it.As)
		}
	}
	return fmt.Sprintf("Project %s[%s]", sym, strings.Join(items, ", "))
}

// AggItem is one element of the paper's F(AA): an aggregate-bearing
// arithmetic expression and the identifier its per-group result is exposed
// under (an FAA column).
type AggItem struct {
	E  expr.Expr // contains at least one *expr.Aggregate, or is COUNT(*)
	As expr.ColumnID
}

// GroupBy fuses the paper's G[GA] grouping and F[AA] aggregation: group the
// input on GroupCols under =ⁿ duplicate semantics, then emit one row per
// group holding the grouping columns followed by the aggregate results.
// With no GroupCols the whole input is one group (scalar aggregation) and
// exactly one row is produced even for empty input.
type GroupBy struct {
	Input     Node
	GroupCols []expr.ColumnID
	Aggs      []AggItem
}

// Schema returns the grouping columns (with their input types) followed by
// the aggregate output columns.
func (g *GroupBy) Schema() Schema {
	in := g.Input.Schema()
	out := make(Schema, 0, len(g.GroupCols)+len(g.Aggs))
	for _, gc := range g.GroupCols {
		idx, err := in.IndexOf(gc)
		if err != nil {
			out = append(out, ColDesc{ID: gc})
			continue
		}
		d := in[idx]
		out = append(out, ColDesc{ID: gc, Type: d.Type, NotNull: d.NotNull})
	}
	for _, a := range g.Aggs {
		out = append(out, ColDesc{ID: a.As, Type: aggType(a.E, in)})
	}
	return out
}

// Children returns the single input.
func (g *GroupBy) Children() []Node { return []Node{g.Input} }

// Describe renders G[GA] F[AA].
func (g *GroupBy) Describe() string {
	gcols := make([]string, len(g.GroupCols))
	for i, c := range g.GroupCols {
		gcols[i] = c.String()
	}
	aggs := make([]string, len(g.Aggs))
	for i, a := range g.Aggs {
		aggs[i] = fmt.Sprintf("%s AS %s", a.E, a.As)
	}
	if len(aggs) == 0 {
		return fmt.Sprintf("GroupBy G[%s]", strings.Join(gcols, ", "))
	}
	return fmt.Sprintf("GroupBy G[%s] F[%s]", strings.Join(gcols, ", "), strings.Join(aggs, ", "))
}

// SortItem is one ORDER BY key.
type SortItem struct {
	Col  expr.ColumnID
	Desc bool
}

// Sort orders rows by the given keys under the total order of
// value.OrderKey (NULLs first).
type Sort struct {
	Input Node
	Keys  []SortItem
}

// Schema passes the input schema through.
func (s *Sort) Schema() Schema { return s.Input.Schema() }

// Children returns the single input.
func (s *Sort) Children() []Node { return []Node{s.Input} }

// Describe renders the sort keys.
func (s *Sort) Describe() string {
	keys := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		keys[i] = k.Col.String()
		if k.Desc {
			keys[i] += " DESC"
		}
	}
	return "Sort [" + strings.Join(keys, ", ") + "]"
}

// Limit passes through the first N rows of its input and discards the
// rest. Combined with a Sort input it is the logical TopK the executor
// fuses into a bounded-heap operator.
type Limit struct {
	Input Node
	N     int64
}

// Schema passes the input schema through.
func (l *Limit) Schema() Schema { return l.Input.Schema() }

// Children returns the single input.
func (l *Limit) Children() []Node { return []Node{l.Input} }

// Describe renders the row bound.
func (l *Limit) Describe() string { return fmt.Sprintf("Limit %d", l.N) }

// Values is an inline table of literal rows, used by tests and by INSERT
// planning.
type Values struct {
	Cols Schema
	Rows []value.Row
}

// Schema returns the declared columns.
func (v *Values) Schema() Schema { return v.Cols }

// Children returns no inputs.
func (v *Values) Children() []Node { return nil }

// Describe reports the row count.
func (v *Values) Describe() string { return fmt.Sprintf("Values (%d rows)", len(v.Rows)) }

// inferType computes the result type of an expression against an input
// schema; KindNull when undeterminable.
func inferType(e expr.Expr, in Schema) value.Kind {
	switch n := e.(type) {
	case *expr.ColumnRef:
		if idx, err := in.IndexOf(n.ID); err == nil {
			return in[idx].Type
		}
		return value.KindNull
	case *expr.Literal:
		return n.Val.Kind()
	case *expr.Binary:
		if n.Op.IsComparison() || n.Op.IsConnective() {
			return value.KindBool
		}
		if n.Op == expr.OpDiv {
			return value.KindFloat
		}
		lt, rt := inferType(n.L, in), inferType(n.R, in)
		if lt == value.KindFloat || rt == value.KindFloat {
			return value.KindFloat
		}
		return value.KindInt
	case *expr.Unary:
		if n.Op == expr.OpNot {
			return value.KindBool
		}
		return inferType(n.E, in)
	case *expr.IsNull, *expr.InList, *expr.Between, *expr.Like:
		return value.KindBool
	case *expr.Aggregate:
		return aggType(n, in)
	default:
		return value.KindNull
	}
}

// aggType computes the result type of an aggregate-bearing expression.
func aggType(e expr.Expr, in Schema) value.Kind {
	switch n := e.(type) {
	case *expr.Aggregate:
		switch n.Func {
		case expr.AggCount, expr.AggCountStar:
			return value.KindInt
		case expr.AggAvg:
			return value.KindFloat
		case expr.AggSum, expr.AggMin, expr.AggMax:
			return inferType(n.Arg, in)
		default:
			// Unknown aggregate function: undeterminable. (Falling
			// through to inferType would recurse forever.)
			return value.KindNull
		}
	}
	return inferType(e, in)
}
