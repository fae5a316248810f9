// Package plancheck statically verifies logical plans before they run.
//
// The engine's own transformation theory (Algorithm TestFD) is a static
// analysis over predicates and key constraints; this package extends the
// same mindset to the plans the planner and optimizer emit. Check walks a
// plan tree and enforces two groups of invariants:
//
// Well-formedness (always on):
//
//   - resolve: every column reference in every operator expression resolves,
//     unambiguously, against the operator's input schema;
//   - group-input: grouping columns are a subset of the grouping input;
//   - join-key-type: equi-join key pairs have comparable types;
//   - agg-placement: aggregate functions appear only inside GroupBy
//     aggregate items, and every aggregate item contains at least one;
//   - order: a GroupBy's output schema leads with its grouping columns in
//     declaration order — the property the executor's interesting-order
//     propagation (sorted grouped output, elided downstream sorts) relies on;
//   - shape: Values rows match their declared schema, Select/Join conditions
//     are structurally evaluable, and no unmaterialized subquery expression
//     survives into an executable plan;
//   - mergeable: every aggregate under a GroupBy constructs an accumulator
//     whose partial-aggregate Merge accepts a partner of the same kind —
//     the legality condition for running the node under parallel hash
//     aggregation.
//
// Paper-level legality (certificate-driven):
//
//   - eager-cert: a GroupBy sitting directly below a join is an *eager
//     aggregation* — the paper's group-by-before-join transformation — and
//     must carry a Certificate witnessing that Algorithm TestFD proved the
//     Main Theorem's two functional dependencies, FD1: (GA1, GA2) → GA1+
//     and FD2: (GA1+, GA2) → RowID(R2), and that the eager grouping columns
//     are exactly the certified GA1+. A missing or refuted certificate is
//     reported with the violated theorem condition named.
//
// The optimizer runs Check on every plan it emits when its CheckPlans flag is
// set, which the engine (gbj.New) always sets; the oracle and fuzz suites run
// it unconditionally.
package plancheck

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/value"
)

// Violation is one failed plan invariant.
type Violation struct {
	// Rule is the short identifier of the violated invariant (e.g.
	// "resolve", "eager-cert").
	Rule string
	// Node is the plan node the violation anchors to.
	Node algebra.Node
	// Msg explains the violation.
	Msg string
}

// Error renders the violation as "rule: node: message".
func (v Violation) Error() string {
	return fmt.Sprintf("plancheck[%s] at %s: %s", v.Rule, v.Node.Describe(), v.Msg)
}

// Options configures a check.
type Options struct {
	// Certificates are the TestFD certificates covering the plan's eager
	// aggregations (GroupBy nodes sitting directly below a join).
	Certificates []*Certificate
	// RequireEagerCert asserts that the plan is a transformed
	// (group-before-join) plan: it must contain at least one eager
	// aggregation and every one must be certified. Without it, plans with
	// no eager GroupBy pass trivially.
	RequireEagerCert bool
}

// Check verifies a plan and returns every violation found. A nil opts
// checks well-formedness only (any eager aggregation is then reported as
// uncertified).
func Check(root algebra.Node, opts *Options) []Violation {
	if opts == nil {
		opts = &Options{}
	}
	c := &checker{opts: opts}
	if root == nil {
		return []Violation{{Rule: "shape", Node: nilNode{}, Msg: "plan is nil"}}
	}
	c.walk(root)
	c.checkCertificates(root)
	c.checkDistributed(root)
	return c.violations
}

// Verify runs Check and folds any violations into a single error, nil when
// the plan is clean.
func Verify(root algebra.Node, opts *Options) error {
	vs := Check(root, opts)
	if len(vs) == 0 {
		return nil
	}
	msgs := make([]string, len(vs))
	for i, v := range vs {
		msgs[i] = v.Error()
	}
	return fmt.Errorf("plancheck: %d violation(s):\n  %s", len(vs), strings.Join(msgs, "\n  "))
}

// nilNode stands in for a missing plan so Violation.Node is never nil.
type nilNode struct{}

func (nilNode) Schema() algebra.Schema   { return nil }
func (nilNode) Children() []algebra.Node { return nil }
func (nilNode) Describe() string         { return "(nil plan)" }

type checker struct {
	opts       *Options
	violations []Violation
}

func (c *checker) report(rule string, n algebra.Node, format string, args ...any) {
	c.violations = append(c.violations, Violation{
		Rule: rule,
		Node: n,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// walk visits the tree bottom-up so child violations precede parents'.
func (c *checker) walk(n algebra.Node) {
	for _, child := range n.Children() {
		if child == nil {
			c.report("shape", n, "operator has a nil input")
			continue
		}
		c.walk(child)
	}
	c.checkNode(n)
}

func (c *checker) checkNode(n algebra.Node) {
	switch node := n.(type) {
	case *algebra.Scan:
		if len(node.Cols) == 0 {
			c.report("shape", node, "scan of %s exposes no columns", node.Table)
		}
	case *algebra.Values:
		for i, row := range node.Rows {
			if len(row) != len(node.Cols) {
				c.report("shape", node, "row %d has %d values for %d declared columns", i, len(row), len(node.Cols))
				continue
			}
			for k, v := range row {
				want := node.Cols[k].Type
				if v.IsNull() || want == value.KindNull {
					continue
				}
				if v.Kind() != want {
					c.report("shape", node, "row %d column %s holds %s, declared %s", i, node.Cols[k].ID, v.Kind(), want)
				}
			}
		}
	case *algebra.Select:
		if node.Cond == nil {
			c.report("shape", node, "selection has no predicate")
			return
		}
		in := node.Input.Schema()
		c.checkExpr("resolve", node, node.Cond, in)
		c.checkNoAggregates(node, node.Cond, "selection predicate")
	case *algebra.Product:
		// A pure product has no condition; only the eager-cert scan over
		// its children applies (handled in checkCertificates).
		c.checkLimitBelow(node, node.L)
		c.checkLimitBelow(node, node.R)
	case *algebra.Join:
		out := node.Schema()
		if node.Cond != nil {
			c.checkExpr("resolve", node, node.Cond, out)
			c.checkNoAggregates(node, node.Cond, "join predicate")
			c.checkJoinKeyTypes(node)
		}
		c.checkLimitBelow(node, node.L)
		c.checkLimitBelow(node, node.R)
	case *algebra.Project:
		in := node.Input.Schema()
		if len(node.Items) == 0 {
			c.report("shape", node, "projection has no items")
		}
		for _, item := range node.Items {
			c.checkExpr("resolve", node, item.E, in)
			c.checkNoAggregates(node, item.E, fmt.Sprintf("projection item %s", item.As))
		}
	case *algebra.GroupBy:
		c.checkGroupBy(node)
	case *algebra.Sort:
		in := node.Input.Schema()
		for _, k := range node.Keys {
			if _, err := in.IndexOf(k.Col); err != nil {
				c.report("order", node, "sort key %s does not resolve against the input: %v", k.Col, err)
			}
		}
	case *algebra.Limit:
		if node.N < 0 {
			c.report("order-requirement", node, "limit count %d is negative", node.N)
		}
	case ExchangeNode:
		// Distributed rules run in checkDistributed; here only shape: an
		// exchange moves rows, it must not change their schema.
		if in := node.Children(); len(in) != 1 {
			c.report("shape", node, "exchange has %d inputs, want 1", len(in))
		} else if len(node.Schema()) != len(in[0].Schema()) {
			c.report("shape", node, "exchange output schema %s differs in width from its input %s", node.Schema(), in[0].Schema())
		}
	case ShardSource:
		if len(node.Schema()) == 0 {
			c.report("shape", node, "shard of %s exposes no columns", node.ShardTable())
		}
	default:
		c.report("shape", n, "unknown operator %T", n)
	}
}

// checkExpr verifies that every column reference in e resolves against the
// schema and that no unmaterialized subquery node survives in the plan.
func (c *checker) checkExpr(rule string, n algebra.Node, e expr.Expr, in algebra.Schema) {
	expr.Walk(e, func(sub expr.Expr) bool {
		switch x := sub.(type) {
		case *expr.ColumnRef:
			if _, err := in.IndexOf(x.ID); err != nil {
				c.report(rule, n, "column %s does not resolve against the input schema %s: %v", x.ID, in, err)
			}
		case *expr.InSubquery, *expr.ExistsSubquery, *expr.ScalarSubquery:
			c.report("shape", n, "unmaterialized subquery expression %s in an executable plan", sub)
		}
		return true
	})
}

// checkNoAggregates enforces aggregate placement: aggregates live only in
// GroupBy aggregate items.
func (c *checker) checkNoAggregates(n algebra.Node, e expr.Expr, where string) {
	if expr.HasAggregate(e) {
		c.report("agg-placement", n, "aggregate function in %s; aggregates may appear only in GroupBy items", where)
	}
}

// checkJoinKeyTypes verifies type compatibility of equi-join key pairs: a
// Type 2 atom with one column on each side must compare values of
// compatible kinds (equal, or both numeric). KindNull means the planner
// could not infer a type and is treated as compatible-with-anything.
func (c *checker) checkJoinKeyTypes(node *algebra.Join) {
	l, r := node.L.Schema(), node.R.Schema()
	for _, conj := range expr.Conjuncts(node.Cond) {
		atom := expr.ClassifyAtom(conj)
		if atom.Class != expr.AtomColCol {
			continue
		}
		lt, lok := kindIn(l, atom.Col)
		rt, rok := kindIn(r, atom.Col2)
		if !lok || !rok {
			// Try the swapped orientation.
			lt, lok = kindIn(l, atom.Col2)
			rt, rok = kindIn(r, atom.Col)
		}
		if !lok || !rok {
			continue // not a cross-side pair; resolve rule covers the rest
		}
		if !kindsComparable(lt, rt) {
			c.report("join-key-type", node, "equi-join key %s has incompatible column types %s and %s", conj, lt, rt)
		}
	}
}

func kindIn(s algebra.Schema, id expr.ColumnID) (value.Kind, bool) {
	idx, err := s.IndexOf(id)
	if err != nil {
		return value.KindNull, false
	}
	return s[idx].Type, true
}

// kindsComparable reports whether values of the two kinds compare under the
// engine's value.Compare: equal kinds always do, and the two numeric kinds
// compare with each other. An unknown kind is compatible with anything.
func kindsComparable(a, b value.Kind) bool {
	if a == value.KindNull || b == value.KindNull || a == b {
		return true
	}
	numeric := func(k value.Kind) bool { return k == value.KindInt || k == value.KindFloat }
	return numeric(a) && numeric(b)
}

// checkLimitBelow enforces the spill-safety rule: a Limit must not feed a
// row-multiplying or grouping operator through cardinality-transparent
// operators (Select, Sort) — truncating an intermediate there changes the
// result, and the spilling executor's restart-on-budget-breach paths assume
// inner inputs can be re-read in full. A Limit inside a derived table is
// fine: the derived-table boundary always materializes as a Project, which
// stops this walk.
func (c *checker) checkLimitBelow(parent algebra.Node, in algebra.Node) {
	for {
		switch node := in.(type) {
		case *algebra.Select:
			in = node.Input
		case *algebra.Sort:
			in = node.Input
		case *algebra.Limit:
			c.report("spill-safety", parent, "limit feeds %s without an intervening projection; truncated intermediates are unsafe under join/group re-reads", parent.Describe())
			return
		default:
			return
		}
	}
}

func (c *checker) checkGroupBy(node *algebra.GroupBy) {
	in := node.Input.Schema()
	// group-input: GA ⊆ input schema.
	for _, gc := range node.GroupCols {
		if _, err := in.IndexOf(gc); err != nil {
			c.report("group-input", node, "grouping column %s is not in the input schema %s: %v", gc, in, err)
		}
	}
	// order: the output schema must lead with the grouping columns in
	// declaration order — the executor's interesting-order machinery
	// claims sorted grouped output on exactly those positions.
	out := node.Schema()
	if len(out) < len(node.GroupCols) {
		c.report("order", node, "output schema %s is narrower than the grouping column list", out)
	} else {
		for i, gc := range node.GroupCols {
			if out[i].ID != gc {
				c.report("order", node, "output column %d is %s, want grouping column %s first", i, out[i].ID, gc)
			}
		}
	}
	c.checkLimitBelow(node, node.Input)
	// Aggregate items: at least one aggregate each, argument columns
	// resolve, and the accumulators form a mergeable partial-aggregate
	// algebra (parallel-grouping legality).
	for _, item := range node.Aggs {
		aggs := expr.Aggregates(item.E)
		if len(aggs) == 0 {
			c.report("agg-placement", node, "aggregate item %s AS %s contains no aggregate function", item.E, item.As)
			continue
		}
		for _, a := range aggs {
			if a.Arg != nil {
				c.checkExpr("resolve", node, a.Arg, in)
			}
			c.checkMergeable(node, a)
		}
	}
}

// checkMergeable verifies that the aggregate constructs an accumulator and
// that a same-kind partial merges into it — the static precondition for
// running this GroupBy under parallel hash aggregation, whose thread-local
// partials combine through Accumulator.Merge.
func (c *checker) checkMergeable(node *algebra.GroupBy, a *expr.Aggregate) {
	dst, err := expr.NewAccumulator(a)
	if err != nil {
		c.report("mergeable", node, "aggregate %s has no accumulator: %v", a, err)
		return
	}
	src, err := expr.NewAccumulator(a)
	if err != nil {
		c.report("mergeable", node, "aggregate %s has no accumulator: %v", a, err)
		return
	}
	if err := dst.Merge(src); err != nil {
		c.report("mergeable", node, "aggregate %s rejects a same-kind partial merge (not parallelizable): %v", a, err)
	}
}
