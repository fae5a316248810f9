// Compilation from a logical plan to a distributed plan. The compiler
// tracks placement bottom-up — a subtree is either partitioned (evaluated
// once per node over shard data) or global (evaluated at the coordinator) —
// and inserts exchanges exactly where placement must change:
//
//   - Scans become shard Leafs (partitioned); per-row operators (Select,
//     Project, non-distinct) fuse into their input's fragment.
//   - A join with a partitioned left side broadcasts its right side and
//     joins per node (partitioned output, legal because left shards are
//     disjoint); a coordinator-side left gathers the right side instead.
//   - A GroupBy over partitioned input is the lazy/eager decision point of
//     the paper's Section 7: lazy gathers every input row and groups at the
//     coordinator; eager pre-aggregates per node, ships one partial row per
//     node-local group, and merges at the coordinator. DISTINCT aggregates
//     are not mergeable, so they use a shuffle on the grouping key (which
//     co-locates each group, making per-node grouping complete) unless the
//     strategy forces lazy.
//   - Sorts and distinct projections run at the coordinator (with a
//     per-node pre-dedup for distinct projections over partitioned input).
//
// With a cardinality estimator the compiler also attaches per-exchange
// byte estimates — the communication term the cost model adds to plan
// costs — and StrategyAuto picks eager or lazy per GroupBy by comparing
// the estimated bytes each would ship.
package dist

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/value"
)

// Strategy selects how grouping over partitioned input ships data.
type Strategy uint8

// The shipping strategies.
const (
	// StrategyAuto chooses eager or lazy per GroupBy by estimated
	// communication bytes (eager when no estimator is available and the
	// aggregates are decomposable).
	StrategyAuto Strategy = iota
	// StrategyEager forces local pre-aggregation before shipping whenever
	// the aggregates are decomposable.
	StrategyEager
	// StrategyLazy forces ship-then-aggregate: every input row moves to
	// the coordinator.
	StrategyLazy
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyEager:
		return "eager"
	case StrategyLazy:
		return "lazy"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Config parameterizes compilation.
type Config struct {
	// Nodes is the cluster size the plan will run on.
	Nodes int
	// Strategy is the grouping ship strategy.
	Strategy Strategy
	// Rows estimates the output cardinality of a node of the logical
	// plan; nil disables byte estimates and makes StrategyAuto default to
	// eager for decomposable aggregates.
	Rows func(algebra.Node) float64
}

// Plan is a compiled distributed plan.
type Plan struct {
	// Root is the distributed operator tree; its output is global (fully
	// materialized at the coordinator).
	Root algebra.Node
	// Nodes is the cluster size the plan was compiled for.
	Nodes int
	// Strategy is the configured ship strategy.
	Strategy Strategy
	// Exchanges lists every exchange in the plan, in compile order.
	Exchanges []*Exchange
	// Origins maps distributed-plan nodes back to the logical nodes they
	// were derived from, for threading per-node estimates into EXPLAIN
	// ANALYZE calibration. Synthesized nodes (exchanges, partial
	// aggregates) map to their closest logical ancestor.
	Origins map[algebra.Node]algebra.Node
	// EstBytes is the summed per-exchange byte estimate (0 without an
	// estimator).
	EstBytes float64
	// EstRows is the row estimate of every node whose output, summed over
	// the sites that produce it, is not its origin's cardinality: a per-node
	// partial GroupBy and the gather above it (partialRows), a broadcast
	// (every node reads the whole input). These are the cardinalities the
	// exchanges are priced at; EXPLAIN ANALYZE calibrates against them.
	// Empty without an estimator.
	EstRows map[algebra.Node]float64
}

// EagerGroupBys counts the grouping operators that were compiled into a
// partial/final or shuffled two-phase form.
func (p *Plan) EagerGroupBys() int {
	n := 0
	algebra.Walk(p.Root, func(m algebra.Node) {
		if x, ok := m.(*Exchange); ok && x.Kind != Gather {
			return
		}
		if g, ok := m.(*algebra.GroupBy); ok {
			if x, ok := g.Input.(*Exchange); ok && x.Kind == Gather {
				if _, ok := firstGroupBy(x.Input); ok {
					n++
				}
			}
		}
	})
	return n
}

// firstGroupBy finds the topmost GroupBy in a fragment (not descending
// through exchanges).
func firstGroupBy(n algebra.Node) (*algebra.GroupBy, bool) {
	if g, ok := n.(*algebra.GroupBy); ok {
		return g, true
	}
	if _, ok := n.(*Exchange); ok {
		return nil, false
	}
	for _, c := range n.Children() {
		if g, ok := firstGroupBy(c); ok {
			return g, true
		}
	}
	return nil, false
}

// Compile lowers a logical plan onto a cluster of cfg.Nodes nodes.
func Compile(logical algebra.Node, cfg Config) (*Plan, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("dist: compile needs at least 1 node, got %d", cfg.Nodes)
	}
	c := &compiler{cfg: cfg, plan: &Plan{
		Nodes:    cfg.Nodes,
		Strategy: cfg.Strategy,
		Origins:  make(map[algebra.Node]algebra.Node),
		EstRows:  make(map[algebra.Node]float64),
	}}
	root, part, err := c.comp(logical)
	if err != nil {
		return nil, err
	}
	if part {
		root = c.exchange(Gather, nil, root, logical)
	}
	c.plan.Root = root
	return c.plan, nil
}

type compiler struct {
	cfg  Config
	plan *Plan
}

// rows estimates a logical node's output cardinality; negative when no
// estimator is configured.
func (c *compiler) rows(logical algebra.Node) float64 {
	if c.cfg.Rows == nil || logical == nil {
		return -1
	}
	return c.cfg.Rows(logical)
}

// rowWidth approximates the canonical encoded bytes of one row of the
// schema, mirroring what Link.Ship will charge.
func rowWidth(s algebra.Schema) float64 {
	w := 0.0
	for _, col := range s {
		switch col.Type {
		case value.KindBool:
			w += 2
		case value.KindString:
			w += 20
		default:
			w += 9
		}
	}
	if w == 0 {
		w = 1
	}
	return w
}

// exchange creates and registers an exchange node, estimating its shipped
// bytes from the input cardinality when an estimator is available:
// gather and shuffle move the (nodes-1)/nodes fraction of rows that are
// remote to their destination; broadcast replicates the input to every
// other node.
func (c *compiler) exchange(kind ExchangeKind, keys []int, input algebra.Node, origin algebra.Node) *Exchange {
	x := &Exchange{Kind: kind, Keys: keys, Input: input}
	if rows := c.rows(origin); rows >= 0 {
		x.EstBytes = c.shipBytes(kind, rows, rowWidth(input.Schema()))
		if kind == Broadcast {
			c.plan.EstRows[x] = float64(c.cfg.Nodes) * rows
		}
	}
	c.register(x, origin)
	return x
}

// shipBytes is the movement-cost formula per kind.
func (c *compiler) shipBytes(kind ExchangeKind, rows, width float64) float64 {
	n := float64(c.cfg.Nodes)
	switch kind {
	case Broadcast:
		return rows * (n - 1) * width
	default: // Gather, Shuffle: each row is remote with probability (n-1)/n
		return rows * (n - 1) / n * width
	}
}

// register records a synthesized node's origin and, for exchanges, adds
// them to the plan listing and byte estimate.
func (c *compiler) register(n algebra.Node, origin algebra.Node) {
	if origin != nil {
		c.plan.Origins[n] = origin
	}
	if x, ok := n.(*Exchange); ok {
		c.plan.Exchanges = append(c.plan.Exchanges, x)
		c.plan.EstBytes += x.EstBytes
	}
}

// comp compiles one logical node, returning the distributed node and
// whether its output is partitioned.
func (c *compiler) comp(n algebra.Node) (algebra.Node, bool, error) {
	switch node := n.(type) {
	case *algebra.Scan:
		leaf := &Leaf{Table: node.Table, Alias: node.Alias, Cols: node.Cols}
		c.register(leaf, node)
		return leaf, true, nil

	case *algebra.Values:
		return node, false, nil

	case *algebra.Select:
		in, part, err := c.comp(node.Input)
		if err != nil {
			return nil, false, err
		}
		out := &algebra.Select{Input: in, Cond: node.Cond}
		c.register(out, node)
		return out, part, nil

	case *algebra.Project:
		in, part, err := c.comp(node.Input)
		if err != nil {
			return nil, false, err
		}
		proj := &algebra.Project{Input: in, Items: node.Items, Distinct: node.Distinct}
		c.register(proj, node)
		if !node.Distinct || !part {
			return proj, part, nil
		}
		// Distinct over partitioned input: dedup per node first (correct
		// under =ⁿ — local dedup keeps one representative per key), ship
		// the survivors, dedup once more at the coordinator.
		g := c.exchange(Gather, nil, proj, node)
		final := &algebra.Project{Input: g, Items: identityItems(proj.Schema()), Distinct: true}
		c.register(final, node)
		return final, false, nil

	case *algebra.Sort:
		in, part, err := c.comp(node.Input)
		if err != nil {
			return nil, false, err
		}
		if part {
			in = c.exchange(Gather, nil, in, node.Input)
		}
		out := &algebra.Sort{Input: in, Keys: node.Keys}
		c.register(out, node)
		return out, false, nil

	case *algebra.Limit:
		// Truncation is only correct on the fully merged stream: gather
		// partitioned input to the coordinator before applying the bound.
		in, part, err := c.comp(node.Input)
		if err != nil {
			return nil, false, err
		}
		if part {
			in = c.exchange(Gather, nil, in, node.Input)
		}
		out := &algebra.Limit{Input: in, N: node.N}
		c.register(out, node)
		return out, false, nil

	case *algebra.GroupBy:
		return c.compGroup(node)

	case *algebra.Join:
		return c.compJoin(node, node.L, node.R)

	case *algebra.Product:
		return c.compJoin(node, node.L, node.R)

	default:
		return nil, false, fmt.Errorf("dist: no distributed compilation for %T", n)
	}
}

// identityItems projects every column of a schema through unchanged.
func identityItems(s algebra.Schema) []algebra.ProjItem {
	items := make([]algebra.ProjItem, len(s))
	for i, col := range s {
		items[i] = algebra.ProjItem{E: &expr.ColumnRef{ID: col.ID}, As: col.ID}
	}
	return items
}

// compJoin compiles a join or product. The join site follows the left
// side: a partitioned left keeps the join partitioned by broadcasting the
// right side to every node (left shards are disjoint, so the per-node
// joins partition the full join result); a global left pulls the right
// side to the coordinator.
func (c *compiler) compJoin(origin algebra.Node, l, r algebra.Node) (algebra.Node, bool, error) {
	lc, lp, err := c.comp(l)
	if err != nil {
		return nil, false, err
	}
	rc, rp, err := c.comp(r)
	if err != nil {
		return nil, false, err
	}
	join := func(ll, rr algebra.Node) algebra.Node {
		var out algebra.Node
		switch o := origin.(type) {
		case *algebra.Join:
			out = &algebra.Join{L: ll, R: rr, Cond: o.Cond}
		default:
			out = &algebra.Product{L: ll, R: rr}
		}
		c.register(out, origin)
		return out
	}
	switch {
	case lp:
		// Broadcast the right side (partitioned or global) to every node.
		bc := c.exchange(Broadcast, nil, rc, r)
		return join(lc, bc), true, nil
	case rp:
		g := c.exchange(Gather, nil, rc, r)
		return join(lc, g), false, nil
	default:
		return join(lc, rc), false, nil
	}
}

// partialRows estimates the rows the per-node partial aggregation of node
// produces over all sites: one per group per node, and never more than its
// input. ok is false without an estimator.
func (c *compiler) partialRows(node *algebra.GroupBy) (rows float64, ok bool) {
	inRows, groups := c.rows(node.Input), c.rows(node)
	if inRows < 0 || groups < 0 {
		return 0, false
	}
	return min(float64(c.cfg.Nodes)*groups, inRows), true
}

// compGroup compiles grouping — the lazy/eager decision point.
func (c *compiler) compGroup(node *algebra.GroupBy) (algebra.Node, bool, error) {
	in, part, err := c.comp(node.Input)
	if err != nil {
		return nil, false, err
	}
	if !part {
		out := &algebra.GroupBy{Input: in, GroupCols: node.GroupCols, Aggs: node.Aggs}
		c.register(out, node)
		return out, false, nil
	}

	eager := false
	switch c.cfg.Strategy {
	case StrategyEager:
		eager = Decomposable(node.Aggs)
	case StrategyLazy:
		eager = false
	default: // StrategyAuto
		eager = Decomposable(node.Aggs)
		if partials, ok := c.partialRows(node); eager && ok {
			width := rowWidth(in.Schema())
			outWidth := rowWidth(node.Schema())
			eager = c.shipBytes(Gather, partials, outWidth) <= c.shipBytes(Gather, c.rows(node.Input), width)
		}
	}

	if eager {
		partialAggs, finalAggs, ok := decompose(node)
		if !ok {
			return nil, false, fmt.Errorf("dist: aggregates reported decomposable but decompose failed for %s", node.Describe())
		}
		partial := &algebra.GroupBy{Input: in, GroupCols: node.GroupCols, Aggs: partialAggs}
		c.register(partial, node)
		g := &Exchange{Kind: Gather, Input: partial}
		if partials, ok := c.partialRows(node); ok {
			g.EstBytes = c.shipBytes(Gather, partials, rowWidth(partial.Schema()))
			c.plan.EstRows[partial], c.plan.EstRows[g] = partials, partials
		}
		c.register(g, node)
		final := &algebra.GroupBy{Input: g, GroupCols: node.GroupCols, Aggs: finalAggs}
		c.register(final, node)
		return final, false, nil
	}

	if c.cfg.Strategy != StrategyLazy && hasDistinct(node.Aggs) && len(node.GroupCols) > 0 {
		// Non-mergeable aggregates over keyed groups: shuffle on the
		// grouping columns so every group is co-located, aggregate
		// completely per node, gather the finished groups.
		keys, err := groupKeyPositions(node, in.Schema())
		if err != nil {
			return nil, false, err
		}
		sh := c.exchange(Shuffle, keys, in, node.Input)
		grouped := &algebra.GroupBy{Input: sh, GroupCols: node.GroupCols, Aggs: node.Aggs}
		c.register(grouped, node)
		out := c.exchange(Gather, nil, grouped, node)
		return out, false, nil
	}

	// Lazy: ship every row to the coordinator, group there.
	g := c.exchange(Gather, nil, in, node.Input)
	out := &algebra.GroupBy{Input: g, GroupCols: node.GroupCols, Aggs: node.Aggs}
	c.register(out, node)
	return out, false, nil
}

// groupKeyPositions resolves a GroupBy's grouping columns to positions in
// the given input schema.
func groupKeyPositions(g *algebra.GroupBy, s algebra.Schema) ([]int, error) {
	keys := make([]int, len(g.GroupCols))
	for i, gc := range g.GroupCols {
		idx, err := s.IndexOf(gc)
		if err != nil {
			return nil, fmt.Errorf("dist: shuffle key %s: %w", gc, err)
		}
		keys[i] = idx
	}
	return keys, nil
}
