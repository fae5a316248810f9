package core

import (
	"math"
	"sync"

	"repro/internal/algebra"
	"repro/internal/dist"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// Stats supplies the optimizer's statistics: table cardinalities and
// per-column distinct counts. StoreStats computes them from the actual
// data (the moral equivalent of ANALYZE); tests may supply synthetic
// implementations.
type Stats interface {
	// TableRows returns the row count of a base table.
	TableRows(table string) int64
	// DistinctValues returns the number of distinct values (under =ⁿ) in
	// a base-table column.
	DistinctValues(table, column string) int64
}

// StoreStats derives statistics from a live store, caching each distinct
// count for as long as its table keeps the length it was counted at: the
// store is insert-only, so length is a version and a write recounts only the
// written table. Safe for concurrent use (several queries may optimize at once).
type StoreStats struct {
	store    *storage.Store
	mu       sync.Mutex
	distinct map[[2]string]distinctCount
}

// distinctCount is one cached count and the table length it holds for.
type distinctCount struct {
	rows int
	n    int64
}

// NewStoreStats returns statistics backed by the store's current contents.
func NewStoreStats(store *storage.Store) *StoreStats {
	return &StoreStats{store: store, distinct: make(map[[2]string]distinctCount)}
}

// TableRows returns the table's current cardinality (0 for unknown tables).
func (s *StoreStats) TableRows(table string) int64 {
	t, err := s.store.Table(table)
	if err != nil {
		return 0
	}
	return int64(t.Len())
}

// DistinctValues counts distinct values in the column under =ⁿ.
func (s *StoreStats) DistinctValues(table, column string) int64 {
	t, err := s.store.Table(table)
	if err != nil {
		return 0
	}
	idx := t.Def.ColumnIndex(column)
	if idx < 0 {
		return 0
	}
	key := [2]string{table, column}
	rows := t.Rows()
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.distinct[key]; ok && c.rows == len(rows) {
		return c.n
	}
	seen := make(map[string]struct{})
	var buf []byte
	for _, row := range rows {
		buf = value.AppendGroupKey(buf[:0], row[idx])
		if _, ok := seen[string(buf)]; !ok {
			seen[string(buf)] = struct{}{}
		}
	}
	n := int64(len(seen))
	s.distinct[key] = distinctCount{rows: len(rows), n: n}
	return n
}

// CostModel estimates plan cardinalities and costs following the paper's
// Section 7 discussion: the interesting quantities are the input
// cardinalities of the join and of the group-by, which the transformation
// trades against each other.
type CostModel struct {
	Stats Stats
	// Parallelism is the worker count the executor will run plans with;
	// 0 and 1 cost plans serially (the historical behavior). With more
	// workers, the perfectly partitionable per-row work of each operator
	// is divided across them, each parallel fan-out pays a fixed
	// scheduling overhead, and grouping additionally pays a per-group
	// merge term for combining thread-local partial aggregates — which
	// penalizes eager aggregation exactly when it explodes the group
	// count (the Figure 8 pathology grows worse, not better, with
	// parallelism).
	Parallelism int
	// Vectorize reflects the executor's columnar batch mode. Vectorized
	// kernels amortize interpretation over 1024-row batches, shrinking the
	// perfectly partitionable per-row work by a uniform factor; cardinalities
	// are untouched, so the eager-vs-lazy decision (driven by row counts)
	// only flips where the two plans were already near-tied on work terms.
	// It applies to single-site plans only: on a cluster (Nodes > 1) every
	// fragment reads rows bound to it and runs in row form.
	Vectorize bool
	// Nodes is the simulated cluster size plans will run on. With more
	// than one node, Estimate compiles each plan for the cluster (via the
	// distributed compiler's own eager/lazy byte estimation) and charges a
	// per-byte communication term for every exchange — the Section 7
	// extension where shipping cost dominates and the group-before-join
	// plan wins by moving one row per group instead of every detail row.
	// 0 or 1 costs plans as single-site.
	Nodes int
	// Strategy is the distributed grouping strategy plans compile under.
	Strategy dist.Strategy
	// aliasTable maps a query alias to its base-table name.
	aliasTable map[string]string
}

// NewCostModel builds a cost model for a bound query.
func NewCostModel(stats Stats, b *BoundQuery) *CostModel {
	m := &CostModel{Stats: stats, aliasTable: make(map[string]string)}
	for _, bt := range b.tables {
		if bt.def != nil {
			m.aliasTable[bt.alias] = bt.def.Name
		}
	}
	return m
}

// PlanCost is a cost estimate with its per-node cardinality annotations.
type PlanCost struct {
	// Total is the estimated total cost in abstract row-touch units.
	Total float64
	// Rows is the estimated output cardinality of the root.
	Rows float64
	// CommBytes is the estimated bytes the plan ships across node links
	// when compiled for a multi-node cluster; 0 for single-site models.
	CommBytes float64
	// Ann holds per-node estimated cardinalities for EXPLAIN display.
	Ann algebra.Annotations
	// dist is the plan compiled for the model's cluster, whose exchanges
	// CommBytes prices; nil single-site, when the compiler rejected the plan
	// (distErr, which fails a choice of it), and once a choice has taken it
	// (Runnable.Dist) or passed the plan over.
	dist    *dist.Plan
	distErr error
}

// Estimate walks the plan bottom-up, estimating output cardinality and
// accumulated cost for every node. Scan aliases found in the plan (e.g.
// inside expanded view subplans) are added to the alias map so column
// statistics resolve there too. With more than one node it also compiles the
// plan for the cluster and charges its exchange bytes (PlanCost.dist).
func (m *CostModel) Estimate(plan algebra.Node) PlanCost {
	m.collectAliases(plan)
	ann := make(algebra.Annotations)
	total, rows := m.estimate(plan, ann)
	pc := PlanCost{Total: total, Rows: rows, Ann: ann}
	if m.Nodes > 1 {
		// The distributed compiler does the placement reasoning (where
		// exchanges land, eager vs lazy grouping by bytes); this model
		// supplies the per-node cardinalities it prices rows with.
		pc.dist, pc.distErr = dist.Compile(plan, dist.Config{
			Nodes:    m.Nodes,
			Strategy: m.Strategy,
			Rows: func(n algebra.Node) float64 {
				if a, ok := ann[n]; ok {
					return float64(a.Rows)
				}
				return -1
			},
		})
		if pc.dist != nil {
			pc.CommBytes = pc.dist.EstBytes
		}
		pc.Total += pc.CommBytes * costCommByte
	}
	return pc
}

// collectAliases maps every scan's alias to its base table.
func (m *CostModel) collectAliases(plan algebra.Node) {
	for _, s := range algebra.FindScans(plan) {
		alias := s.Alias
		if alias == "" {
			alias = s.Table
		}
		m.aliasTable[alias] = s.Table
	}
}

// Per-operator cost coefficients, in abstract "row touches". Grouping rows
// is costlier than streaming them (hashing + accumulator work), which is
// exactly the trade-off Figure 8 turns on.
const (
	costScanRow   = 1.0
	costFilterRow = 1.0
	costJoinProbe = 1.5 // per input row of a hash join (build + probe)
	costJoinOut   = 0.5 // per output row materialized
	costGroupRow  = 2.0 // per input row of a grouping operator
	costProjRow   = 0.5
	costSortRow   = 3.0 // n log n folded into a coefficient

	// costParallelStartup is the fixed cost of one parallel fan-out:
	// worker scheduling, morsel bookkeeping, partition scatter.
	costParallelStartup = 32.0
	// costMergePartial is the per-group, per-extra-worker cost of
	// merging thread-local partial aggregates after parallel grouping.
	costMergePartial = 1.0
	// costVectorWork scales per-row work under vectorized execution:
	// batch loops amortize dispatch and evaluate predicates and group keys
	// column-at-a-time, so each row costs a fraction of its interpreted
	// price. Fixed overheads (fan-out startup, partial-aggregate merges,
	// communication) are unchanged — batches do not shrink those.
	costVectorWork = 0.4
	// costCommByte is the cost of shipping one byte across a node link.
	// At one row-touch per byte a shipped row (~30 encoded bytes) costs an
	// order of magnitude more than processing it locally, making
	// communication the dominant term — the Section 7 regime.
	costCommByte = 1.0
)

// workers resolves the model's parallelism to an effective worker count.
func (m *CostModel) workers() float64 {
	if m.Parallelism > 1 {
		return float64(m.Parallelism)
	}
	return 1
}

// parallelWork is the effective cost of perfectly partitionable per-row
// work w: scaled for the batch form where a single-site plan runs in it,
// divided across the workers, plus the fan-out overhead. Serial row-form
// models (workers == 1) return w unchanged.
func (m *CostModel) parallelWork(w float64) float64 {
	if m.Vectorize && m.Nodes <= 1 {
		w *= costVectorWork
	}
	p := m.workers()
	if p <= 1 {
		return w
	}
	return w/p + costParallelStartup
}

// groupMergeCost is the extra cost of merging per-worker partial-aggregate
// tables: each of the (workers-1) non-first partials touches up to one
// entry per group.
func (m *CostModel) groupMergeCost(groups float64) float64 {
	p := m.workers()
	if p <= 1 {
		return 0
	}
	return (p - 1) * groups * costMergePartial
}

func (m *CostModel) estimate(n algebra.Node, ann algebra.Annotations) (cost, rows float64) {
	switch node := n.(type) {
	case *algebra.Scan:
		rows = float64(m.Stats.TableRows(node.Table))
		cost = rows * costScanRow
	case *algebra.Values:
		rows = float64(len(node.Rows))
		cost = rows
	case *algebra.Select:
		inCost, inRows := m.estimate(node.Input, ann)
		rows = inRows * m.selectivity(node.Cond, inRows)
		cost = inCost + m.parallelWork(inRows*costFilterRow)
	case *algebra.Project:
		inCost, inRows := m.estimate(node.Input, ann)
		rows = inRows
		if node.Distinct {
			rows = inRows / 2 // crude: duplicates assumed common
			if rows < 1 && inRows > 0 {
				rows = 1
			}
		}
		cost = inCost + m.parallelWork(inRows*costProjRow)
	case *algebra.Product:
		lCost, lRows := m.estimate(node.L, ann)
		rCost, rRows := m.estimate(node.R, ann)
		rows = lRows * rRows
		cost = lCost + rCost + m.parallelWork((lRows+rRows)*costJoinProbe+rows*costJoinOut)
	case *algebra.Join:
		lCost, lRows := m.estimate(node.L, ann)
		rCost, rRows := m.estimate(node.R, ann)
		rows = lRows * rRows * m.joinSelectivity(node)
		cost = lCost + rCost + m.parallelWork((lRows+rRows)*costJoinProbe+rows*costJoinOut)
	case *algebra.GroupBy:
		inCost, inRows := m.estimate(node.Input, ann)
		rows = m.groupCount(node, inRows)
		cost = inCost + m.parallelWork(inRows*costGroupRow) + m.groupMergeCost(rows)
	case *algebra.Sort:
		inCost, inRows := m.estimate(node.Input, ann)
		rows = inRows
		cost = inCost + m.parallelWork(inRows*costSortRow)
	case *algebra.Limit:
		inCost, inRows := m.estimate(node.Input, ann)
		rows = math.Min(inRows, float64(node.N))
		cost = inCost
	default:
		rows = 1
		cost = 1
	}
	ann[n] = algebra.Annotation{Rows: int64(math.Round(rows))}
	return cost, rows
}

// selectivity estimates the fraction of rows a predicate keeps: 1/distinct
// for column-constant equalities, 1/3 for other comparisons, combined
// multiplicatively across conjuncts.
func (m *CostModel) selectivity(cond expr.Expr, inRows float64) float64 {
	if cond == nil {
		return 1
	}
	sel := 1.0
	for _, conj := range expr.Conjuncts(cond) {
		atom := expr.ClassifyAtom(conj)
		switch atom.Class {
		case expr.AtomColConst:
			if d := m.distinctOf(atom.Col); d > 0 {
				sel *= 1 / float64(d)
				continue
			}
			sel *= 0.1
		case expr.AtomColCol:
			d1, d2 := m.distinctOf(atom.Col), m.distinctOf(atom.Col2)
			d := max64(d1, d2)
			if d > 0 {
				sel *= 1 / float64(d)
			} else {
				sel *= 0.1
			}
		default:
			sel *= 1.0 / 3
		}
	}
	return sel
}

// joinSelectivity estimates the fraction of the cross product surviving the
// join predicate: 1/max(distinct) per equi-conjunct (the textbook formula).
func (m *CostModel) joinSelectivity(j *algebra.Join) float64 {
	return m.selectivity(j.Cond, 0)
}

// groupCount estimates the number of groups: per source table, the product
// of its grouping columns' distinct counts capped by that table's
// cardinality (distinct combinations of one table's columns can never
// exceed its row count — grouping by a key plus dependent columns, as in
// Example 1's GROUP BY D.DeptID, D.Name, stays at |D|); the per-table
// contributions multiply, capped by the input cardinality.
func (m *CostModel) groupCount(g *algebra.GroupBy, inRows float64) float64 {
	if len(g.GroupCols) == 0 {
		return 1
	}
	perAlias := make(map[string]float64)
	for _, c := range g.GroupCols {
		d := float64(10)
		if dv := m.distinctOf(c); dv > 0 {
			d = float64(dv)
		}
		if cur, ok := perAlias[c.Table]; ok {
			perAlias[c.Table] = cur * d
		} else {
			perAlias[c.Table] = d
		}
	}
	groups := 1.0
	for alias, contrib := range perAlias {
		if table, ok := m.aliasTable[alias]; ok {
			if rows := float64(m.Stats.TableRows(table)); rows > 0 && contrib > rows {
				contrib = rows
			}
		}
		groups *= contrib
	}
	if groups > inRows {
		groups = inRows
	}
	if groups < 1 && inRows >= 1 {
		groups = 1
	}
	return groups
}

// distinctOf resolves a qualified column to base-table statistics; 0 means
// unknown (derived column).
func (m *CostModel) distinctOf(c expr.ColumnID) int64 {
	table, ok := m.aliasTable[c.Table]
	if !ok {
		return 0
	}
	return m.Stats.DistinctValues(table, c.Name)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// DistributedCost models the Section 7 bullet on distributed queries: when
// R1 and R2 live at different sites and the join executes at R2's site, the
// standard plan ships every σ[C1]R1 row while the transformed plan ships
// one row per GA1+ group. The returned values are rows shipped across the
// network under each plan; the paper's observation is that the transformed
// plan never ships more.
type DistributedCost struct {
	StandardRowsShipped    float64
	TransformedRowsShipped float64
}

// EstimateDistributed computes the shipped-row counts for a normalized
// query under the cost model's statistics.
func (m *CostModel) EstimateDistributed(p *Planner, shape *Shape) (DistributedCost, error) {
	b := shape.Bound
	var r1Tables []boundTable
	for _, bt := range b.tables {
		if shape.InR1(bt.alias) {
			r1Tables = append(r1Tables, bt)
		}
	}
	r1Side, err := p.buildJoinTree(b, r1Tables, shape.C1)
	if err != nil {
		return DistributedCost{}, err
	}
	m.collectAliases(r1Side)
	_, r1Rows := m.estimate(r1Side, make(algebra.Annotations))
	grouped := &algebra.GroupBy{Input: r1Side, GroupCols: shape.GA1Plus, Aggs: shape.AggItems}
	groups := m.groupCount(grouped, r1Rows)
	return DistributedCost{
		StandardRowsShipped:    r1Rows,
		TransformedRowsShipped: groups,
	}, nil
}
