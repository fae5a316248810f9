package exec

import (
	"fmt"
	"slices"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// aggSpec is one compiled aggregate item (e.g. COUNT(A1) + SUM(A2+A3)): its
// aggregate subterms identified, so per-group results can be substituted and
// the arithmetic shell evaluated.
type aggSpec struct {
	// first is the slot of the item's first aggregate subterm in
	// groupCore.aggs; its others follow in discovery order.
	first int
	// shell is the bound item with each aggregate subterm replaced by a
	// column reading the subterm's slot of a group's results; nil when the
	// item is its one aggregate and there is no arithmetic to evaluate.
	shell expr.Expr
}

// groupBy shapes a GroupBy: its grouping columns resolved and its aggregate
// items compiled once.
func (sh shaper) groupBy(s *nodeShape, node *algebra.GroupBy) error {
	in, err := sh.shape(node.Input)
	if err != nil {
		return err
	}
	inSchema := node.Input.Schema()
	g := groupCore{groupCols: make([]int, len(node.GroupCols))}
	for i, gc := range node.GroupCols {
		if g.groupCols[i], err = inSchema.IndexOf(gc); err != nil {
			return err
		}
	}
	for _, item := range node.Aggs {
		bound, err := expr.Bind(item.E, inSchema)
		if err != nil {
			return err
		}
		if !g.addItem(bound) {
			return fmt.Errorf("exec: aggregate item %s contains no aggregate function", item.E)
		}
	}
	grouped := sh.grouping(s, in.order, g, sh.group)
	s.named()
	s.bind = func(c *compiler) (*pipeOp, error) {
		p, err := c.compile(in)
		if err != nil {
			return nil, err
		}
		return grouped(c, p), nil
	}
	return nil
}

// grouping shapes node s, a grouping of an input whose rows carry inOrder on
// g's grouping columns with g's aggregate items — a GroupBy, or π_D with every
// column grouped and no item — and returns what binds it over the input's
// pipeline. How grouping is chosen, here and nowhere else (DESIGN.md §4.4).
// Order is a physical property of the input: if the propagated order proves it
// sorted on the grouping columns the groups are contiguous — one streaming
// pass, no sort, no table, its output in the input's (possibly permuted) key
// order. Anything else hashes, and an ORDER BY above orders G group rows, not
// N input rows here. A forced GroupHash hashes always; a forced GroupSort
// streams over a sortOp on the grouping columns the compiler puts below the
// pass, its output in grouping-column order. The scalar group folds through
// the hash operator under every strategy.
func (sh shaper) grouping(s *nodeShape, inOrder []int, g groupCore, strategy GroupStrategy) func(*compiler, *pipeOp) *pipeOp {
	g.initAggCols()
	clustered := orderedPrefixSet(inOrder, g.groupCols)
	if strategy == GroupHash || !clustered && (strategy != GroupSort || g.scalarGroup()) {
		s.order = nil
		return func(c *compiler, in *pipeOp) *pipeOp {
			op := &hashGroupOp{groupCore: g}
			c.groups(&op.groupCore, in, s)
			p := c.source(op, s)
			p.borrowed = true // groupRows: each row is made into its consumer's scratch
			return p
		}
	}
	// The pass's implementation is known here, so it is named here.
	impl, order := "stream", firstColumns(len(g.groupCols))
	var keys []sortKey
	if clustered {
		for i, src := range inOrder[:len(order)] {
			order[i] = slices.Index(g.groupCols, src)
		}
	} else {
		impl = "sort"
		keys = make([]sortKey, len(g.groupCols))
		for i, col := range g.groupCols {
			keys[i] = sortKey{col: col}
		}
	}
	s.order = order
	return func(c *compiler, in *pipeOp) *pipeOp {
		in.node = s
		if keys != nil {
			in = c.sorted(in, keys, s)
		}
		op := &sortGroupOp{groupCore: g}
		c.groups(&op.groupCore, in, s)
		op.ran(impl)
		return c.source(op, s)
	}
}

// groups makes g node s's grouping of in for this run.
func (c *compiler) groups(g *groupCore, in *pipeOp, s *nodeShape) {
	in.node = s
	g.input, g.params, g.metrics, g.gov, g.mgr = in, c.opts.Params, c.nodeMetrics(s.node), c.gov, c.spill
	g.par, g.where = c.stateWorkers(), s.name()
}

// stateWorkers is the worker count of the operators that hold budget-admitted
// state — hash join, grouping, sort. A spill-capable run gives them one
// worker, and they take their input as rows (a columnar pipeline below them
// stays in batches up to that point): a refusing store keeps a total of its
// own, and a spilled group must live whole in one table, which only a store
// with a single builder gives.
func (c *compiler) stateWorkers() int {
	if c.spill != nil || c.par < 1 {
		return 1
	}
	return c.par
}

// groupCore holds the state shared by the hash and sort grouping operators.
type groupCore struct {
	input     *pipeOp
	groupCols []int
	specs     []aggSpec
	aggs      []*expr.Aggregate // the items' aggregate subterms, item by item: one accumulator column each
	aggCols   []aggColRef       // the aggregate arguments as input columns, when input is in batches
	params    expr.Params
	metrics   *obs.OpMetrics        // nil unless metrics collection is on
	gov       *governor             // nil unless lifecycle governance is on
	mgr       *storage.SpillManager // nil: a budget breach aborts; else it takes the external path
	par       int                   // workers: partial tables, or the in-memory sort
	where     string                // plan-node description for errors
}

// addItem compiles one bound aggregate item, binding each aggregate subterm
// to its accumulator column once so no group rebuilds the expression. It
// reports false for an item that holds no aggregate.
func (g *groupCore) addItem(bound expr.Expr) bool {
	aggs := expr.Aggregates(bound)
	if len(aggs) == 0 {
		return false
	}
	spec := aggSpec{first: len(g.aggs)}
	if _, bare := bound.(*expr.Aggregate); !bare {
		slots := make(map[*expr.Aggregate]int, len(aggs))
		for k, agg := range aggs {
			slots[agg] = spec.first + k
		}
		spec.shell = expr.RewritePre(bound, func(n expr.Expr) expr.Expr {
			if a, ok := n.(*expr.Aggregate); ok {
				if slot, hit := slots[a]; hit {
					return expr.BoundColumn("", a.String(), slot)
				}
			}
			return nil
		})
	}
	g.specs = append(g.specs, spec)
	g.aggs = append(g.aggs, aggs...)
	return true
}

// groupStateBytes is the accounted size of one fresh group: its key bytes
// plus one accumulator-state slot per aggregate — the same formula
// recordBuild feeds the metrics, applied per group so the budget check
// trips on the exact group that crosses the limit.
func (g *groupCore) groupStateBytes(keyLen int) int64 {
	return int64(keyLen) + int64(len(g.aggs))*accStateBytes
}

// recordBuild reports n groups built with their keys totalling keyBytes —
// called once per partial table, so at several workers BuildEntries sums the
// per-worker partials, exposing the duplication the merge folds away.
func (g *groupCore) recordBuild(n int, keyBytes int64) {
	if g.metrics == nil || n == 0 {
		return
	}
	g.metrics.BuildEntries.Add(int64(n))
	g.metrics.StateBytes.Add(keyBytes + g.groupStateBytes(0)*int64(n))
}

// ran names the grouping implementation that ran (hash, vec-hash, stream,
// sort, external) in the node's metrics, for EXPLAIN ANALYZE.
func (g *groupCore) ran(impl string) {
	if g.metrics != nil {
		g.metrics.Operator.Store(&impl)
	}
}

// width is the number of columns of an output row: the grouping columns, then
// one per aggregate item.
func (g *groupCore) width() int { return len(g.groupCols) + len(g.specs) }

// scalarGroup reports whether the operator aggregates the whole input as
// one group (no grouping columns): it must emit exactly one row even for
// empty input, per SQL2 and the paper's assumption that F(AA) "produces one
// row for each group" with the empty grouping treated as a single group.
func (g *groupCore) scalarGroup() bool { return len(g.groupCols) == 0 }

// partialTables is hash aggregation as a pipeline's sink: one contiguous
// chunk of the source per worker, each chunk's rows folded into the chunk's
// own table as its stages emit them. The rows are borrowed and never kept —
// a new group copies its grouping values, nothing else — so N rows cost G
// states per chunk.
type partialTables struct {
	g      *groupCore
	tables []*groupTable
}

func (s *partialTables) begin(n, _ int) int {
	size := chunkSizeFor(n, s.g.par)
	s.tables = make([]*groupTable, numChunks(n, size))
	return size
}

func (s *partialTables) bind(worker, chunk int) (emitFn, error) {
	if s.g.metrics != nil {
		s.g.metrics.Morsel(worker)
	}
	t, err := s.g.newTable()
	s.tables[chunk] = t
	return func(row value.Row) error {
		if err := s.g.gov.tick(); err != nil {
			return err
		}
		return t.add(row)
	}, err
}

// foldPipeline is hash aggregation that never holds its input: the input
// pipeline runs into per-chunk partial tables — one chunk, one table, at one
// worker — which are combined in chunk order. A breach of the budget aborts
// (or, for the scalar group, nothing is charged at all); a spill-capable
// grouping with grouping columns folds through spilledGroups instead.
func (g *groupCore) foldPipeline() (opened, error) {
	if g.input.inBatches() {
		g.ran("vec-hash")
	} else {
		g.ran("hash")
	}
	s := &partialTables{g: g}
	if err := g.input.run(s); err != nil {
		return opened{}, err
	}
	for _, t := range s.tables {
		g.recordBuild(t.n, t.index.KeyBytes())
	}
	return g.combine(s.tables)
}

// combine merges the partial tables by ownership — the paper's eager
// aggregation reused as the combine rule — and hands over their groups as
// rows finished on demand. A group stays in the earliest table that holds it:
// chunk by chunk in order, each group of a table is looked up in the tables
// before it, in order, and the first that has it owns it and takes its state
// through the accumulators' Merge step; a group no earlier table has is owned
// where it lies. No merged table is built and no group is copied, so tables
// with disjoint keys combine without allocating. Each group's states fold in
// chunk order and its grouping values are those of the earliest chunk holding
// it, and the owned groups, table by table in chunk order and each table's in
// id order, are the global first-appearance order: exactly what one pass over
// the whole input would have built, for any chunk count, bit for bit under
// exact arithmetic.
func (g *groupCore) combine(tables []*groupTable) (opened, error) {
	if len(tables) == 0 {
		// Empty input: no groups, or the scalar group's single state.
		t, err := g.newTable()
		if err != nil {
			return opened{}, err
		}
		g.recordBuild(t.n, 0)
		tables = []*groupTable{t}
	}
	for c := 1; c < len(tables); c++ {
		src := tables[c]
		for sid := 0; sid < src.n; sid++ {
			owner, id := tables[0], 0
			if !src.scalar {
				hash, key := src.index.HashOf(sid), src.index.Key(sid)
				for _, owner = range tables[:c] {
					if id = owner.index.Lookup(hash, key); id >= 0 {
						break
					}
				}
				if id < 0 {
					continue
				}
			}
			src.move(sid)
			for k, col := range owner.cols {
				if err := col.MergeFrom(id, src.cols[k], sid); err != nil {
					return opened{}, err
				}
			}
		}
	}
	r := &groupRows{g: g, tables: tables, starts: make([]int, len(tables)+1)}
	for c, t := range tables {
		r.starts[c+1] = r.starts[c] + t.owned()
	}
	return opened{made: r}, nil
}

// groupRows is a hash grouping's output: the groups the partial tables own,
// table by table in chunk order and each table's in id order, each row
// finished only when a consumer asks for it — into the consumer's row, with
// the worker's own scratch — so no row of them is held by the grouping.
type groupRows struct {
	g       *groupCore
	tables  []*groupTable
	starts  []int         // starts[t]: the output index of table t's first owned group; the last entry is the row count
	cursors []groupCursor // per worker (workers)
}

// len is the number of rows.
func (r *groupRows) len() int { return r.starts[len(r.tables)] }

// slots is the collection of all the rows: one slab, cut into one window per
// row, in order, for the runner to make each row into.
func (r *groupRows) slots() []value.Row {
	n, w := r.len(), r.g.width()
	slab, rows := make([]value.Value, n*w), make([]value.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// workers gives the rows one cursor per worker that makes them.
func (r *groupRows) workers(n int) { r.cursors = make([]groupCursor, n) }

// at returns worker w's cursor, set to make rows lo, lo+1, … in order and
// given scratch of its own on first use, so workers finish one table's groups
// at once.
func (r *groupRows) at(w, lo int) *groupCursor {
	t := 0
	for r.starts[t+1] <= lo {
		t++
	}
	c := &r.cursors[w]
	c.r, c.t, c.id = r, t, r.tables[t].ownedID(lo-r.starts[t])
	if c.results == nil {
		k := len(r.g.aggs)
		buf := make(value.Row, k+r.g.width())
		c.results, c.row = buf[:k:k], buf[k:k]
	}
	return c
}

// groupCursor makes a grouping's rows in order: the next row is group id of
// table t. results is the scratch a row is finished with, row the one it is
// made into when the consumer brings none.
type groupCursor struct {
	r            *groupRows
	t, id        int
	results, row value.Row
}

// next appends the next row to out, and returns it.
func (c *groupCursor) next(out []value.Value) ([]value.Value, error) {
	tables := c.r.tables
	out, err := tables[c.t].appendRow(c.id, c.results, out)
	// Step to the next owned group, into the next table past the last.
	for c.id++; c.t < len(tables); c.t, c.id = c.t+1, 0 {
		tab := tables[c.t]
		for c.id < tab.n && !tab.owns(c.id) {
			c.id++
		}
		if c.id < tab.n {
			break
		}
	}
	return out, err
}

// hashGroupOp groups via hash tables keyed by the =ⁿ-respecting GroupKey. It
// holds G states and never the N rows: it is the sink of its input's pipeline
// — one partial table per chunk, one chunk per worker, fed by the chunk's
// stages — or, on a spill-capable run with grouping columns, the one table of
// spilledGroups, fed by the input as one in-order chunk, whose refused groups'
// rows go to disk and whose output is then the merge of its levels' runs; the
// scalar group's one state never spills, so it always folds. Output order is
// first-appearance order of groups (deterministic for a deterministic input
// order), at any worker count and on either side of the spill decision.
type hashGroupOp struct {
	groupCore
}

func (g *hashGroupOp) open() (opened, error) {
	if g.mgr == nil || g.scalarGroup() {
		return g.foldPipeline()
	}
	g.ran("hash")
	s := &spilledGroups{groupCore: &g.groupCore, out: newSorter(g.gov, g.mgr, g.metrics, g.where, 1, bySeq)}
	t, err := s.level(numbered(g.input.each), 0)
	if derr := discardAll(s.files); err == nil {
		err = derr
	}
	if err == nil && t != nil {
		return g.combine([]*groupTable{t})
	}
	return s.out.finish(err)
}

// sortGroupOp aggregates each run of =ⁿ-equal keys off a key-ordered stream
// in a single pass — grouping pipelined with aggregation, the implementation
// the paper's Section 2 attributes to sort-based grouping. Its input streams in
// key order — as the input's order proves, or out of the sortOp a forced
// GroupSort put below it — and is consumed as it comes, as one in-order chunk:
// one live state and one live row. A group is finished the moment the next
// one starts. With a spill manager its state is charged when it starts and
// released when it is finished (proceeding uncharged if even one state is
// refused); without one every group is charged and stays charged. No table is
// built, so no build statistics are recorded.
type sortGroupOp struct {
	groupCore
}

func (g *sortGroupOp) open() (opened, error) {
	adm := admissionFor(g.gov, g.mgr, g.where)
	// One state is live at a time — group 0 of the accumulator columns, made
	// fresh again for each group — and its grouping values are copied into
	// the output row when it ends, so every group's values share one buffer,
	// compared by position.
	accs, err := g.newAccs()
	if err != nil {
		return opened{}, err
	}
	accs.grow()
	results := make(value.Row, len(g.aggs))
	pos := firstColumns(len(g.groupCols))
	group := make([]value.Value, 0, len(g.groupCols))
	var out []value.Row
	live := false
	finish := func() error {
		if !live {
			return nil
		}
		row, err := accs.finish(0, results, append(make(value.Row, 0, g.width()), group...))
		if err != nil {
			return err
		}
		out = append(out, row)
		adm.release()
		return nil
	}
	err = g.input.each(func(row value.Row) error {
		if err := g.gov.tick(); err != nil {
			return err
		}
		if !live || compareAt(group, pos, row, g.groupCols) != 0 {
			if err := finish(); err != nil {
				return err
			}
			for _, col := range accs.cols {
				col.Reset(0)
			}
			live, group = true, group[:0]
			for _, c := range g.groupCols {
				group = append(group, row[c])
			}
			if err := adm.charge(g.groupStateBytes(0)); err != nil && err != errRefused {
				return err
			}
		}
		return accs.feed(0, row)
	})
	if err == nil {
		err = finish()
	}
	return opened{rows: out}, err
}

// sortKey is one compiled ORDER BY key.
type sortKey struct {
	col  int
	desc bool
}

// cmpByKeys three-way compares rows by the ORDER BY keys under
// value.OrderKey.
func cmpByKeys(keys []sortKey, a, b value.Row) int {
	for _, k := range keys {
		if c := value.OrderKey(a[k.col], b[k.col]); c != 0 {
			if k.desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// sortOp is ORDER BY: a stable sort under value.OrderKey through the
// external sorter. With a spill manager the input pipeline runs as one
// in-order chunk straight into the sorter — rows are buffered under the
// budget, sorted runs go to disk when it refuses a row and the runs are k-way
// merged on output, so no row is held unaccounted; without one the sort stays
// in memory, adopts the pipeline's collection, charged whole (a breach
// aborts), and runs on par workers. The result is byte-identical either way:
// rows in sorted order, or the merge of the runs, which the runner reads and
// closes.
type sortOp struct {
	input   *pipeOp
	keys    []sortKey
	par     int
	gov     *governor
	mgr     *storage.SpillManager
	metrics *obs.OpMetrics
	where   string
}

func (s *sortOp) open() (opened, error) {
	x := newSorter(s.gov, s.mgr, s.metrics, s.where, s.par, func(a, b value.Row) int { return cmpByKeys(s.keys, a, b) })
	var err error
	if s.mgr == nil {
		var rows []value.Row
		if rows, err = s.input.collect(); err == nil {
			err = x.addAll(rows)
		}
	} else {
		err = s.input.each(func(row value.Row) error {
			return x.add(s.input.keep(row), rowStateBytes(row))
		})
	}
	return x.finish(err)
}
