package exec

import (
	"fmt"
	"sort"
	"strings"

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

func (c *compiler) compileGroupBy(node *algebra.GroupBy) (compiled, error) {
	in, err := c.compile(node.Input)
	if err != nil {
		return compiled{}, err
	}
	inSchema := node.Input.Schema()
	groupCols := make([]int, len(node.GroupCols))
	for i, gc := range node.GroupCols {
		idx, err := inSchema.IndexOf(gc)
		if err != nil {
			return compiled{}, err
		}
		groupCols[i] = idx
	}
	base := groupCore{
		groupCols: groupCols,
		params:    c.opts.Params,
		metrics:   c.nodeMetrics(node),
		gov:       c.gov,
		mgr:       c.spill,
		par:       c.stateWorkers(),
		where:     node.Describe(),
	}
	for _, item := range node.Aggs {
		bound, err := expr.Bind(item.E, inSchema)
		if err != nil {
			return compiled{}, err
		}
		if !base.addItem(bound) {
			return compiled{}, fmt.Errorf("exec: aggregate item %s contains no aggregate function", item.E)
		}
	}
	// How grouping is chosen, here and nowhere else (DESIGN.md §4.4). Order is
	// a physical property of this node's input: if the propagated order
	// proves it sorted on the grouping columns the groups are contiguous —
	// one streaming pass, no sort, no table. Anything else hashes, and an
	// ORDER BY above orders G group rows, not N input rows here. A fresh sort
	// survives as forced GroupSort (the oracles' reference) and as a refused
	// table's external path.
	preSorted := orderedPrefixSet(in.order, groupCols)
	switch {
	case c.opts.Group == GroupSort, c.opts.Group == GroupAuto && preSorted:
		// Output columns: grouping columns first (positions 0..k-1), then
		// the aggregate results. A fresh sort orders the output by the
		// grouping-column sequence; a pre-sorted pass preserves the input's
		// (possibly permuted) key order.
		outOrder := make([]int, len(groupCols))
		for i := range outOrder {
			outOrder[i] = i
		}
		if preSorted {
			for i, src := range in.order[:len(groupCols)] {
				for gi, gc := range groupCols {
					if gc == src {
						outOrder[i] = gi
						break
					}
				}
			}
		}
		base.input = in.pipeline(node)
		return compiled{pipe: c.source(&sortGroupOp{groupCore: base, preSorted: preSorted}, node), order: outOrder}, nil
	default:
		base.input = in.pipeline(node)
		return compiled{pipe: c.source(&hashGroupOp{groupCore: base}, node)}, nil
	}
}

// stateWorkers is the worker count of the operators that hold budget-admitted
// state — hash join, grouping, sort. A spill-capable run gives them one
// worker, and they take their input as rows (a columnar pipeline below them
// stays in batches up to that point): refusal releases a whole store, which
// only a store with a single builder can do.
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
// worker — which are combined in chunk order. It is for the runs that read a
// row once: a breach of the budget aborts (or, for the scalar group, nothing
// is charged at all); hashAggregate serves the runs that read rows twice.
func (g *groupCore) foldPipeline() ([]value.Row, error) {
	if g.input.inBatches() {
		g.ran("vec-hash")
		g.initAggCols()
	} else {
		g.ran("hash")
	}
	s := &partialTables{g: g}
	if err := g.input.run(s); err != nil {
		return nil, err
	}
	for _, t := range s.tables {
		g.recordBuild(t.n, t.index.KeyBytes())
	}
	return g.combine(s.tables)
}

// hashAggregate groups materialized rows on a spill-capable run (one table).
// It holds the rows because it may read them twice: when the budget refuses a
// group the table is released and the whole input goes to sort-based
// aggregation with hash-order output instead.
func (g *groupCore) hashAggregate(rows []value.Row) ([]value.Row, error) {
	g.ran("hash")
	t, err := g.newTable()
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		if err := g.gov.tick(); err != nil {
			return nil, err
		}
		if err := t.add(row); err == errRefused {
			g.ran("external")
			return g.sortAggregate(rows, true)
		} else if err != nil {
			return nil, err
		}
	}
	g.recordBuild(t.n, t.index.KeyBytes())
	return g.combine([]*groupTable{t})
}

// combine absorbs the partial tables in chunk order and emits the groups in
// the resulting first-appearance order. Under exact arithmetic the result is
// bit-identical for any chunk count, since the accumulator fold visits rows
// in the same relative order.
func (g *groupCore) combine(tables []*groupTable) ([]value.Row, error) {
	if len(tables) == 0 {
		// Empty input: no groups, or the scalar group's single state.
		t, err := g.newTable()
		if err != nil {
			return nil, err
		}
		g.recordBuild(t.n, 0)
		tables = []*groupTable{t}
	}
	t := tables[0]
	for _, src := range tables[1:] {
		if err := t.absorb(src); err != nil {
			return nil, err
		}
	}
	// Ids are first-appearance order, so walking them is the output order;
	// every output row is cut from one slab.
	out := make([]value.Row, t.n)
	slab := make([]value.Value, 0, t.n*g.width())
	for id := 0; id < t.n; id++ {
		start := len(slab)
		var err error
		if slab, err = t.appendRow(id, slab); err != nil {
			return nil, err
		}
		out[id] = slab[start:len(slab):len(slab)]
	}
	return out, nil
}

// bySeq sorts finished group rows by the arrival seqs of their groups' first
// rows: hash-order output, restored after a sort by key.
type bySeq struct {
	seqs []int64
	rows []value.Row
}

func (s bySeq) Len() int           { return len(s.rows) }
func (s bySeq) Less(i, j int) bool { return s.seqs[i] < s.seqs[j] }
func (s bySeq) Swap(i, j int) {
	s.seqs[i], s.seqs[j] = s.seqs[j], s.seqs[i]
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
}

// sortAggregate sorts rows so groups arrive contiguous and aggregates them
// streaming. byKey is the external path of hash aggregation: records sort on
// the canonical GroupKey prepended as a column (equal keys ⟺ equal strings),
// and first-appearance output order is restored from their arrival seqs.
// Otherwise rows sort on the grouping columns themselves and the output is
// in grouping-key order. The sorter's run files are swept before it returns.
func (g *groupCore) sortAggregate(rows []value.Row, byKey bool) (out []value.Row, err error) {
	cmp := func(a, b value.Row) int { return compareAt(a, g.groupCols, b, g.groupCols) }
	if byKey {
		cmp = func(a, b value.Row) int { return strings.Compare(a[0].Str(), b[0].Str()) }
	}
	sorter := &extSorter{gov: g.gov, mgr: g.mgr, metrics: g.metrics, op: g.where, par: g.par, cmp: cmp}
	defer func() {
		if cerr := sorter.close(); err == nil {
			err = cerr
		}
	}()
	if byKey {
		for _, row := range rows {
			if err := g.gov.tick(); err != nil {
				return nil, err
			}
			rec := append(value.Row{value.NewString(value.GroupKey(row, g.groupCols))}, row...)
			if err := sorter.add(rec, rowStateBytes(rec)); err != nil {
				return nil, err
			}
		}
	} else if err := sorter.addAll(rows); err != nil {
		return nil, err
	}
	it, err := sorter.finish()
	if err != nil {
		return nil, err
	}
	add, done, err := g.streamGroups(byKey)
	if err != nil {
		return nil, err
	}
	for {
		sr, ok, err := it.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return done()
		}
		if err := add(sr); err != nil {
			return nil, err
		}
	}
}

// streamGroups aggregates contiguous groups off a sorted stream, one live
// state at a time: add takes the stream's records in order — their rows are
// not kept — and done finishes the last group and returns the output.
// Finished groups are finalized at once, which is the whole point of sorting
// first. With a spill manager a state is charged on group start and released
// on finalize (proceeding uncharged if even one state is refused); without one
// every group is charged and stays charged. No table is built, so no build
// statistics are recorded.
func (g *groupCore) streamGroups(byKey bool) (add func(spillRow) error, done func() ([]value.Row, error), err error) {
	adm := admissionFor(g.gov, g.mgr, g.where)
	var out []value.Row
	var firstSeqs []int64 // byKey only, parallel to out
	// One state is live at a time — group 0 of the accumulator columns, made
	// fresh again for each group — and its grouping values are copied into
	// the output row when it ends, so every group's values share one buffer,
	// compared by position.
	accs, err := g.newAccs()
	if err != nil {
		return nil, nil, err
	}
	accs.grow()
	live := false
	var key string
	pos := firstColumns(len(g.groupCols))
	group := make([]value.Value, 0, len(g.groupCols))
	finish := func() error {
		if !live {
			return nil
		}
		row, err := accs.finish(0, append(make(value.Row, 0, g.width()), group...))
		if err != nil {
			return err
		}
		out = append(out, row)
		adm.release()
		return nil
	}
	add = func(sr spillRow) error {
		if err := g.gov.tick(); err != nil {
			return err
		}
		var rowKey string
		row := sr.row
		if byKey {
			rowKey, row = row[0].Str(), row[1:]
		}
		if !live || rowKey != key || (!byKey && compareAt(group, pos, row, g.groupCols) != 0) {
			if err := finish(); err != nil {
				return err
			}
			for _, col := range accs.cols {
				col.Reset(0)
			}
			live, key, group = true, rowKey, group[:0]
			for _, c := range g.groupCols {
				group = append(group, row[c])
			}
			if byKey {
				firstSeqs = append(firstSeqs, sr.seq)
			}
			if err := adm.charge(g.groupStateBytes(len(key))); err != nil && err != errRefused {
				return err
			}
		}
		return accs.feed(0, row)
	}
	done = func() ([]value.Row, error) {
		if err := finish(); err != nil {
			return nil, err
		}
		if byKey {
			sort.Sort(bySeq{seqs: firstSeqs, rows: out})
		}
		return out, nil
	}
	return add, done, nil
}

// hashGroupOp groups via hash tables keyed by the =ⁿ-respecting GroupKey. It
// holds G states and never the N rows: it is the sink of its input's pipeline
// — one partial table per chunk, one chunk per worker, fed by the chunk's
// stages. Only a spill-capable run with grouping columns materializes the
// input first, because a refused table re-reads the rows for the external
// sort; the scalar group's one state never spills, so it always folds. Output
// order is first-appearance order of groups (deterministic for a
// deterministic input order), at any worker count and on either side of the
// spill decision.
type hashGroupOp struct {
	groupCore
}

func (g *hashGroupOp) open() ([]value.Row, *mergeIter, error) {
	var out []value.Row
	var err error
	if g.mgr != nil && !g.scalarGroup() {
		var rows []value.Row
		if rows, err = g.input.collect(); err == nil {
			out, err = g.hashAggregate(rows)
		}
	} else {
		out, err = g.foldPipeline()
	}
	return out, nil, err
}

// sortGroupOp aggregates each run of =ⁿ-equal keys off a key-ordered stream
// in a single pass — grouping pipelined with aggregation, the implementation
// the paper's Section 2 attributes to sort-based grouping. With preSorted set
// the input already streams in key order and is consumed as it comes, as one
// in-order chunk: one live state and one live row. Otherwise the input is
// materialized and sorted on the grouping columns first, and the output is
// ordered by the grouping key.
type sortGroupOp struct {
	groupCore
	preSorted bool
}

func (g *sortGroupOp) open() ([]value.Row, *mergeIter, error) {
	out, err := g.aggregate()
	return out, nil, err
}

func (g *sortGroupOp) aggregate() ([]value.Row, error) {
	if g.scalarGroup() {
		// One group: nothing to sort, and one state never needs to spill.
		return g.foldPipeline()
	}
	if g.preSorted {
		g.ran("stream")
		add, done, err := g.streamGroups(false)
		if err != nil {
			return nil, err
		}
		if err := g.input.each(func(row value.Row) error { return add(spillRow{row: row}) }); err != nil {
			return nil, err
		}
		return done()
	}
	rows, err := g.input.collect()
	if err != nil {
		return nil, err
	}
	g.ran("sort")
	return g.sortAggregate(rows, false)
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
// in memory, unaccounted, adopts the pipeline's collection and runs on par
// workers. The result is byte-identical either way: rows in sorted order, or
// the merge of the runs, which the runner reads and closes.
type sortOp struct {
	input   *pipeOp
	keys    []sortKey
	par     int
	gov     *governor
	mgr     *storage.SpillManager
	metrics *obs.OpMetrics
	where   string
}

func (s *sortOp) open() ([]value.Row, *mergeIter, error) {
	x := &extSorter{
		gov: s.gov, mgr: s.mgr, metrics: s.metrics, op: s.where, par: s.par,
		cmp: func(a, b value.Row) int { return cmpByKeys(s.keys, a, b) },
	}
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
	var it *mergeIter
	if err == nil {
		it, err = x.finish()
	}
	switch {
	case err != nil:
		x.close()
		return nil, nil, err
	case it.cmp != nil:
		return nil, it, nil // runs on disk: their merge
	default:
		return it.sorted(), nil, nil
	}
}
