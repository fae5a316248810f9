// Package exec implements the physical executor: it lowers logical plans
// (package algebra) onto in-memory tables (package storage) as breakers that
// hold state, joined by pipelines that carry rows between them (parallel.go).
// A join runs as a hash join when its condition has an equi-key and as a
// nested loop when it does not; grouping runs as hash aggregation or
// sort-based aggregation pipelined with the sort (the Klug/Dayal technique
// the paper's Section 2 recounts).
//
// The executor records the number of rows each plan node produces. Those
// counts are how the benchmark harness regenerates the paper's Figure 1 and
// Figure 8 plan diagrams, whose annotations are exactly per-operator
// cardinalities.
package exec

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/paged"
	"repro/internal/storage"
	"repro/internal/value"
)

// GroupStrategy selects the physical grouping implementation.
type GroupStrategy uint8

// Grouping strategies. GroupAuto, the zero value and so every engine run,
// lets the compiler choose per GroupBy node from the order it can prove of
// the node's input — the paper's Section 7, sortedness "can be exploited":
// input already ordered on the grouping columns is grouped in one streaming
// pass, anything else hashes. GroupHash and GroupSort (sort the input rows,
// then stream) force one implementation on every node: the oracles'
// strategy axis, set by no engine path.
const (
	GroupAuto GroupStrategy = iota
	GroupHash
	GroupSort
)

// String names the strategy.
func (s GroupStrategy) String() string {
	switch s {
	case GroupHash:
		return "hash"
	case GroupSort:
		return "sort"
	case GroupAuto:
		return "auto"
	default:
		return fmt.Sprintf("GroupStrategy(%d)", uint8(s))
	}
}

// Options configures an execution.
type Options struct {
	Group  GroupStrategy // zero: GroupAuto, what every engine run uses
	Params expr.Params
	// Parallelism is the worker count of the one operator set: how many
	// goroutines carry a pipeline's chunks (0 and 1 mean one worker, the
	// caller's own goroutine; negative means one per CPU) and how many
	// partial tables hash aggregation builds. It does not change how rows
	// move: at every setting the streaming nodes between two breakers
	// (filter, projection, hash-join probe, nested-loop left side) are the
	// stages of one pipeline whose chunks run through the whole chain into
	// the breaker above, so nothing in between is materialized. Hash-join
	// tables build partitioned and sorts run chunked above one worker.
	// Results are row-identical for any setting (see parallel.go).
	Parallelism int
	// Metrics, when non-nil, collects per-operator obs.OpMetrics keyed by
	// plan node: rows in/out, wall time, hash-table build entries and
	// probe hits, approximate state bytes, and per-worker morsel counts.
	// Use a fresh collector per run. When nil (and Trace is nil too) the
	// executor inserts no instrumentation at all, so the disabled path
	// adds zero allocations per row.
	Metrics *obs.Collector
	// Clock supplies the timestamps behind operator timings and trace
	// spans; nil means obs.Wall. Inject an obs.FakeClock to make timing
	// output deterministic (the golden-test and lint-sanctioned
	// alternative to reading the wall clock in executor code).
	Clock obs.Clock
	// Trace, when non-nil, records one hierarchical span per operator,
	// mirroring the plan tree, begun and ended around the node's run.
	Trace *obs.Tracer
	// Context, when non-nil, bounds the execution: a cancelled or expired
	// context aborts the query with ctx.Err() (context.Canceled or
	// context.DeadlineExceeded) within a fraction of one morsel's work,
	// with every worker goroutine joined before Run returns. Nil (or a
	// never-cancelled context like context.Background) costs nothing.
	Context context.Context
	// MemoryBudget, when positive, caps the bytes of operator state the
	// query may admit — hash-table keys and rows, group accumulators; the
	// same quantities the obs StateBytes counters measure. Crossing the
	// budget aborts the query with a typed *ResourceError the moment the
	// over-budget allocation is attempted, never after. 0 means unlimited.
	MemoryBudget int64
	// Faults, when non-nil, is a deterministic fault injector (package
	// fault) advanced once per governed row event. Testing only: the chaos
	// oracle drives it. Nil keeps the row path fault-free and unchecked.
	Faults *fault.Injector
	// Spill, when non-nil (and a MemoryBudget is set), enables graceful
	// spill-to-disk execution: when the budget refuses operator state a
	// sort goes external, hash aggregation degrades to sort-based external
	// aggregation, and a hash join goes grace — all spilling through this
	// temp-file manager instead of aborting with a *ResourceError. Results
	// are byte-identical to the in-memory execution. Disk failures (and
	// injected disk faults) surface as typed *SpillError values; temp files
	// are removed by the operator that made them before its rows move on,
	// so the manager's Live() count is 0 after every run. Without a budget
	// the manager is ignored — nothing can trigger a spill.
	Spill *storage.SpillManager
	// Vectorize makes the plan's stored tables sources in columnar form
	// (package vec: typed column vectors with null bitmaps, 1024-row
	// batches, built once per table version and cached) — the only thing it
	// selects. Rows handed to the run — a Values literal, a leaf bound
	// through Sources — stay a row source (compiler.leaf). A pipeline over a
	// columnar leaf carries one batch per scheduling unit through the stages
	// that have a batch form (filter: selection vectors instead of row
	// copies; bare-column projection; the hash-join probe: keys encoded
	// column-at-a-time in the value.GroupKey canonical byte format, output
	// gathered by index) into a sink that takes batches (hash grouping, the
	// collection), and is unrolled into one borrowed scratch row per logical
	// row where it meets a stage or a sink that has only a row form; above
	// the first breaker the plan runs in row form. It is the same runner,
	// stores and admission either way (parallel.go, vector.go), so results
	// are row-identical to the row form for any plan at any Parallelism,
	// with or without a spill manager (the differential oracles compare all
	// combinations). While a chain is in batches the governor ticks, the
	// fault injector steps and rows are counted once per batch, not once per
	// row. Off by default: the row form is what every end-to-end workload
	// but one runs.
	Vectorize bool
	// Sources, when non-nil, binds the plan's leaves that are not core algebra
	// to their rows, for this run only — the seam the distributed runtime
	// (package dist) runs one plan fragment per site through: it sets, on a
	// by-value copy of the session's Options, the function that answers site
	// i's shard for a shard leaf and the rows delivered to site i for an
	// exchange endpoint, so the plan tree itself is never written and any
	// number of runs may share it. The compiler lowers a bound leaf like a
	// Values literal; the slice is the only copy of the input the run holds,
	// and the pipeline above the leaf — join probe, folding group-by — reads
	// it in place. Such a run is one of several over the same plan nodes and
	// the same collector, so it leaves RowsIn to whoever bound it: derived
	// once (obs.FillRowsIn), after the last of them has joined.
	Sources func(leaf algebra.Node) ([]value.Row, bool)
}

// Result is a fully materialized query result.
type Result struct {
	Schema algebra.Schema
	Rows   []value.Row
}

// Consumer takes the rows of a streamed run (Stream) as the root pipeline
// emits them, in chunks: runs of consecutive result rows, chunk c's before
// chunk c+1's in the order Run would return them.
type Consumer interface {
	// Begin is called once, before any row, with the number of chunks. One
	// chunk is filled on the caller's goroutine; more may be filled at once,
	// on the run's workers, in any order.
	Begin(chunks int)
	// Chunk returns the receiver of chunk c's rows, in order. A row is
	// borrowed: it may be overwritten once the receiver returns. An error
	// from the receiver ends the run with that error.
	Chunk(c int) func(row value.Row) error
}

// Run executes a logical plan to completion and returns its rows. A panic on
// the caller's own goroutine — every operator, and a pipeline's chunks at one
// worker — is recovered into a typed *ExecPanicError (worker-pool panics are
// recovered closer to the worker, with the worker id, and arrive as ordinary
// errors).
func Run(root algebra.Node, store *storage.Store, opts *Options) (*Result, error) {
	rows, err := execute(root, store, opts, nil)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: root.Schema(), Rows: rows}, nil
}

// Stream is Run with the root pipeline's rows handed to c as they are made
// instead of collected: no row of the result is kept by the run. At one
// worker the rows are one chunk, pulled in order — a spilled sort's merge
// included, unless Metrics are on: then the merge is drained, as Run drains
// it; above one they are the chunks Run's collection cuts.
func Stream(root algebra.Node, store *storage.Store, opts *Options, c Consumer) error {
	_, err := execute(root, store, opts, c)
	return err
}

// execute is Run's and Stream's one body: it compiles root and runs its
// pipeline into cons, or, with cons nil, collects it.
func execute(root algebra.Node, store *storage.Store, opts *Options, cons Consumer) (rows []value.Row, err error) {
	if opts == nil {
		opts = &Options{}
	}
	defer func() {
		if r := recover(); r != nil {
			// A panic unwinds past every operator's sweep, so any spill files
			// the run created are still on disk; sweep them here so the
			// "zero live files after Run" contract holds on panic paths too.
			if opts.Spill != nil {
				_ = opts.Spill.Cleanup()
			}
			rows, err = nil, panicError(root.Describe(), -1, r)
		}
	}()
	c := &compiler{store: store, opts: opts, par: opts.effectiveParallelism()}
	c.clock = opts.Clock
	if c.clock == nil {
		c.clock = obs.Wall
	}
	c.gov = newGovernor(opts)
	defer c.gov.detach()
	if opts.Spill != nil && c.gov != nil && c.gov.budget > 0 {
		c.spill = opts.Spill
	}
	if opts.Metrics != nil {
		opts.Metrics.SetWorkers(c.par)
		if opts.MemoryBudget > 0 {
			opts.Metrics.SetBudget(opts.MemoryBudget)
		}
	}
	if err := c.gov.cancelled(); err != nil {
		return nil, err
	}
	out, err := c.compile(root)
	if err != nil {
		return nil, err
	}
	// A root that is a leaf or a breaker ticks once more: the end of its rows
	// is a governed event, like each of them.
	last := out.pipe.src != nil && len(out.pipe.stages) == 0
	if cons != nil {
		err = out.pipe.stream(cons)
	} else {
		rows, err = out.pipe.collect()
	}
	if err == nil && last {
		err = c.gov.tick()
	}
	if opts.Metrics != nil && c.gov != nil {
		opts.Metrics.SetBudgetUsed(c.gov.usedBytes())
		if sp := c.gov.spilledBytes(); sp > 0 {
			opts.Metrics.SetSpilled(sp)
		}
	}
	if err != nil {
		return nil, err
	}
	if opts.Metrics != nil && opts.Sources == nil {
		obs.FillRowsIn(opts.Metrics, root, algebra.Node.Children)
	}
	return rows, nil
}

// compiled is what a plan node lowers to — the pipeline whose topmost stage or
// source the node is — with its output-order guarantee: order lists the
// output column positions the stream is sorted by (ascending under
// value.OrderKey); nil means no guarantee. The compiler propagates this
// "interesting order" property to skip redundant sorts — the paper's Section
// 7 observation that grouped output arrives sorted on the grouping columns and
// downstream operators can exploit it.
type compiled struct {
	pipe  *pipeOp
	order []int
}

// orderedPrefixSet reports whether the first len(cols) entries of order
// cover exactly the column set cols. Rows sorted by a column-sequence
// prefix are contiguous on any permutation of that prefix, which is all
// streaming grouping needs.
func orderedPrefixSet(order []int, cols []int) bool {
	if len(order) < len(cols) || len(cols) == 0 {
		return false
	}
	set := make(map[int]bool, len(cols))
	for _, c := range cols {
		set[c] = true
	}
	for _, o := range order[:len(cols)] {
		if !set[o] {
			return false
		}
	}
	return true
}

// compiler lowers logical nodes to physical operators.
type compiler struct {
	store *storage.Store
	opts  *Options
	// par is the resolved worker count.
	par int
	// clock is the resolved Options.Clock (obs.Wall by default).
	clock obs.Clock
	// span is the trace span of the node currently being compiled; child
	// compilations hang their spans beneath it, mirroring the plan tree.
	span *obs.Span
	// gov is the execution's lifecycle governor; nil when no cancellation
	// context, memory budget or fault injector is configured, in which
	// case nothing ticks.
	gov *governor
	// spill is the temp-file manager behind the state stores' external
	// paths; nil when spilling is off (no manager, or no budget to
	// overflow), in which case a budget breach aborts the query.
	spill *storage.SpillManager
}

func (c *compiler) compile(n algebra.Node) (compiled, error) {
	parent := c.span
	var span *obs.Span
	if c.opts.Trace != nil {
		if parent == nil {
			span = c.opts.Trace.Root(n.Describe())
		} else {
			span = parent.Child(n.Describe())
		}
		c.span = span
	}
	out, err := c.compileInner(n)
	c.span = parent
	if err != nil {
		return compiled{}, err
	}
	// The node's rows are ticked and counted by the runner: in a stage, once
	// per chunk, or in its loop over the source the node is.
	observed := c.opts.Metrics != nil || span != nil
	if c.gov != nil || observed {
		var m *metricOp
		if observed {
			m = &metricOp{metrics: c.nodeMetrics(n), clock: c.clock, span: span}
		}
		out.pipe.meter(m)
	}
	return out, nil
}

func (c *compiler) compileInner(n algebra.Node) (compiled, error) {
	switch node := n.(type) {
	case *algebra.Scan:
		tab, err := c.store.Table(node.Table)
		if err != nil {
			return compiled{}, err
		}
		return c.leaf(n, tab, nil), nil
	case *algebra.Values:
		return c.leaf(n, nil, node.Rows), nil
	case *algebra.Select:
		in, err := c.compile(node.Input)
		if err != nil {
			return compiled{}, err
		}
		cond, err := expr.Bind(node.Cond, node.Input.Schema())
		if err != nil {
			return compiled{}, err
		}
		// Filtering preserves order (a pipeline's chunks are collected in
		// input order, so it does at any worker count).
		p, gov, params := in.pipeline(n), c.gov, c.opts.Params
		if p.inBatches() {
			p.add(stage{metrics: c.nodeMetrics(n), batch: c.filterBatches(cond)}, true)
			return compiled{pipe: p, order: in.order}, nil
		}
		p.add(stage{metrics: c.nodeMetrics(n), bind: func(emit emitFn) emitFn {
			// σ[C] under ⌊·⌋ interpretation: unknown disqualifies.
			return func(row value.Row) error {
				if err := gov.tick(); err != nil {
					return err
				}
				truth, err := expr.EvalTruth(cond, row, params)
				if truth != value.True || err != nil {
					return err
				}
				return emit(row)
			}
		}}, p.borrowed)
		return compiled{pipe: p, order: in.order}, nil
	case *algebra.Project:
		in, err := c.compile(node.Input)
		if err != nil {
			return compiled{}, err
		}
		inSchema := node.Input.Schema()
		items := make([]expr.Expr, len(node.Items))
		for i, item := range node.Items {
			bound, err := expr.Bind(item.E, inSchema)
			if err != nil {
				return compiled{}, err
			}
			items[i] = bound
		}
		// Projection preserves order for the prefix of input-order
		// columns that survive as bare column items (dedup of a sorted
		// stream stays sorted).
		var order []int
		for _, src := range in.order {
			mapped := -1
			for i, item := range items {
				if cr, ok := item.(*expr.ColumnRef); ok && cr.Index == src {
					mapped = i
					break
				}
			}
			if mapped < 0 {
				break
			}
			order = append(order, mapped)
		}
		p, gov, params := in.pipeline(n), c.gov, c.opts.Params
		if cols, bare := bareColumns(items); bare && !node.Distinct {
			if slices.Equal(cols, firstColumns(len(inSchema))) {
				// The input's columns in order under other names — the paper's
				// π_A over a GroupBy, almost always: the input's rows, passed on.
				p.add(p.passStage(c.nodeMetrics(n)), p.borrowed)
				return compiled{pipe: p, order: order}, nil
			}
			if p.inBatches() {
				// Bare columns are a zero-copy column permutation; any other shape
				// (expressions, DISTINCT) is a row stage, over the unrolled batch.
				p.add(stage{metrics: c.nodeMetrics(n), batch: c.projectBatches(cols)}, true)
				return compiled{pipe: p, order: order}, nil
			}
		}
		p.add(stage{metrics: c.nodeMetrics(n), bind: func(emit emitFn) emitFn {
			// The chunk's scratch row: a sink that keeps rows copies it.
			proj := make(value.Row, len(items))
			return func(row value.Row) error {
				if err := gov.tick(); err != nil {
					return err
				}
				if err := projectInto(proj, items, row, params); err != nil {
					return err
				}
				return emit(proj)
			}
		}}, true)
		if node.Distinct {
			return compiled{pipe: c.source(&distinctOp{input: p, gov: gov}, n), order: order}, nil
		}
		return compiled{pipe: p, order: order}, nil
	case *algebra.Product:
		return c.compileJoin(&algebra.Join{L: node.L, R: node.R}, n)
	case *algebra.Join:
		return c.compileJoin(node, n)
	case *algebra.GroupBy:
		return c.compileGroupBy(node)
	case *algebra.Sort:
		in, err := c.compile(node.Input)
		if err != nil {
			return compiled{}, err
		}
		schema := node.Input.Schema()
		keys := make([]sortKey, len(node.Keys))
		allAsc := true
		keyCols := make([]int, len(node.Keys))
		for i, k := range node.Keys {
			idx, err := schema.IndexOf(k.Col)
			if err != nil {
				return compiled{}, err
			}
			keys[i] = sortKey{col: idx, desc: k.Desc}
			keyCols[i] = idx
			if k.Desc {
				allAsc = false
			}
		}
		// Skip the sort entirely when the input already streams in the
		// requested (all-ascending) key sequence.
		if allAsc && hasSequencePrefix(in.order, keyCols) {
			return in, nil
		}
		outOrder := keyCols
		if !allAsc {
			outOrder = nil // mixed directions: no OrderKey-ascending guarantee
		}
		op := &sortOp{input: in.pipeline(n), keys: keys, par: c.stateWorkers(), gov: c.gov, mgr: c.spill, metrics: c.nodeMetrics(n), where: n.Describe()}
		return compiled{pipe: c.source(op, n), order: outOrder}, nil
	case *algebra.Limit:
		return c.compileLimit(node)
	default:
		// A leaf outside the core algebra — the distributed runtime's shard
		// and exchange endpoints — is whatever rows this run binds it to.
		if c.opts.Sources != nil {
			if rows, ok := c.opts.Sources(n); ok {
				return c.leaf(n, nil, rows), nil
			}
		}
		return compiled{}, fmt.Errorf("exec: no physical implementation for %T", n)
	}
}

// leaf lowers a leaf — a stored table, or the rows of a Values node or of a
// leaf bound through Options.Sources — in its source form. It is the one
// place Options.Vectorize is read, and the leaf decides: only a stored table,
// whose batches are built once and cached (Table.Columnar), becomes a
// pipeline of no stages over a colSource, above which the compiler asks the
// pipeline whether it is still in batches. Rows handed to the run stay rows:
// columnarizing them would cost every run what it saves.
func (c *compiler) leaf(n algebra.Node, tab *storage.Table, rows []value.Row) compiled {
	if tab == nil {
		return compiled{pipe: c.source(leafRows(rows), n)}
	}
	if c.opts.Vectorize {
		src := &colSource{table: tab, metrics: c.nodeMetrics(n)}
		return compiled{pipe: &pipeOp{cols: src, borrowed: true, par: c.par, gov: c.gov, node: n}}
	}
	return compiled{pipe: c.source(leafRows(tab.Rows()), n)}
}

// hasSequencePrefix reports whether order starts with exactly the sequence
// want.
func hasSequencePrefix(order, want []int) bool {
	if len(order) < len(want) || len(want) == 0 {
		return false
	}
	for i, w := range want {
		if order[i] != w {
			return false
		}
	}
	return true
}

// leafRows is a leaf in row form: a stored table's rows, a Values literal's or
// rows bound through Options.Sources. None of them is the run's own, so a
// result takes them in a fresh header slice (collect).
type leafRows []value.Row

func (l leafRows) open() (opened, error) { return opened{rows: l}, nil }

// distinctSet is DISTINCT's memory: the canonical key of every row seen, in a
// paged.Dict. A row is looked up by its key bytes in a reused buffer, and a
// first occurrence's bytes are copied into the index's arena — no string is
// made for either.
type distinctSet struct {
	index paged.Dict
	cols  []int // every column, for appendKey
	key   []byte
}

func newDistinctSet(width int) distinctSet {
	return distinctSet{cols: firstColumns(width)}
}

// firstColumns is the column list 0, 1, …, n-1.
func firstColumns(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// first reports whether row is the first of its =ⁿ class, and remembers it.
func (d *distinctSet) first(row value.Row) bool {
	d.key = appendKey(d.key[:0], row, d.cols)
	hash := paged.Hash(d.key)
	if d.index.Lookup(hash, d.key) >= 0 {
		return false
	}
	d.index.Append(hash, d.key)
	return true
}

// distinctOp is DISTINCT: duplicate elimination under =ⁿ (SQL2 duplicate
// semantics). The projection itself ran as the last stage of the pipeline
// below; duplicates are dropped in one serial pass over its collected rows,
// first occurrences kept in input order.
type distinctOp struct {
	input *pipeOp
	gov   *governor
}

func (d *distinctOp) open() (opened, error) {
	rows, err := d.input.collect()
	if err != nil || len(rows) == 0 {
		return opened{}, err
	}
	seen := newDistinctSet(len(rows[0]))
	out := rows[:0]
	for _, row := range rows {
		if err := d.gov.tick(); err != nil {
			return opened{}, err
		}
		if seen.first(row) {
			out = append(out, row)
		}
	}
	if 2*len(out) < len(rows) {
		// The collection's rows lie in its slabs, and its header slice still
		// points at the dropped ones: survivors of a collection that dropped
		// most of it move to a slice and a slab of their own, so the dropped
		// rows are not kept alive by a few kept ones.
		kept := make([]value.Row, len(out))
		width := len(out[0])
		slab := make([]value.Value, len(out)*width)
		for i, row := range out {
			if err := d.gov.cancelled(); err != nil {
				return opened{}, err
			}
			kept[i] = slab[i*width : (i+1)*width : (i+1)*width]
			copy(kept[i], row)
		}
		out = kept
	}
	return opened{rows: out}, nil
}

// projectInto evaluates the item expressions over one row into out.
func projectInto(out value.Row, items []expr.Expr, row value.Row, params expr.Params) error {
	for i, item := range items {
		v, err := expr.Eval(item, row, params)
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}
