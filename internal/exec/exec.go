// Package exec implements the physical executor: it lowers logical plans
// (package algebra) onto in-memory tables (package storage) as breakers that
// hold state, joined by pipelines that carry rows between them (parallel.go).
// Every join runs as the hash join — over the empty key when its condition
// has no equi-key, the whole condition its residual; grouping runs as hash
// aggregation or sort-based aggregation pipelined with the sort (the
// Klug/Dayal technique the paper's Section 2 recounts).
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
	"repro/internal/storage"
	"repro/internal/value"
)

// GroupStrategy selects the physical grouping implementation.
type GroupStrategy uint8

// Grouping strategies. GroupAuto, the zero value and so every engine run,
// lets the compiler choose per grouping from the order it can prove of its
// input — the paper's Section 7, sortedness "can be exploited": input already
// ordered on the grouping columns is grouped in one streaming pass, anything
// else hashes. GroupHash and GroupSort (the streaming pass over a sort of the
// input on the grouping columns) force one implementation on every GroupBy
// node; DISTINCT, a grouping too, is never forced. The matrix's strategy axis
// and the benchmark set them; no engine path does.
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
	Group  GroupStrategy // forced on GroupBy nodes; zero: GroupAuto, what every engine run uses
	Params expr.Params
	// Parallelism is the worker count of the one operator set: how many
	// goroutines carry a pipeline's chunks (0 and 1 mean one worker, the
	// caller's own goroutine; negative means one per CPU) and how many
	// partial tables hash aggregation builds. It does not change how rows
	// move: at every setting the streaming nodes between two breakers
	// (filter, projection, a join's probe of its left side) are the
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
	// sort goes external, and a hash join or a hash grouping goes grace —
	// the rows its table cannot take go to partition files — all through this
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

// Consumer takes the rows of a streamed run (Shape.Stream) as the root
// pipeline emits them, in chunks: runs of consecutive result rows, chunk c's
// before chunk c+1's in the order Run would return them.
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
	rows, err := execute(root, nil, store, opts, nil)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: root.Schema(), Rows: rows}, nil
}

// Shape is the plan-only half of a compiled plan: every node's bound
// expressions, key columns and sort keys, its grouping core and strategy, the
// order its output carries, and the names its operators put in their errors —
// everything that depends on the plan and the forced grouping strategy and on
// nothing a run brings. Run makes one per call; a caller that runs one plan
// many times makes it once (NewShape) and streams it (Shape.Stream), so a run
// only binds: its pipelines, stages and operators, over its snapshot,
// governor, parameters and metrics. A shape holds no mutable state, so any
// number of runs, on any goroutines, may share one.
type Shape struct {
	root  *nodeShape
	group GroupStrategy
}

// NewShape lowers the plan-only half of root for runs that force no grouping
// strategy (Options.Group is GroupAuto), as every engine run.
func NewShape(root algebra.Node) (*Shape, error) {
	return shaper{}.of(root)
}

// of lowers the plan-only half of root.
func (sh shaper) of(root algebra.Node) (*Shape, error) {
	s, err := sh.shape(root)
	if err != nil {
		return nil, err
	}
	return &Shape{root: s, group: sh.group}, nil
}

// Stream is Run of the plan s was made from with the root pipeline's rows
// handed to c as they are made instead of collected: no row of the result is
// kept by the run. At one worker the rows are one chunk, pulled in order — the
// merge of a sort, a grace join or a grouping that spilled included, unless
// Metrics are on: then the merge is drained, as Run drains it; above one they
// are the chunks Run's collection cuts.
func (s *Shape) Stream(store *storage.Store, opts *Options, c Consumer) error {
	_, err := execute(s.root.node, s, store, opts, c)
	return err
}

// execute is Run's and Shape.Stream's one body: it binds shape — made from
// root first when nil — and runs its pipeline into cons, or, with cons nil,
// collects it.
func execute(root algebra.Node, shape *Shape, store *storage.Store, opts *Options, cons Consumer) (rows []value.Row, err error) {
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
	if shape == nil {
		if shape, err = (shaper{group: opts.Group}).of(root); err != nil {
			return nil, err
		}
	} else if shape.group != opts.Group {
		return nil, fmt.Errorf("exec: a shape made for grouping strategy %s run under %s", shape.group, opts.Group)
	}
	p, err := c.compile(shape.root)
	if err != nil {
		return nil, err
	}
	// A root that is a leaf or a breaker ticks once more: the end of its rows
	// is a governed event, like each of them.
	last := p.src != nil && len(p.stages) == 0
	if cons != nil {
		err = p.stream(cons)
	} else {
		rows, err = p.collect()
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

// nodeShape is one plan node's part of a Shape: what the node lowers to,
// decided once, and bind, which makes its pipeline for one run. order is the
// output-order guarantee of that pipeline: the output column positions its
// stream is sorted by (ascending under value.OrderKey); nil means no
// guarantee. The shaper propagates this "interesting order" property to skip
// redundant sorts — the paper's Section 7 observation that grouped output
// arrives sorted on the grouping columns and downstream operators can exploit
// it.
type nodeShape struct {
	node  algebra.Node
	desc  string // node.Describe(), made up front where name says so
	order []int
	bind  func(c *compiler) (*pipeOp, error)
	// table names the stored table whose rows, as stored, are the node's
	// output — a Scan's, or a projection of plain columns over such a node
	// — read through cols (nil: column i is the table's column i); "" for
	// any other node. A join whose build side has one probes the table's
	// join index (hashJoinOp).
	table string
	cols  []int
}

// column is the position of s's output column c in a row of s.table.
func (s *nodeShape) column(c int) int {
	if s.cols == nil {
		return c
	}
	return s.cols[c]
}

// storedAs makes s's rows in's stored table's, when in's are, through cols:
// s's column i is in's column cols[i].
func (s *nodeShape) storedAs(in *nodeShape, cols []int) {
	if in.table == "" {
		return
	}
	s.table, s.cols = in.table, make([]int, len(cols))
	for i, c := range cols {
		s.cols[i] = in.column(c)
	}
}

// name is the node's description, the name of its span, its errors and its
// panics. The shape describes once the nodes whose operator takes the name on
// every run — a join, a grouping, a sort (named) — and any other node is
// described where a run uses its name: a traced run's span, a worker pool's
// panic.
func (s *nodeShape) name() string {
	if s.desc != "" {
		return s.desc
	}
	return s.node.Describe()
}

// named makes s's name up front: s's operator takes it on every run.
func (s *nodeShape) named() { s.desc = s.node.Describe() }

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

// shaper lowers plan nodes to their shapes. group is the grouping strategy
// forced on GroupBy nodes (GroupAuto: the shaper's choice).
type shaper struct {
	group GroupStrategy
}

func (sh shaper) shape(n algebra.Node) (*nodeShape, error) {
	s := &nodeShape{node: n}
	var err error
	switch node := n.(type) {
	case *algebra.Scan:
		s.table = node.Table
		s.bind = func(c *compiler) (*pipeOp, error) {
			tab, err := c.store.Table(node.Table)
			if err != nil {
				return nil, err
			}
			return c.leaf(s, tab, nil), nil
		}
	case *algebra.Values:
		s.bind = func(c *compiler) (*pipeOp, error) { return c.leaf(s, nil, node.Rows), nil }
	case *algebra.Select:
		err = sh.filter(s, node)
	case *algebra.Project:
		err = sh.project(s, node)
	case *algebra.Product:
		err = sh.join(s, &algebra.Join{L: node.L, R: node.R})
	case *algebra.Join:
		err = sh.join(s, node)
	case *algebra.GroupBy:
		err = sh.groupBy(s, node)
	case *algebra.Sort:
		var in *nodeShape
		if in, err = sh.shape(node.Input); err == nil {
			err = sh.sort(s, in, node.Input.Schema(), node.Keys)
		}
	case *algebra.Limit:
		err = sh.limit(s, node)
	default:
		// A leaf outside the core algebra — the distributed runtime's shard
		// and exchange endpoints — is whatever rows a run binds it to.
		s.bind = func(c *compiler) (*pipeOp, error) {
			if c.opts.Sources != nil {
				if rows, ok := c.opts.Sources(n); ok {
					return c.leaf(s, nil, rows), nil
				}
			}
			return nil, fmt.Errorf("exec: no physical implementation for %T", n)
		}
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// compiler binds one run's physical operators to a Shape.
type compiler struct {
	store *storage.Store
	opts  *Options
	// par is the resolved worker count.
	par int
	// clock is the resolved Options.Clock (obs.Wall by default).
	clock obs.Clock
	// span is the trace span of the node currently being bound; child
	// bindings hang their spans beneath it, mirroring the plan tree.
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

// compile binds node s for this run: its span, its pipeline and the
// instrumentation on it.
func (c *compiler) compile(s *nodeShape) (*pipeOp, error) {
	parent := c.span
	var span *obs.Span
	if c.opts.Trace != nil {
		if parent == nil {
			span = c.opts.Trace.Root(s.name())
		} else {
			span = parent.Child(s.name())
		}
		c.span = span
	}
	p, err := s.bind(c)
	c.span = parent
	if err != nil {
		return nil, err
	}
	// The node's rows are ticked and counted by the runner: in a stage, once
	// per chunk, or in its loop over the source the node is.
	observed := c.opts.Metrics != nil || span != nil
	if c.gov != nil || observed {
		var m *metricOp
		if observed {
			m = &metricOp{metrics: c.nodeMetrics(s.node), clock: c.clock, span: span}
		}
		p.meter(m)
	}
	return p, nil
}

// input binds in, the input of node s, and returns its pipeline, which s
// extends or runs: the pipeline s's panics are named by.
func (c *compiler) input(in, s *nodeShape) (*pipeOp, error) {
	p, err := c.compile(in)
	if err != nil {
		return nil, err
	}
	p.node = s
	return p, nil
}

// filter shapes a Select: its condition bound once.
func (sh shaper) filter(s *nodeShape, node *algebra.Select) error {
	in, err := sh.shape(node.Input)
	if err != nil {
		return err
	}
	cond, err := expr.Bind(node.Cond, node.Input.Schema())
	if err != nil {
		return err
	}
	// Filtering preserves order (a pipeline's chunks are collected in input
	// order, so it does at any worker count).
	s.order = in.order
	s.bind = func(c *compiler) (*pipeOp, error) {
		p, err := c.input(in, s)
		if err != nil {
			return nil, err
		}
		if p.inBatches() {
			p.add(stage{metrics: c.nodeMetrics(node), batch: c.filterBatches(cond)}, true)
			return p, nil
		}
		gov, params := c.gov, c.opts.Params
		p.add(stage{metrics: c.nodeMetrics(node), bind: func(emit emitFn) emitFn {
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
		return p, nil
	}
	return nil
}

// project shapes a Project: its items bound once, and what they are — a
// rename, bare columns, expressions — and, for π_D, its grouping.
func (sh shaper) project(s *nodeShape, node *algebra.Project) error {
	in, err := sh.shape(node.Input)
	if err != nil {
		return err
	}
	inSchema := node.Input.Schema()
	items := make([]expr.Expr, len(node.Items))
	for i, item := range node.Items {
		if items[i], err = expr.Bind(item.E, inSchema); err != nil {
			return err
		}
	}
	// Projection preserves order for the prefix of input-order columns that
	// survive as bare column items (dedup of a sorted stream stays sorted).
	for _, src := range in.order {
		mapped := slices.IndexFunc(items, func(item expr.Expr) bool {
			cr, ok := item.(*expr.ColumnRef)
			return ok && cr.Index == src
		})
		if mapped < 0 {
			break
		}
		s.order = append(s.order, mapped)
	}
	cols, bare := bareColumns(items)
	bare = bare && !node.Distinct
	if bare {
		s.storedAs(in, cols)
	}
	if bare && slices.Equal(cols, firstColumns(len(inSchema))) {
		// The input's columns in order under other names — the paper's π_A
		// over a GroupBy, almost always: the input's rows, passed on.
		s.bind = func(c *compiler) (*pipeOp, error) {
			p, err := c.input(in, s)
			if err == nil {
				p.add(p.passStage(c.nodeMetrics(node)), p.borrowed)
			}
			return p, err
		}
		return nil
	}
	if !bare {
		cols = nil
	}
	var distinct func(*compiler, *pipeOp) *pipeOp
	if node.Distinct {
		// π_D is duplicate elimination under =ⁿ (SQL2 duplicate semantics): a
		// grouping on every column with no aggregate item, never forced. Its
		// rows keep the projection's order: a hash grouping's are in first
		// appearance order, at every worker count and on its external path.
		order := s.order
		distinct = sh.grouping(s, order, groupCore{groupCols: firstColumns(len(items))}, GroupAuto)
		s.order = order
		s.named()
	}
	s.bind = func(c *compiler) (*pipeOp, error) {
		p, err := c.input(in, s)
		if err != nil {
			return nil, err
		}
		if cols != nil && p.inBatches() {
			// Bare columns are a zero-copy column permutation; any other shape
			// (expressions, DISTINCT) is a row stage, over the unrolled batch.
			p.add(stage{metrics: c.nodeMetrics(node), batch: c.projectBatches(cols)}, true)
			return p, nil
		}
		// π_D's morsels are its grouping's, counted by its partial tables.
		var metrics *obs.OpMetrics
		if distinct == nil {
			metrics = c.nodeMetrics(node)
		}
		gov, params := c.gov, c.opts.Params
		p.add(stage{metrics: metrics, bind: func(emit emitFn) emitFn {
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
		if distinct == nil {
			return p, nil
		}
		return distinct(c, p), nil
	}
	return nil
}

// leaf lowers a leaf — a stored table, or the rows of a Values node or of a
// leaf bound through Options.Sources — in its source form. It is the one
// place Options.Vectorize is read, and the leaf decides: only a stored table,
// whose batches are built once and cached (Table.Columnar), becomes a
// pipeline of no stages over a colSource, above which the compiler asks the
// pipeline whether it is still in batches. Rows handed to the run stay rows:
// columnarizing them would cost every run what it saves.
func (c *compiler) leaf(s *nodeShape, tab *storage.Table, rows []value.Row) *pipeOp {
	if tab == nil {
		return c.rows(rows, s)
	}
	if c.opts.Vectorize {
		p := c.source(nil, s)
		p.cols, p.borrowed = &colSource{table: tab, metrics: c.nodeMetrics(s.node)}, true
		return p
	}
	return c.rows(tab.Rows(), s)
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

// sortKeys compiles ORDER BY items over schema: the sort keys, and the order
// rows sorted on them carry — the keys' columns, or nil under mixed
// directions, which give no value.OrderKey-ascending guarantee.
func sortKeys(schema algebra.Schema, items []algebra.SortItem) ([]sortKey, []int, error) {
	keys := make([]sortKey, len(items))
	order := make([]int, len(items))
	allAsc := true
	for i, k := range items {
		idx, err := schema.IndexOf(k.Col)
		if err != nil {
			return nil, nil, err
		}
		keys[i], order[i] = sortKey{col: idx, desc: k.Desc}, idx
		allAsc = allAsc && !k.Desc
	}
	if !allAsc {
		order = nil
	}
	return keys, order, nil
}

// sort shapes a Sort of in, whose rows have schema, on items: nothing at all
// when in already streams in their order, else a sortOp.
func (sh shaper) sort(s, in *nodeShape, schema algebra.Schema, items []algebra.SortItem) error {
	keys, order, err := sortKeys(schema, items)
	if err != nil {
		return err
	}
	if hasSequencePrefix(in.order, order) {
		s.order = in.order
		s.bind = func(c *compiler) (*pipeOp, error) { return c.compile(in) }
		return nil
	}
	s.order = order
	s.named()
	s.bind = func(c *compiler) (*pipeOp, error) {
		p, err := c.input(in, s)
		if err != nil {
			return nil, err
		}
		return c.sorted(p, keys, s), nil
	}
	return nil
}

// sorted is a sortOp of in on keys at node s, with the node's metrics, the
// state workers and the spill manager.
func (c *compiler) sorted(in *pipeOp, keys []sortKey, s *nodeShape) *pipeOp {
	op := &sortOp{input: in, keys: keys, par: c.stateWorkers(), gov: c.gov, mgr: c.spill, metrics: c.nodeMetrics(s.node), where: s.name()}
	return c.source(op, s)
}

// leafRows is a leaf in row form: a stored table's rows, a Values literal's or
// rows bound through Options.Sources. None of them is the run's own, so a
// result takes them in a fresh header slice (collect).
type leafRows []value.Row

func (l leafRows) open() (opened, error) { return opened{rows: l}, nil }

// firstColumns is the column list 0, 1, …, n-1.
func firstColumns(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
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
