// Package gbj ("group-by before join") is a small SQL engine built around
// the query transformation of Yan & Larson, "Performing Group-By before
// Join" (ICDE 1994): pushing a GROUP BY below one or more joins — eager
// aggregation — when two functional dependencies provably hold in the join
// result, as decided by the paper's Algorithm TestFD from key constraints
// and equality predicates.
//
// The Engine is the public entry point:
//
//	e := gbj.New()
//	e.MustExec(`CREATE TABLE Department (DeptID INTEGER PRIMARY KEY, Name CHARACTER(30))`)
//	e.MustExec(`CREATE TABLE Employee (EmpID INTEGER PRIMARY KEY, DeptID INTEGER)`)
//	// ... INSERT data ...
//	res, err := e.QueryOptionsContext(ctx, `
//	    SELECT D.DeptID, D.Name, COUNT(E.EmpID)
//	    FROM Employee E, Department D
//	    WHERE E.DeptID = D.DeptID
//	    GROUP BY D.DeptID, D.Name`)
//
// The optimizer transparently evaluates the query with the group-by pushed
// below the join whenever that is valid and the cost model prefers it; use
// SetMode to force either plan, and Explain to see the normalization, the
// TestFD trace, both plans with estimated cardinalities, and the decision.
package gbj

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/value"
)

// Mode controls how the optimizer uses the group-by pushdown
// transformation.
type Mode = core.Mode

// Optimizer modes: cost-based (default), always transform when valid, or
// never transform. On a query over an aggregated view, ModeNever runs the
// nested plan as written (materialize the view, then join); ModeCost and
// ModeAlways run the cheaper of the nested and the flat plan.
const (
	ModeCost   = core.ModeCost
	ModeAlways = core.ModeAlways
	ModeNever  = core.ModeNever
)

// ResourceError is the typed error a query returns when it exceeds the
// engine's memory budget and no cheaper plan is available; match it with
// errors.As. It reports the budget, the high-water usage that tripped it,
// and the operator that was allocating.
type ResourceError = exec.ResourceError

// ExecPanicError is the typed error wrapping a panic contained inside the
// executor — the query fails cleanly instead of crashing the process. It
// carries the plan node, the worker index (-1 for serial execution), the
// recovered value, and the stack.
type ExecPanicError = exec.ExecPanicError

// SpillError is the typed error a query returns when a disk failure
// interrupts spill-to-disk execution (SetSpillDir) and no lazy fallback
// plan is available; match it with errors.As. It names the operator and
// spill stage and wraps the underlying I/O error — a failed spill never
// yields partial results.
type SpillError = exec.SpillError

// Engine is an embedded SQL engine instance. It is safe for concurrent
// use: DDL/DML statements take a write lock; queries hold the read lock
// only long enough to plan and snapshot the store, then execute against
// the snapshot — so long-running queries never block writers, and writers
// never change the rows a running query sees (snapshot isolation).
type Engine struct {
	mu    sync.RWMutex
	store *storage.Store
	opt   *core.Optimizer
	// set is the only copy of every engine setting. Guarded by mu and
	// written only by update; a query copies it by value under the read
	// lock and runs off the copy.
	set       settings
	fallbacks atomic.Int64

	// planCache memoizes plan selection keyed by the canonical query
	// (gbj_cache.go); write drops the entries a write makes stale.
	// cacheStats counts its traffic. Guarded by mu; the cache itself is
	// internally synchronized.
	planCache  *core.PlanCache
	cacheStats obs.CacheStats

	// cluster is the lazily built partitioning of the store for the current
	// node count (gbj_dist.go), valid while clusterEpoch is the store's
	// epoch. distMu guards them so concurrent queries (read-locked on mu)
	// share one rebuild. recovery aggregates the fault-recovery counters of
	// every distributed run.
	distMu       sync.Mutex
	cluster      *dist.Cluster
	clusterEpoch uint64
	recovery     dist.RecoveryStats
}

// settings is the engine's configuration: what plan selection reads plus
// what only execution reads. QueryOptions overrides apply to a by-value
// copy (with), never to the engine's own value.
type settings struct {
	mode        Mode
	parallelism int
	vectorize   bool
	nodes       int // 0 and 1 both mean single-site
	memBudget   int64
	spillDir    string
	clock       obs.Clock
	linkRetries int
	faults      *fault.Injector
	// serial is QueryOptions.Serial, kept beside the worker count it zeroes
	// because a cluster run sheds one thing more: its sites running at once.
	serial bool
}

// with returns the settings one query runs under: s with the per-query
// overrides applied.
func (s settings) with(o *QueryOptions) settings {
	if o == nil {
		return s
	}
	if o.MemoryBudget > 0 {
		s.memBudget = o.MemoryBudget
	}
	if o.Serial {
		s.parallelism, s.vectorize, s.serial = 0, false, true
	}
	return s
}

// New returns an empty engine. Its optimizer verifies every plan it emits
// (core.Optimizer.CheckPlans): a transformed plan executes only with a TestFD
// certificate that plancheck accepts and re-derives from the catalog.
func New() *Engine {
	return NewWithStore(storage.NewStore(schema.NewCatalog()))
}

// NewWithStore returns an engine that adopts a store built elsewhere in this
// module — a workload generator's, with its tables, rows and views — exactly
// as New would have built it by DDL and INSERTs. The engine owns the store
// from then on: write to it only through Exec.
func NewWithStore(store *storage.Store) *Engine {
	opt := core.NewOptimizer(store)
	opt.CheckPlans = true
	e := &Engine{store: store, opt: opt}
	e.planCache = core.NewPlanCache(defaultPlanCacheSize, &e.cacheStats)
	return e
}

// update is the one way a setting changes: a write that applies set and
// mirrors the fields the optimizer and cost model read into
// core.Optimizer; one only they read is set there alone (SetDistStrategy).
// The cached cluster needs no invalidation here: clusterFor compares its
// node count and epoch on every use.
func (e *Engine) update(set func(*settings)) {
	e.write(nil, func() error {
		set(&e.set)
		e.opt.Mode = e.set.mode
		e.opt.Parallelism = e.set.parallelism
		e.opt.Vectorize = e.set.vectorize
		e.opt.Nodes = e.set.nodes
		return nil
	})
}

// SetMode selects the optimizer mode.
func (e *Engine) SetMode(m Mode) {
	e.update(func(s *settings) { s.mode = m })
}

// Mode returns the current optimizer mode.
func (e *Engine) Mode() Mode {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.set.mode
}

// SetParallelism selects the executor worker count: 0 or 1 run queries
// serially (the default), n > 1 runs n workers, and a negative value uses
// one worker per CPU. Parallel execution is deterministic — it returns
// exactly the rows, in exactly the order, of a serial run. On a cluster
// (SetNodes) this is the worker count of each fragment run; how many sites
// run at once is not set here or anywhere (see SetNodes).
func (e *Engine) SetParallelism(n int) {
	e.update(func(s *settings) { s.parallelism = n })
}

// SetVectorize selects the data representation of stored tables: off (the
// default) a scan hands its rows through the pipeline; on it hands the
// table's cached columnar batches of up to 1024 rows through vectorized
// filter, projection, hash-join probe and hash-aggregation kernels. Rows
// handed to a run stay rows: on a cluster (SetNodes) every fragment reads
// its shard or its delivery in row form, so only a query the cluster
// degrades to a local run reads batches. Vectorized execution is
// deterministic — it returns exactly the rows, in exactly the order, of the
// row form — and composes with SetParallelism and SetMemoryBudget.
func (e *Engine) SetVectorize(on bool) {
	e.update(func(s *settings) { s.vectorize = on })
}

// SetMemoryBudget caps the bytes of operator state (hash tables, group
// tables, sort buffers) a single query may hold; 0 (the default) means
// unlimited. A query that would exceed the budget is aborted — but when the
// optimizer chose the eager group-before-join plan, the engine degrades
// gracefully: it re-executes the lazy group-after-join plan once (eager
// aggregation trades memory for speed; the lazy plan is the conservative
// shape), counts the event in Fallbacks, and surfaces it in the query's
// analysis (QueryAnalyzedContext). Only when the lazy plan also exceeds the
// budget does the query fail, with a *ResourceError.
func (e *Engine) SetMemoryBudget(bytes int64) {
	e.update(func(s *settings) { s.memBudget = bytes })
}

// MemoryBudget returns the per-query state-byte cap, 0 when unlimited.
func (e *Engine) MemoryBudget() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.set.memBudget
}

// SetSpillDir enables graceful spill-to-disk execution: queries that would
// exceed the memory budget partition their state into temporary files under
// dir (external merge sort, grace hash join, external aggregation) and
// complete with exactly the rows of an unbudgeted run, instead of failing
// with a *ResourceError. "" (the default) disables spilling. Spilling only
// engages when a memory budget is set; each query gets its own temp files,
// swept when the query returns. A disk failure during spilling surfaces as
// a *SpillError (or triggers the eager→lazy fallback when one is at hand),
// never as partial results.
func (e *Engine) SetSpillDir(dir string) {
	e.update(func(s *settings) { s.spillDir = dir })
}

// Fallbacks reports how many queries degraded from the eager plan to the
// lazy plan because the eager plan exceeded the memory budget.
func (e *Engine) Fallbacks() int64 {
	return e.fallbacks.Load()
}

// SetClock injects the clock behind the timings that Analyze and the
// observability surfaces report; nil restores the wall clock. Injecting an
// obs.FakeClock makes analyze output fully deterministic — the golden tests
// rely on it.
func (e *Engine) SetClock(c obs.Clock) {
	e.update(func(s *settings) { s.clock = c })
}

// Result is a materialized query result with Go-native values: int64,
// float64, string, bool, or nil for SQL NULL.
type Result struct {
	Columns []string
	Rows    [][]any
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := formatValue(v)
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var sb strings.Builder
	for i, c := range r.Columns {
		if i > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%-*s", widths[i], c)
	}
	sb.WriteByte('\n')
	for i := range r.Columns {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", widths[i]))
	}
	sb.WriteByte('\n')
	for _, row := range cells {
		for i, s := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], s)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func formatValue(v any) string {
	if v == nil {
		return "NULL"
	}
	return fmt.Sprintf("%v", v)
}

// Exec runs one or more semicolon-separated DDL/DML statements (CREATE
// TABLE / DOMAIN / VIEW, INSERT).
func (e *Engine) Exec(text string) error {
	stmts, err := sql.Parse(text)
	if err != nil {
		return err
	}
	return e.write(insertTables(stmts...), func() error {
		for _, stmt := range stmts {
			if err := e.execStmt(stmt); err != nil {
				return err
			}
		}
		return nil
	})
}

// insertTables are the tables stmts write when every one of them is an
// INSERT — what a write of them drops the plans of — else nil: any other
// statement changes the catalog, which every plan reads.
func insertTables(stmts ...sql.Stmt) []string {
	tables := make([]string, 0, len(stmts))
	for _, stmt := range stmts {
		ins, ok := stmt.(*sql.InsertStmt)
		if !ok {
			return nil
		}
		tables = append(tables, ins.Table)
	}
	return tables
}

// MustExec runs Exec and panics on error; for setup code whose statements
// are correct by construction.
func (e *Engine) MustExec(text string) {
	if err := e.Exec(text); err != nil {
		panic(err)
	}
}

func (e *Engine) execStmt(stmt sql.Stmt) error {
	switch s := stmt.(type) {
	case *sql.CreateTableStmt:
		def, err := buildTableDef(s)
		if err != nil {
			return err
		}
		return e.store.CreateTable(def)
	case *sql.CreateDomainStmt:
		return e.store.Catalog().AddDomain(&schema.Domain{
			Name:  s.Name,
			Type:  s.Type,
			Check: s.Check,
		})
	case *sql.CreateViewStmt:
		// Validate the definition by binding it now.
		if _, err := core.NewPlanner(e.store).Bind(s.Query); err != nil {
			return fmt.Errorf("gbj: invalid view %s: %w", s.Name, err)
		}
		return e.store.Catalog().AddView(&schema.View{
			Name:    s.Name,
			Text:    s.Text,
			Def:     s.Query,
			Columns: s.Columns,
		})
	case *sql.InsertStmt:
		return e.execInsert(s)
	case *sql.SelectStmt:
		return fmt.Errorf("gbj: use QueryOptionsContext for SELECT statements")
	case *sql.ExplainStmt:
		return fmt.Errorf("gbj: use Explain for EXPLAIN statements")
	default:
		return fmt.Errorf("gbj: unsupported statement %T", stmt)
	}
}

// buildTableDef converts a parsed CREATE TABLE into a catalog definition,
// folding inline column constraints into table-level ones.
func buildTableDef(s *sql.CreateTableStmt) (*schema.Table, error) {
	def := &schema.Table{Name: s.Name, Checks: s.Checks}
	for _, c := range s.Columns {
		def.Columns = append(def.Columns, schema.Column{
			Name:    c.Name,
			Type:    c.Type,
			Domain:  c.Domain,
			NotNull: c.NotNull,
			Check:   c.Check,
		})
		if c.PrimaryKey {
			def.Keys = append(def.Keys, schema.Key{Columns: []string{c.Name}, Primary: true})
		}
		if c.Unique {
			def.Keys = append(def.Keys, schema.Key{Columns: []string{c.Name}})
		}
		if c.References != nil {
			def.ForeignKeys = append(def.ForeignKeys, schema.ForeignKey{
				Columns:    c.References.Columns,
				RefTable:   c.References.RefTable,
				RefColumns: c.References.RefColumns,
			})
		}
	}
	for _, k := range s.Keys {
		def.Keys = append(def.Keys, schema.Key{Columns: k.Columns, Primary: k.Primary})
	}
	for _, fk := range s.ForeignKeys {
		def.ForeignKeys = append(def.ForeignKeys, schema.ForeignKey{
			Columns:    fk.Columns,
			RefTable:   fk.RefTable,
			RefColumns: fk.RefColumns,
		})
	}
	return def, nil
}

func (e *Engine) execInsert(s *sql.InsertStmt) error {
	def, err := e.store.Catalog().Table(s.Table)
	if err != nil {
		return err
	}
	cols := s.Columns
	if len(cols) == 0 {
		cols = def.ColumnNames()
	}
	positions := make([]int, len(cols))
	for i, name := range cols {
		positions[i] = def.ColumnIndex(name)
		if positions[i] < 0 {
			return fmt.Errorf("gbj: table %s has no column %s", s.Table, name)
		}
	}
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(cols) {
			return fmt.Errorf("gbj: INSERT into %s supplies %d values for %d columns",
				s.Table, len(exprRow), len(cols))
		}
		row := make(value.Row, len(def.Columns))
		for i := range row {
			row[i] = value.Null
		}
		for i, ex := range exprRow {
			v, err := expr.Eval(expr.FoldConstants(ex, nil), nil, nil)
			if err != nil {
				return fmt.Errorf("gbj: INSERT value %s: %w", ex, err)
			}
			row[positions[i]] = v
		}
		if err := e.store.Insert(s.Table, row); err != nil {
			return err
		}
	}
	return nil
}

// QueryContext is QueryOptionsContext with no per-query options.
func (e *Engine) QueryContext(ctx context.Context, text string) (*Result, error) {
	return e.QueryOptionsContext(ctx, text, nil)
}

// QueryOptions carries per-query execution options. The zero value means
// "use the engine's settings".
type QueryOptions struct {
	// Params are host-variable bindings (":name" references). Values may be
	// int/int64, float64, string, bool, or nil.
	Params map[string]any
	// MemoryBudget, when > 0, overrides the engine's per-query budget for
	// this query only — the admission controller leases budgets from a
	// global pool and passes them through here.
	MemoryBudget int64
	// Serial forces serial row-at-a-time execution (sheds parallelism and
	// vectorization, and on a cluster runs a fragment's sites one after
	// another instead of at once) for this query only — the admission
	// controller's degradation mode under load. The plan choice is
	// unchanged: serial and parallel, row and vectorized execution, sites
	// in turn and sites at once are equivalence-oracled, so shedding
	// degrades resources, never results.
	Serial bool
}

// QueryOptionsContext parses, optimizes and executes a SELECT with
// per-query options (nil means the engine's settings). Plan selection
// happens under the engine's read lock, through the plan cache; execution
// then runs against a store snapshot — or, with more than one node, the
// cluster partitioned from it — with the lock released, so concurrent DML
// neither blocks on this query nor changes the rows it sees. Cancelling ctx
// or passing one with a deadline aborts the query promptly (within one
// scheduling quantum of every worker), joins all goroutines, and returns the
// context's error.
func (e *Engine) QueryOptionsContext(ctx context.Context, text string, o *QueryOptions) (*Result, error) {
	var sink boxSink
	if _, err := e.query(ctx, text, nil, o, false, &sink); err != nil {
		return nil, err
	}
	return sink.result(), nil
}

// RowSink takes a query's rows as the answering rung's plan emits them
// (QueryStreamContext), in the engine's own row representation: the chunks
// of exec.Consumer, which no result collects.
type RowSink interface {
	// Start opens a rung of the execution ladder with the result's column
	// names, before its rows. Every rung starts, so a second Start voids what
	// the sink took since the first: the rows of a rung that failed after it
	// had handed some over.
	Start(columns []string)
	exec.Consumer
}

// QueryStreamContext is QueryOptionsContext with the rows handed to sink as
// the plan makes them instead of returned — same plan selection, same
// snapshot, same execution ladder, same errors. An error sink returns ends
// the query with that error, and a nil sink is an error. It exists for the
// query service, whose response body is encoded as the rows arrive.
func (e *Engine) QueryStreamContext(ctx context.Context, text string, o *QueryOptions, sink RowSink) error {
	if sink == nil {
		return errors.New("gbj: QueryStreamContext needs a sink for the rows")
	}
	_, err := e.query(ctx, text, nil, o, false, sink)
	return err
}

// query is the one path every SELECT entry takes: convert the host
// variables, prepare the plan and snapshot, run the execution ladder. The
// query comes as text or as q, its parse, as prepare takes it. It returns
// what the answering rung ran; its rows went to sink.
func (e *Engine) query(ctx context.Context, text string, q *sql.SelectStmt, o *QueryOptions, instrument bool, sink RowSink) (outcome, error) {
	var params expr.Params
	if o != nil {
		var err error
		if params, err = convertParams(o.Params); err != nil {
			return outcome{}, err
		}
	}
	p, err := e.prepare(text, q, o, params)
	if err != nil {
		return outcome{}, err
	}
	return e.run(ctx, &p, instrument, sink)
}

// prepared is everything one query captures under the engine's read lock;
// execution touches nothing else of the engine but its atomic counters, so
// the lock is released before the first row moves.
type prepared struct {
	choice *core.Choice   // the query's plan-cache entry
	set    settings       // the engine's settings with the query's overrides
	store  *storage.Store // frozen snapshot: the query's stable view of the data
	params expr.Params
	// cluster is the partitioned materialization of the same data, non-nil
	// when the query runs distributed. It is immutable after construction;
	// a later write makes the engine build a new one, not change this one.
	cluster *dist.Cluster
}

// prepare chooses the plan (through the plan cache) and captures the
// query's settings, data snapshot and cluster, all under one read lock. A
// caller with the query's text passes it and a nil q: a text the cache knows
// is served without a parse, and any other is parsed outside the lock, then
// chosen and aliased (gbj_cache.go). A caller with only a parse passes q and
// an empty text, which the cache's text key never sees.
func (e *Engine) prepare(text string, q *sql.SelectStmt, o *QueryOptions, params expr.Params) (prepared, error) {
	if q == nil {
		e.mu.RLock()
		if c := e.cachedText(text); c != nil {
			defer e.mu.RUnlock()
			return e.capture(c, o, params)
		}
		e.mu.RUnlock()
		var err error
		if q, err = sql.ParseQuery(text); err != nil {
			return prepared{}, err
		}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	c, err := e.choose(q, text)
	if err != nil {
		return prepared{}, err
	}
	return e.capture(c, o, params)
}

// capture is the rest of prepare once the query's cache entry is known: the
// query's settings, snapshot and cluster. Caller holds e.mu.
func (e *Engine) capture(c *core.Choice, o *QueryOptions, params expr.Params) (prepared, error) {
	var err error
	p := prepared{choice: c, set: e.set.with(o), store: e.store.Snapshot(), params: params}
	if p.set.nodes > 1 {
		if p.cluster, err = e.clusterFor(); err != nil {
			return prepared{}, err
		}
	}
	return p, nil
}

// attempt names one rung of the execution ladder: where the plan runs and
// whether it is the chosen plan or its lazy fallback.
type attempt struct{ dist, lazy bool }

// outcome is what the rung that produced the rows ran and measured. col and
// tracer are nil for uninstrumented runs; est is filled only alongside them.
type outcome struct {
	plan   algebra.Node // the tree that executed: the compiled one on the cluster
	est    algebra.Annotations
	col    *obs.Collector
	tracer *obs.Tracer
	dist   bool
}

// run executes a prepared query down the one execution ladder
//
//	dist(plan) → dist(lazy) → local(plan, spill) → local(lazy, no spill)
//
// entering at dist(plan) with a cluster and at local(plan) without. A
// budget abort or spill failure of the chosen plan steps to the lazy plan
// at the same site (eager aggregation builds its group table before the
// join filters rows, so it is the shape that can blow a budget the lazy
// plan fits); an unavailable cluster — retries exhausted, failover
// impossible — steps from either distributed rung to local(plan), so an
// unhealthy cluster costs a query its distribution, not its answer. Any
// other error, and any error of a last rung, is the query's error. Every
// step counts in Fallbacks, a distributed→local step also in
// RecoveryCounters().Degraded. An instrumented run gets a fresh collector
// and tracer per rung, carrying the reasons for the steps that led there,
// so the analysis describes the run that produced the rows.
func (e *Engine) run(ctx context.Context, p *prepared, instrument bool, sink RowSink) (outcome, error) {
	at := attempt{dist: p.cluster != nil}
	var degraded, fellBack string
	for {
		var out outcome
		if instrument {
			out.col, out.tracer = obs.NewCollector(), obs.NewTracer(p.set.clock)
			if degraded != "" {
				out.col.SetDegraded(degraded)
			}
			if fellBack != "" {
				out.col.SetFallback(fellBack)
			}
		}
		err := e.try(ctx, p, at, &out, sink)
		var ue *dist.UnavailableError
		switch {
		case err == nil:
			return out, nil
		case at.dist && errors.As(err, &ue):
			e.fallbacks.Add(1)
			e.recovery.Degraded.Add(1)
			degraded, fellBack = degradeReason(ue), ""
			at = attempt{}
		case !at.lazy && canFallBack(err, p.choice):
			e.fallbacks.Add(1)
			fellBack = fallbackReason(err)
			at.lazy = true
		default:
			return outcome{}, err
		}
	}
}

// try executes one rung: the choice's plan, or its fallback on a lazy rung.
// Local rungs bind its shape to the store snapshot; distributed rungs run its
// cluster plan, compiled and verified when the choice was made. The rung
// starts sink with the plan's column names and hands it the rows: a local
// rung's as its root pipeline makes them, a cluster rung's as the cluster
// returns them.
func (e *Engine) try(ctx context.Context, p *prepared, at attempt, out *outcome, sink RowSink) error {
	r := p.choice.Plan
	if at.lazy {
		r = p.choice.Fallback
	}
	opts := p.execOptions(ctx, at, out)
	if at == (attempt{}) && p.set.spillDir != "" && p.set.memBudget > 0 {
		// The first local rung spills under budget pressure instead of
		// aborting; its temp files are swept when the rung returns. The
		// lazy re-execution gets no manager: a spill failure must not retry
		// through the same failing disk, and the lazy plan is the
		// conservative in-memory shape either way.
		mgr := storage.NewSpillManager(p.set.spillDir)
		defer func() { _ = mgr.Cleanup() }()
		opts.Spill = mgr
	}
	if !at.dist {
		out.plan, out.est = r.Plan, r.Ann
		sink.Start(slices.Clone(r.Columns))
		return r.Shape.Stream(p.store, opts, sink)
	}
	out.plan, out.dist = r.Dist.Root, true
	if out.col != nil {
		out.est = r.DistAnn()
	}
	res, err := p.cluster.RunRecover(r.Dist, opts, e.recoveryPolicy(p.set))
	if err != nil {
		return err
	}
	sink.Start(slices.Clone(r.Columns))
	sink.Begin(1)
	emit := sink.Chunk(0)
	for _, row := range res.Rows {
		if err := emit(row); err != nil {
			return err
		}
	}
	return nil
}

// execOptions builds the executor options of one rung from the query's
// settings copy: the same options on every rung, local or cluster, but for
// operator spans, which only local rungs record (try adds the first local
// rung's SpillManager). The cluster runner hands every (fragment, site) run a
// copy with that site's Sources bound — rows, so a fragment runs in row form
// whatever Vectorize says (exec's leaf rule) — and runs a fragment's sites at
// once unless the budget or injector set here — or a Serial query, through
// recoveryPolicy — says one at a time (dist's sitesAtOnce).
func (p *prepared) execOptions(ctx context.Context, at attempt, out *outcome) *exec.Options {
	opts := &exec.Options{
		Params:       p.params,
		Parallelism:  p.set.parallelism,
		Vectorize:    p.set.vectorize,
		Context:      ctx,
		MemoryBudget: p.set.memBudget,
		Metrics:      out.col,
		Clock:        p.set.clock,
		Faults:       p.set.faults,
	}
	if !at.dist {
		opts.Trace = out.tracer
	}
	return opts
}

// canFallBack reports whether err is a budget abort or a spill failure
// that the engine can recover from by degrading to the choice's lazy
// fallback plan.
func canFallBack(err error, c *core.Choice) bool {
	var re *exec.ResourceError
	var se *exec.SpillError
	return c.Fallback != nil && (errors.As(err, &re) || errors.As(err, &se))
}

// fallbackReason renders the one-line account of a budget degradation that
// EXPLAIN ANALYZE and the metrics surface report.
func fallbackReason(err error) string {
	var se *exec.SpillError
	if errors.As(err, &se) {
		return fmt.Sprintf("spill failed in %s (%s): %v; re-executed the lazy group-after-join plan in memory", se.Op, se.Stage, se.Err)
	}
	var re *exec.ResourceError
	if errors.As(err, &re) {
		return fmt.Sprintf("eager plan exceeded the memory budget (%d of %d bytes at %s); re-executed the lazy group-after-join plan", re.Used, re.Budget, re.Op)
	}
	return "re-executed the lazy group-after-join plan"
}

// Explain returns a textual account of the plan decision for a SELECT: the
// standard plan, the Section 3 normalization, the TestFD trace, the
// transformed plan when valid, and the cost-based choice — or, for a query
// over an aggregated view the Section 8 reverse analysis applies to, that
// analysis. It is the account of the plan the query runs (core.Choice).
func (e *Engine) Explain(text string) (string, error) {
	q, err := parseSelect(text)
	if err != nil {
		return "", err
	}
	return e.explain(q)
}

// explain renders the plan decision the engine runs q with, under the read
// lock: Explain's and a script's EXPLAIN.
func (e *Engine) explain(q *sql.SelectStmt) (string, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	c, err := e.choose(q, "")
	if err != nil {
		return "", err
	}
	return c.Explain(), nil
}

// parseSelect parses one SELECT statement, with or without a leading
// EXPLAIN keyword (in any case, like every other keyword).
func parseSelect(text string) (*sql.SelectStmt, error) {
	stmt, err := sql.ParseOne(text)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		return s, nil
	case *sql.ExplainStmt:
		return s.Query, nil
	}
	return nil, fmt.Errorf("gbj: expected a SELECT statement, got %T", stmt)
}

// Analysis is the result of QueryAnalyzedContext: the rows plus the full
// observability profile of the execution.
type Analysis struct {
	// Result holds the query's rows.
	Result *Result
	// Plan is the executed plan: the tree of the plan-cache entry's runnable
	// that ran (core.Runnable.Plan, or on a cluster the root of its
	// Runnable.Dist), shared with every later run of the query: read it,
	// never write it.
	Plan algebra.Node
	// Calibration pairs the cost model's per-node estimates with measured
	// cardinalities (q-errors included) and carries the per-operator
	// metrics snapshots.
	Calibration *core.Calibration
	// Metrics is the raw per-operator collector.
	Metrics *obs.Collector
	// TraceJSON is the hierarchical span trace of the execution.
	TraceJSON []byte
	// Duration is the root operator's wall time.
	Duration time.Duration
	// Governance reports the lifecycle facts of the execution: the memory
	// budget and high-water state bytes, and — when the eager plan blew the
	// budget and the engine degraded to the lazy plan — the fallback and
	// its reason. Plan, Calibration and Metrics all describe the run that
	// produced the rows, i.e. the fallback run when one happened.
	Governance obs.Governance
}

// QueryAnalyzedContext is QueryOptionsContext with full instrumentation:
// per-operator metrics, a span trace, and the estimate-vs-actual
// calibration against the cost model. The text may carry a leading EXPLAIN.
// When the memory budget forces a degradation to the lazy plan, the analysis
// describes the fallback run and Governance records why. Its String is what
// EXPLAIN ANALYZE displays.
func (e *Engine) QueryAnalyzedContext(ctx context.Context, text string, o *QueryOptions) (*Analysis, error) {
	q, err := parseSelect(text)
	if err != nil {
		return nil, err
	}
	var sink boxSink
	out, err := e.query(ctx, "", q, o, true, &sink)
	if err != nil {
		return nil, err
	}
	// On the cluster, exchanges carry their shipped bytes (the "ship="
	// annotation and the "exchange bytes shipped" total) and the estimates
	// were translated onto the compiled tree through its origin map.
	cal := core.Calibrate(out.plan, out.est, out.col)
	trace, err := out.tracer.JSON()
	if err != nil {
		return nil, err
	}
	a := &Analysis{
		Result:      sink.result(),
		Plan:        out.plan,
		Calibration: cal,
		Metrics:     out.col,
		TraceJSON:   trace,
		Governance:  out.col.Gov(),
	}
	if !out.dist {
		// The cluster's root is not one timed operator; only a single-site
		// run has a root wall time to report.
		a.Duration = time.Duration(cal.TotalNanos)
	}
	return a, nil
}

// String renders the analysis the way EXPLAIN ANALYZE displays it: the plan
// tree with actual row counts, estimates and q-errors per node, the result
// cardinality, and the calibration summary.
func (a *Analysis) String() string {
	var sb strings.Builder
	sb.WriteString(algebra.Format(a.Plan, a.Calibration.Annotations()))
	fmt.Fprintf(&sb, "(%d rows)\n", len(a.Result.Rows))
	fmt.Fprintf(&sb, "join input rows: %d\n", a.Calibration.JoinInputRows)
	fmt.Fprintf(&sb, "max q-error: %.2f\n", a.Calibration.MaxQError)
	if cb := a.Calibration.CommBytes(); cb > 0 {
		fmt.Fprintf(&sb, "exchange bytes shipped: %d\n", cb)
	}
	if a.Duration > 0 {
		fmt.Fprintf(&sb, "total time: %v\n", a.Duration)
	}
	if a.Governance.BudgetBytes > 0 {
		fmt.Fprintf(&sb, "memory budget: %d bytes (high-water state %d bytes)\n",
			a.Governance.BudgetBytes, a.Governance.UsedBytes)
	}
	if a.Governance.SpillBytes > 0 {
		fmt.Fprintf(&sb, "spilled to disk: %d bytes\n", a.Governance.SpillBytes)
	}
	if a.Governance.Fallback {
		fmt.Fprintf(&sb, "fallback: %s\n", a.Governance.FallbackReason)
	}
	if a.Governance.LinkRetries > 0 || a.Governance.RedeliveriesDropped > 0 {
		fmt.Fprintf(&sb, "link retries: %d (%d redeliveries dropped)\n",
			a.Governance.LinkRetries, a.Governance.RedeliveriesDropped)
	}
	if a.Governance.Failovers > 0 {
		fmt.Fprintf(&sb, "node failovers: %d\n", a.Governance.Failovers)
	}
	if a.Governance.Degraded {
		fmt.Fprintf(&sb, "degraded: %s\n", a.Governance.DegradedReason)
	}
	return sb.String()
}

// DistributedEstimate is the Section 7 communication-cost analysis: the
// number of rows shipped to the remote join site under each plan when R1
// and R2 live at different sites.
type DistributedEstimate struct {
	// StandardRows is shipped by the standard plan: every σ[C1]R1 row.
	StandardRows float64
	// TransformedRows is shipped by the transformed plan: one row per
	// GA1+ group. It never exceeds StandardRows.
	TransformedRows float64
}

// EstimateDistributed computes the Section 7 distributed analysis for a
// transformable query. It errors when the query is outside the
// transformable class.
func (e *Engine) EstimateDistributed(query string) (DistributedEstimate, error) {
	q, err := sql.ParseQuery(query)
	if err != nil {
		return DistributedEstimate{}, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	b, err := e.opt.Planner().Bind(q)
	if err != nil {
		return DistributedEstimate{}, err
	}
	shape, err := core.Normalize(b, nil)
	if err != nil {
		return DistributedEstimate{}, err
	}
	model := core.NewCostModel(core.NewStoreStats(e.store), b)
	dc, err := model.EstimateDistributed(e.opt.Planner(), shape)
	if err != nil {
		return DistributedEstimate{}, err
	}
	return DistributedEstimate{
		StandardRows:    dc.StandardRowsShipped,
		TransformedRows: dc.TransformedRowsShipped,
	}, nil
}

func convertParams(params map[string]any) (expr.Params, error) {
	if len(params) == 0 {
		return nil, nil
	}
	out := make(expr.Params, len(params))
	for k, v := range params {
		switch x := v.(type) {
		case nil:
			out[k] = value.Null
		case int:
			out[k] = value.NewInt(int64(x))
		case int64:
			out[k] = value.NewInt(x)
		case float64:
			out[k] = value.NewFloat(x)
		case string:
			out[k] = value.NewString(x)
		case bool:
			out[k] = value.NewBool(x)
		default:
			return nil, fmt.Errorf("gbj: unsupported parameter type %T for :%s", v, k)
		}
	}
	return out, nil
}

// boxSink is the RowSink of the in-process SELECT entries: it boxes each
// row's cells into Go-native values as its chunk hands the row over, so no
// row of the engine's is kept for it. A chunk's cells are cut from pages sized
// as a value.Slab's — a run of rows is a few large objects, not one per row,
// and a chunk's pages are never more than twice what they hold — and the
// result's row headers are made once, at the end (result).
type boxSink struct {
	columns []string
	chunks  []boxedChunk
}

// boxedChunk is one chunk's cells: pages, each full but the last.
type boxedChunk struct {
	pages [][]any
	rows  int // rows handed over: the rows of the full pages and the last
}

func (s *boxSink) Start(columns []string) { s.columns, s.chunks = columns, nil }

func (s *boxSink) Begin(chunks int) { s.chunks = make([]boxedChunk, chunks) }

func (s *boxSink) Chunk(c int) func(value.Row) error {
	ch := &s.chunks[c]
	return func(row value.Row) error {
		last := len(ch.pages) - 1
		if last < 0 || len(ch.pages[last])+len(row) > cap(ch.pages[last]) {
			if last < 0 {
				ch.pages = make([][]any, 0, 8) // a morsel's pages: 8 + 8 + 16 + … + 512 rows
			}
			ch.pages = append(ch.pages, make([]any, 0, value.SlabPageRows(ch.rows)*len(row)))
			last++
		}
		page := ch.pages[last]
		for _, v := range row {
			var cell any
			switch v.Kind() {
			case value.KindInt:
				cell = v.Int()
			case value.KindFloat:
				cell = v.Float()
			case value.KindString:
				cell = v.Str()
			case value.KindBool:
				cell = v.Bool()
			}
			page = append(page, cell)
		}
		ch.pages[last] = page
		ch.rows++
		return nil
	}
}

// result is the boxed rows, chunk by chunk in order; an empty result keeps
// Rows nil.
func (s *boxSink) result() *Result {
	out := &Result{Columns: s.columns}
	n, width := 0, len(s.columns)
	for _, ch := range s.chunks {
		n += ch.rows
	}
	if n == 0 {
		return out
	}
	out.Rows = make([][]any, 0, n)
	for _, ch := range s.chunks {
		for _, page := range ch.pages {
			for ; len(page) > 0; page = page[width:] {
				out.Rows = append(out.Rows, page[:width:width])
			}
		}
	}
	return out
}
