package modelcheck

// The oracle matrix. Every execution path of the engine is held to one
// claim: a plan's rows are the rows of workload.RefEval, the naive reference
// evaluator, on the same store. A Cell is one row of the matrix — the
// settings its runs vary over, the faults they run under and what a clean
// run is compared with beyond the reference. Cells is the table; TestMatrix
// runs one subtest per cell, and the model checker runs the fault-free cells'
// variants on every tiny database it enumerates.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/plancheck"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// Faults is the kind of fault schedule a cell draws for each run.
type Faults uint8

const (
	NoFaults Faults = iota
	// RowFaults: cancel, panic, alloc-fail and delay events on the governed
	// row path (fault.NewSeeded).
	RowFaults
	// DiskFaults: failed, short and unreadable spill-file writes and failed
	// closes (fault.NewSeededDisk).
	DiskFaults
	// LinkFaults: link delays and drops mixed with row faults, on a cluster
	// with no recovery (fault.NewSeededLinks).
	LinkFaults
	// BoundedLinks: one to four faults keyed to link ordinals inside the run
	// (fault.NewSeededLinkOnly), fewer than the retry budget.
	BoundedLinks
	// LinkBursts: four consecutive link drops from a random ordinal, enough to
	// exhaust a node's retries and trip its breaker.
	LinkBursts
)

// Policy is the recovery policy a cell's cluster runs are under.
type Policy uint8

const (
	NoRecovery Policy = iota
	// Retry allows four to seven retries per shipment, more than any
	// BoundedLinks schedule holds, under the same breaker.
	Retry
	// Failover allows two retries, so a four-drop burst exhausts a node's
	// budget and the breaker (three consecutive failures) declares it dead.
	Failover
)

// Compare is what a clean run is held to beyond the reference: its rows
// equal RefEval's as a multiset of kind-tagged fingerprints, and in ORDER BY
// key sequence under an ORDER BY.
type Compare uint8

const (
	// InOrder: the rows, in order, of the fault-free one-worker row run of the
	// same plan and strategies.
	InOrder Compare = 1 << iota
	// Counts: that run's RowsOut and RowsIn at every plan node (not under a
	// LIMIT, whose early stop makes interior counts depend on the shape a mode
	// chose); and for a rename, whose rows are its input's, the RowsOut at
	// every node and the morsels at the rename of its own form's one-worker
	// run. Only a fault-free local cell's runs carry the metrics it reads.
	Counts
)

// A Variant is one execution of one plan. The zero Variant is the standard
// plan's run at one worker, in row form, locally, with the strategies chosen
// by cost and no budget.
type Variant struct {
	Transformed bool
	Workers     int
	Vectorize   bool
	Group       exec.GroupStrategy
	Nodes       int // 0 runs locally
	Strategy    dist.Strategy
	// Budget is the run's MemoryBudget; a cell's negative budget −m stands
	// for one drawn in [1, m] for each run.
	Budget int64
}

func (v Variant) String() string {
	plan, form := "standard", "row"
	if v.Transformed {
		plan = "transformed"
	}
	if v.Vectorize {
		form = "vec"
	}
	s := fmt.Sprintf("%s/%s/%dw/group=%v", plan, form, max(v.Workers, 1), v.Group)
	if v.Nodes > 0 {
		s += fmt.Sprintf("/%dn/%v", v.Nodes, v.Strategy)
	}
	if v.Budget != 0 {
		s += fmt.Sprintf("/budget=%d", v.Budget)
	}
	return s
}

// run executes the variant's plan — plans[1] if it is on the transformed
// plan — on store: locally, or compiled for a cluster of v.Nodes whose plan
// must pass plancheck's distributed rules.
func (v Variant) run(plans []algebra.Node, store *storage.Store, opts *exec.Options, rec *dist.Recovery) (*exec.Result, error) {
	plan := plans[0]
	if v.Transformed {
		plan = plans[1]
	}
	opts.Group, opts.Parallelism, opts.Vectorize, opts.MemoryBudget = v.Group, v.Workers, v.Vectorize, v.Budget
	if v.Nodes == 0 {
		return exec.Run(plan, store, opts)
	}
	dp, err := dist.Compile(plan, dist.Config{Nodes: v.Nodes, Strategy: v.Strategy})
	if err != nil {
		return nil, err
	}
	// The eager-cert rule needs the optimizer's certificates, which only the
	// engine translates onto a compiled plan.
	for _, vi := range plancheck.Check(dp.Root, nil) {
		if vi.Rule != "eager-cert" {
			return nil, fmt.Errorf("distributed plan violates %s: %w", vi.Rule, vi)
		}
	}
	cl, err := dist.NewCluster(store, v.Nodes, 0)
	if err != nil {
		return nil, err
	}
	return cl.RunRecover(dp, opts, rec)
}

// A Cell is one row of the oracle matrix.
type Cell struct {
	Name string
	// Seed seeds the cell's corpus draws, variant draws and fault schedules.
	Seed int64
	// Instances is how many corpus instances the cell runs at least, Short
	// how many under -short.
	Instances, Short int
	// Corpus draws the next instances.
	Corpus func(*rand.Rand) ([]workload.Instance, error)
	// Pipelines also runs workload.Pipelines after the drawn instances.
	Pipelines bool
	// The axes. An instance runs every combination of them, the standard
	// and the transformed plan included — or, when Draw is set, Draw
	// combinations drawn at random. An empty axis is the zero Variant's value.
	Workers    []int
	Vectorize  []bool
	Groups     []exec.GroupStrategy
	Nodes      []int
	Strategies []dist.Strategy
	Budgets    []int64
	Draw       int
	// Runs is how many fault schedules each variant runs under; at least one.
	Runs int
	// Spill gives every run a spill manager; none may leave a file behind.
	Spill    bool
	Faults   Faults
	Recovery Policy
	Compare  Compare
	// MinSpilled and MinFailovers are the least clean runs that spilled and
	// the least failovers the cell's runs must reach.
	MinSpilled   int
	MinFailovers int64
}

var (
	allGroups     = []exec.GroupStrategy{exec.GroupAuto, exec.GroupHash, exec.GroupSort}
	allStrategies = []dist.Strategy{dist.StrategyAuto, dist.StrategyEager, dist.StrategyLazy}
	bothForms     = []bool{false, true}
)

// Cells is the oracle matrix. A new cross-feature combination is one more row.
var Cells = []Cell{
	{Name: "reference", Seed: 42, Instances: 1500, Short: 200, Corpus: workload.RandomPlan,
		Workers: []int{1, 3}, Groups: allGroups},
	{Name: "local", Seed: 19940301, Instances: 200, Short: 40, Corpus: workload.Draw, Pipelines: true,
		Workers: []int{1, 2, 3, 4, 8}, Vectorize: bothForms, Groups: allGroups,
		Compare: InOrder | Counts},
	{Name: "chaos", Seed: 0xC4A05, Instances: 200, Short: 40, Corpus: workload.Draw, Draw: 1, Runs: 4,
		Workers: []int{1, 4}, Vectorize: bothForms, Groups: allGroups, Budgets: []int64{0, 0, -1 << 14},
		Faults: RowFaults, Compare: InOrder},
	{Name: "spill", Seed: 0xD15C0AC, Instances: 200, Short: 40, Corpus: workload.Draw, Draw: 7,
		Workers: []int{1, 4}, Vectorize: bothForms, Budgets: []int64{-8 << 10, 64 << 10, 0},
		Spill: true, Faults: DiskFaults, Compare: InOrder, MinSpilled: 1},
	{Name: "cluster", Seed: 0xD157, Instances: 200, Short: 40, Corpus: workload.Draw, Draw: 4,
		Workers: []int{1, 4}, Nodes: []int{1, 2, 4, 8}, Strategies: allStrategies},
	{Name: "cluster-chaos", Seed: 0xC4A05D, Instances: 60, Short: 15, Corpus: workload.Draw, Draw: 1, Runs: 5,
		Workers: []int{1, 4}, Nodes: []int{2, 4, 8}, Strategies: allStrategies, Budgets: []int64{0, 0, -1 << 14},
		Faults: LinkFaults},
	{Name: "recovery", Seed: 0x5EC0, Instances: 200, Short: 30, Corpus: workload.Draw, Draw: 1, Runs: 2,
		Workers: []int{1, 4}, Nodes: []int{2, 4, 8}, Strategies: allStrategies,
		Faults: BoundedLinks, Recovery: Retry},
	{Name: "recovery-lease", Seed: 0x1EA5E, Instances: 100, Short: 15, Corpus: workload.Draw, Draw: 1, Runs: 2,
		Workers: []int{1, 4}, Nodes: []int{2, 4, 8}, Strategies: allStrategies, Budgets: []int64{64 << 10},
		Faults: BoundedLinks, Recovery: Retry},
	{Name: "failover", Seed: 0xFA11, Instances: 60, Short: 15, Corpus: workload.Draw, Draw: 1, Runs: 2,
		Workers: []int{1, 4}, Nodes: []int{2, 4, 8}, Strategies: allStrategies,
		Faults: LinkBursts, Recovery: Failover, MinFailovers: 1},
}

// Tally counts what a cell ran.
type Tally struct {
	Instances, Runs, Clean, Typed, Spilled int
	Retries, Failovers                     int64
}

func (t Tally) String() string {
	return fmt.Sprintf("%d instances, %d runs: %d clean (%d spilled), %d typed errors; %d retries, %d failovers",
		t.Instances, t.Runs, t.Clean, t.Spilled, t.Typed, t.Retries, t.Failovers)
}

// axis turns one axis's values into setters; an empty axis has none.
func axis[T any](vals []T, set func(*Variant, T)) []func(*Variant) {
	out := make([]func(*Variant), len(vals))
	for i, x := range vals {
		out[i] = func(v *Variant) { set(v, x) }
	}
	return out
}

// axes lists the cell's axes for one query's plans, the plan first: the
// standard plan and, when there is one, the transformed. A group strategy on
// plans without a GroupBy changes nothing, so its axis keeps one value; so
// does a rename's, which tests the hand-over above an input whose strategies
// the corpus sweeps without the rename.
func (c *Cell) axes(plans []algebra.Node, rename bool) [][]func(*Variant) {
	groups := c.Groups
	if rename || !holds(plans, func(n algebra.Node) bool { _, ok := n.(*algebra.GroupBy); return ok }) {
		groups = groups[:min(len(groups), 1)]
	}
	return [][]func(*Variant){
		axis([]bool{false, true}[:len(plans)], func(v *Variant, x bool) { v.Transformed = x }),
		axis(c.Workers, func(v *Variant, x int) { v.Workers = x }),
		axis(c.Vectorize, func(v *Variant, x bool) { v.Vectorize = x }),
		axis(groups, func(v *Variant, x exec.GroupStrategy) { v.Group = x }),
		axis(c.Nodes, func(v *Variant, x int) { v.Nodes = x }),
		axis(c.Strategies, func(v *Variant, x dist.Strategy) { v.Strategy = x }),
		axis(c.Budgets, func(v *Variant, x int64) { v.Budget = x }),
	}
}

func holds(plans []algebra.Node, pred func(algebra.Node) bool) bool {
	found := false
	for _, p := range plans {
		algebra.Walk(p, func(n algebra.Node) { found = found || pred(n) })
	}
	return found
}

// variants are the runs of one instance: every combination of the axes, or
// Draw of them drawn at random.
func (c *Cell) variants(r *rand.Rand, plans []algebra.Node, rename bool) []Variant {
	axes := c.axes(plans, rename)
	if c.Draw > 0 {
		out := make([]Variant, c.Draw)
		for i := range out {
			for _, a := range axes {
				if len(a) > 0 {
					a[r.Intn(len(a))](&out[i])
				}
			}
		}
		return out
	}
	out := []Variant{{}}
	for _, a := range axes {
		if len(a) == 0 {
			continue
		}
		next := make([]Variant, 0, len(out)*len(a))
		for _, v := range out {
			for _, set := range a {
				w := v
				set(&w)
				next = append(next, w)
			}
		}
		out = next
	}
	return out
}

// oneAxisAtATime is the cell's first variant of each plan — every axis at its
// first value — and every variant that differs from it in one axis.
func (c *Cell) oneAxisAtATime(plans []algebra.Node) []Variant {
	axes := c.axes(plans, false)
	var base Variant
	for _, a := range axes[1:] {
		if len(a) > 0 {
			a[0](&base)
		}
	}
	var out []Variant
	for _, set := range axes[0] {
		first := base
		set(&first)
		out = append(out, first)
		for _, a := range axes[1:] {
			for _, other := range a[min(len(a), 1):] {
				v := first
				other(&v)
				out = append(out, v)
			}
		}
	}
	return out
}

// modelVariants are the model checker's executions of a query's plans: the
// fault-free cells' variants one axis at a time, each once.
func modelVariants(plans []algebra.Node) []Variant {
	var out []Variant
	for i := range Cells {
		c := &Cells[i]
		if c.Faults != NoFaults || c.Spill || len(c.Budgets) > 0 {
			continue
		}
		for _, v := range c.oneAxisAtATime(plans) {
			if !slices.Contains(out, v) {
				out = append(out, v)
			}
		}
	}
	return out
}

// plans optimizes a query and returns its standard plan, then its
// transformed one when TestFD allows it. check turns on the optimizer's
// static audit of every plan it emits (the TestFD certificate included).
func plans(store *storage.Store, query string, check bool) ([]algebra.Node, error) {
	q, err := sql.ParseQuery(query)
	if err != nil {
		return nil, fmt.Errorf("parse %q: %w", query, err)
	}
	o := core.NewOptimizer(store)
	o.CheckPlans = check
	rep, err := o.Optimize(q)
	if err != nil {
		return nil, fmt.Errorf("optimize %q: %w", query, err)
	}
	if rep.Alternative == nil {
		return []algebra.Node{rep.Standard}, nil
	}
	return []algebra.Node{rep.Standard, rep.Alternative}, nil
}

// Plans is plans with the audit on: the optimizer's standard plan for the
// query, then its transformed one when TestFD allows it.
func Plans(store *storage.Store, query string) ([]algebra.Node, error) {
	return plans(store, query, true)
}

// isRename reports whether n is the paper's π_A as a pure rename: every
// input column, in order, under any name.
func isRename(n algebra.Node) bool {
	p, ok := n.(*algebra.Project)
	if !ok || p.Distinct || len(p.Items) != len(p.Input.Schema()) {
		return false
	}
	for j, item := range p.Items {
		if c, ok := item.E.(*expr.ColumnRef); !ok || c.ID != p.Input.Schema()[j].ID {
			return false
		}
	}
	return true
}

// renameShape reports whether n is a rename over one of the inputs the
// corpus's rename instances stand for: the optimizer's own rename over a
// GroupBy or a Scan, or a rename put by hand over an input the optimizer
// never renames.
func renameShape(n algebra.Node) bool {
	if !isRename(n) {
		return false
	}
	switch in := n.(*algebra.Project).Input.(type) {
	case *algebra.GroupBy, *algebra.Scan:
		return true
	default:
		return handPut(in)
	}
}

// handPut reports whether n is an input a rename instance puts its rename
// over by hand: a DISTINCT project or a Limit over a Sort.
func handPut(n algebra.Node) bool {
	switch n := n.(type) {
	case *algebra.Project:
		return n.Distinct
	case *algebra.Limit:
		_, ok := n.Input.(*algebra.Sort)
		return ok
	}
	return false
}

func renameOver(in algebra.Node) algebra.Node {
	items := make([]algebra.ProjItem, len(in.Schema()))
	for i, c := range in.Schema() {
		items[i] = algebra.ProjItem{E: expr.Column(c.ID.Table, c.ID.Name), As: expr.ColumnID{Name: fmt.Sprintf("r%d", i)}}
	}
	return &algebra.Project{Input: in, Items: items}
}

// orderKeys renders the ORDER BY key of every row, in row order, for a plan
// whose root is a Sort (looking through a LIMIT); nil for an unordered plan.
// Strategies may order tied rows differently, but never the keys.
func orderKeys(plan algebra.Node, rows []value.Row) []string {
	if l, ok := plan.(*algebra.Limit); ok {
		plan = l.Input
	}
	s, ok := plan.(*algebra.Sort)
	if !ok {
		return nil
	}
	cols := make([]int, len(s.Keys))
	for i, k := range s.Keys {
		cols[i], _ = s.Input.Schema().IndexOf(k.Col)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = value.GroupKey(r, cols)
	}
	return out
}

// typedFailure reports whether err is a typed failure a governed run may
// end in under injected faults.
func typedFailure(err error) bool {
	var fe *fault.Error
	var re *exec.ResourceError
	var pe *exec.ExecPanicError
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.As(err, &fe) || errors.As(err, &re) || errors.As(err, &pe)
}

// allowed reports whether a run of the cell may end in err.
func (c *Cell) allowed(err error) bool {
	var se *exec.SpillError
	var ue *dist.UnavailableError
	switch c.Faults {
	case RowFaults, LinkFaults:
		return typedFailure(err)
	case DiskFaults:
		return typedFailure(err) || errors.As(err, &se)
	case LinkBursts:
		return errors.As(err, &ue)
	}
	return false
}

// Run runs the cell: for each instance of its corpus the reference once, then
// every variant against it. It returns the cell's tally, or the first
// disagreement with its cell, query, plan, variant and fault schedule.
func (c *Cell) Run(short bool) (Tally, error) {
	var tally Tally
	r := rand.New(rand.NewSource(c.Seed))
	goroutines := runtime.NumGoroutine()
	var spillDir string
	if c.Spill {
		dir, err := os.MkdirTemp("", "matrix-spill-")
		if err != nil {
			return tally, err
		}
		defer os.RemoveAll(dir)
		spillDir = dir
	}
	target := c.Instances
	if short {
		target = c.Short
	}
	runAll := func(instances []workload.Instance) error {
		for _, in := range instances {
			t, err := c.newTrial(in, spillDir)
			if err != nil {
				return err
			}
			for _, v := range c.variants(r, t.plans, in.Rename) {
				for range max(c.Runs, 1) {
					if err := t.run(r, v, &tally); err != nil {
						return err
					}
				}
			}
			tally.Instances++
		}
		return nil
	}
	for tally.Instances < target {
		instances, err := c.Corpus(r)
		if err != nil {
			return tally, err
		}
		if err := runAll(instances); err != nil {
			return tally, err
		}
	}
	if c.Pipelines {
		instances, err := workload.Pipelines(r, exec.MorselSize)
		if err != nil {
			return tally, err
		}
		if err := runAll(instances); err != nil {
			return tally, err
		}
	}
	if c.Faults != NoFaults {
		if err := settle(goroutines); err != nil {
			return tally, fmt.Errorf("cell %s: %w", c.Name, err)
		}
	}
	if tally.Spilled < c.MinSpilled || tally.Failovers < c.MinFailovers {
		return tally, fmt.Errorf("cell %s fell short of its floor (%d spilled, %d failovers): %v", c.Name, c.MinSpilled, c.MinFailovers, tally)
	}
	return tally, nil
}

// settle waits for every worker, site and drain goroutine of the faulted runs
// to be gone: the goroutine count back at (or near) where it started.
func settle(baseline int) error {
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutines did not settle: %d before, %d after", baseline, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil
}

// A trial is one instance under one cell: its plans, its reference and the
// fault-free local runs the cell compares with.
type trial struct {
	c        *Cell
	in       workload.Instance
	plans    []algebra.Node
	want     []string // RefEval's rows, as a multiset
	wantKeys []string // and their ORDER BY keys, in order
	spillDir string
	local    map[Variant]*outcome
	horizons map[Variant]int64 // link ordinals of a variant's fault-free run
}

// outcome is a fault-free local run's rows and its metrics.
type outcome struct {
	rows []value.Row
	col  *obs.Collector
}

func (c *Cell) newTrial(in workload.Instance, spillDir string) (*trial, error) {
	t := &trial{c: c, in: in, spillDir: spillDir, local: map[Variant]*outcome{}, horizons: map[Variant]int64{}}
	if in.Plan != nil {
		t.plans = []algebra.Node{in.Plan}
	} else {
		ps, err := Plans(in.Store, in.Query)
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", c.Name, err)
		}
		t.plans = ps
		if in.Rename {
			if handPut(ps[0]) {
				ps[0] = renameOver(ps[0])
			}
			if !renameShape(ps[0]) {
				return nil, fmt.Errorf("cell %s: %s is not a rename over a GroupBy, a Scan, a DISTINCT project or a Limit over a Sort:\n%s",
					c.Name, t.query(), algebra.Format(ps[0], nil))
			}
			t.plans = ps[:1]
		}
	}
	rows, err := workload.RefEval(t.plans[0], in.Store, nil)
	if err != nil {
		return nil, fmt.Errorf("cell %s: reference for %s: %w", c.Name, t.query(), err)
	}
	t.want, t.wantKeys = workload.Multiset(rows), orderKeys(t.plans[0], rows)
	if in.Rename && c.Compare&Counts != 0 {
		// A rename's rows are its input's, in their order.
		input, err := exec.Run(t.plans[0].(*algebra.Project).Input, in.Store, nil)
		if err != nil {
			return nil, err
		}
		one, err := t.base(Variant{Workers: 1})
		if err != nil {
			return nil, err
		}
		if !workload.SameRows(input.Rows, one.rows) {
			return nil, t.fail(Variant{Workers: 1}, nil, "the rename's rows are not its input's")
		}
	}
	return t, nil
}

// plan is the plan v runs.
func (t *trial) plan(v Variant) algebra.Node {
	if v.Transformed {
		return t.plans[1]
	}
	return t.plans[0]
}

func (t *trial) query() string {
	if t.in.Plan != nil {
		return "\n" + algebra.Format(t.in.Plan, nil)
	}
	return strings.Join(strings.Fields(t.in.Query), " ")
}

func (t *trial) fail(v Variant, schedule []fault.Event, format string, args ...any) error {
	msg := fmt.Sprintf("cell %s, variant %s\nquery: %s", t.c.Name, v, t.query())
	if schedule != nil {
		msg += fmt.Sprintf("\nschedule: %v", schedule)
	}
	return errors.New(msg + "\n" + fmt.Sprintf(format, args...))
}

// base runs v locally with no budget and no faults, with metrics, once per
// trial, and holds its rows to the reference.
func (t *trial) base(v Variant) (*outcome, error) {
	v.Workers = max(v.Workers, 1)
	if o, ok := t.local[v]; ok {
		return o, nil
	}
	col := obs.NewCollector()
	res, err := v.run(t.plans, t.in.Store, &exec.Options{Metrics: col}, nil)
	if err != nil {
		return nil, t.fail(v, nil, "fault-free run: %v", err)
	}
	o := &outcome{rows: res.Rows, col: col}
	if err := t.reference(v, o.rows, nil); err != nil {
		return nil, err
	}
	t.local[v] = o
	return o, nil
}

// reference holds a run's rows to RefEval's: the same multiset, in the same
// ORDER BY key sequence.
func (t *trial) reference(v Variant, rows []value.Row, schedule []fault.Event) error {
	got := workload.Multiset(rows)
	if !slices.Equal(got, t.want) {
		return t.fail(v, schedule, "rows differ from the reference\nreference (%d rows): %v\nrun (%d rows): %v", len(t.want), t.want, len(got), got)
	}
	if keys := orderKeys(t.plan(v), rows); !slices.Equal(keys, t.wantKeys) {
		return t.fail(v, schedule, "ORDER BY key sequence differs from the reference\nreference: %q\nrun: %q", t.wantKeys, keys)
	}
	return nil
}

// check holds a clean run's rows to the reference — through the one-worker
// row run of its plan and strategies, when the cell compares with that run in
// order.
func (t *trial) check(v Variant, rows []value.Row, col *obs.Collector, schedule []fault.Event) error {
	if t.c.Compare == 0 {
		return t.reference(v, rows, schedule)
	}
	plan := t.plan(v)
	base, err := t.base(Variant{Transformed: v.Transformed, Group: v.Group})
	if err != nil {
		return err
	}
	if !workload.SameRows(rows, base.rows) {
		return t.fail(v, schedule, "rows differ from the one-worker row run's in order\none worker (%d rows): %v\nrun (%d rows): %v",
			len(base.rows), workload.Fingerprint(base.rows), len(rows), workload.Fingerprint(rows))
	}
	if t.c.Compare&Counts == 0 {
		return nil
	}
	limited := false
	algebra.Walk(plan, func(n algebra.Node) {
		_, ok := n.(*algebra.Limit)
		limited = limited || ok
	})
	var one *outcome
	if t.in.Rename {
		if one, err = t.base(Variant{Transformed: v.Transformed, Vectorize: v.Vectorize, Group: v.Group}); err != nil {
			return err
		}
		if got, want := col.Lookup(plan).Batches.Load(), one.col.Lookup(plan).Batches.Load(); got != want {
			return t.fail(v, nil, "the rename took %d morsels, one worker in its form %d", got, want)
		}
	}
	var bad error
	algebra.Walk(plan, func(n algebra.Node) {
		m, bm := col.Lookup(n), base.col.Lookup(n)
		switch {
		case bad != nil:
		case m == nil || bm == nil:
			bad = t.fail(v, nil, "%s missing from the metrics", n.Describe())
		case !limited && (m.RowsOut.Load() != bm.RowsOut.Load() || m.RowsIn.Load() != bm.RowsIn.Load()):
			bad = t.fail(v, nil, "%s rows in/out %d/%d, one worker in row form %d/%d",
				n.Describe(), m.RowsIn.Load(), m.RowsOut.Load(), bm.RowsIn.Load(), bm.RowsOut.Load())
		case one != nil && m.RowsOut.Load() != one.col.Lookup(n).RowsOut.Load():
			bad = t.fail(v, nil, "%s RowsOut %d, one worker in its form %d", n.Describe(), m.RowsOut.Load(), one.col.Lookup(n).RowsOut.Load())
		}
	})
	return bad
}

// run runs one variant of the trial under a fault schedule drawn from r and
// holds its outcome to the cell's contract.
func (t *trial) run(r *rand.Rand, v Variant, tally *Tally) error {
	c := t.c
	if v.Budget < 0 {
		v.Budget = 1 + r.Int63n(-v.Budget)
	}
	if c.Faults == NoFaults && v.Nodes == 0 && v.Budget == 0 && c.Compare != 0 {
		o, err := t.base(v)
		if err != nil {
			return err
		}
		tally.Runs++
		tally.Clean++
		return t.check(v, o.rows, o.col, nil)
	}
	opts := &exec.Options{}
	var rec *dist.Recovery
	var stats dist.RecoveryStats
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seed := r.Int63()
	switch c.Faults {
	case RowFaults:
		opts.Faults = fault.NewSeeded(seed, 2000, 4)
	case DiskFaults:
		opts.Faults = fault.NewSeededDisk(seed, 2000, 4)
	case LinkFaults:
		opts.Faults = fault.NewSeededLinks(seed, 3000, 4)
	case BoundedLinks, LinkBursts:
		// Schedules are link ordinals inside the run: count them on a
		// fault-free run first.
		horizon, ok := t.horizons[v]
		if !ok {
			probe := fault.New(nil)
			if _, err := v.run(t.plans, t.in.Store, &exec.Options{Faults: probe}, nil); err != nil {
				return t.fail(v, nil, "fault-free probe run: %v", err)
			}
			horizon = probe.LinkTicks()
			t.horizons[v] = horizon
		}
		if horizon == 0 {
			return nil // nothing crossed a link: nothing to fault
		}
		clock := obs.NewFakeClock(time.Unix(0, 0), time.Millisecond)
		opts.Clock = clock
		rec = &dist.Recovery{Stats: &stats}
		if c.Faults == BoundedLinks {
			opts.Faults = fault.NewSeededLinkOnly(seed, horizon, 1+r.Intn(4)).WithClock(clock)
		} else {
			start := 1 + r.Int63n(horizon)
			burst := make([]fault.Event, 4)
			for i := range burst {
				burst[i] = fault.Event{Tick: start + int64(i), Kind: fault.LinkDrop}
			}
			opts.Faults = fault.NewLinkSchedule(burst).WithClock(clock)
		}
		if c.Recovery == Failover {
			rec.LinkRetries = 2
		} else {
			rec.LinkRetries = 4 + r.Intn(4)
		}
	}
	if opts.Faults != nil && rec == nil {
		// A seeded schedule's cancel event cancels the run's context.
		opts.Context = ctx
		opts.Faults.WithCancel(cancel).WithDelay(20 * time.Microsecond)
	}
	var mgr *storage.SpillManager
	if c.Spill {
		mgr = storage.NewSpillManager(t.spillDir)
		opts.Spill, opts.Metrics = mgr, obs.NewCollector()
	}
	res, err := v.run(t.plans, t.in.Store, opts, rec)
	var schedule []fault.Event
	if opts.Faults != nil {
		schedule = opts.Faults.Events()
	}
	tally.Runs++
	switch {
	case err != nil && res != nil:
		return t.fail(v, schedule, "a failed run returned a partial result: %v", err)
	case err != nil && !c.allowed(err):
		return t.fail(v, schedule, "run failed with %T: %v", err, err)
	case err != nil:
		tally.Typed++
	default:
		tally.Clean++
		if opts.Metrics != nil && opts.Metrics.Gov().SpillBytes > 0 {
			tally.Spilled++
		}
		if err := t.check(v, res.Rows, nil, schedule); err != nil {
			return err
		}
	}
	if mgr != nil {
		if n := mgr.Live(); n != 0 {
			return t.fail(v, schedule, "%d spill files outlived the run (err=%v)", n, err)
		}
		if err := mgr.Cleanup(); err != nil {
			return err
		}
	}
	if rec != nil {
		drops := 0
		for _, e := range schedule {
			if e.Kind == fault.LinkDrop {
				drops++
			}
		}
		if drops > 0 && stats.Retries.Load()+stats.RedeliveriesDropped.Load()+stats.Failovers.Load() == 0 {
			return t.fail(v, schedule, "%d scheduled drops, but no recovery counter moved", drops)
		}
		tally.Retries += stats.Retries.Load()
		tally.Failovers += stats.Failovers.Load()
	}
	return nil
}
