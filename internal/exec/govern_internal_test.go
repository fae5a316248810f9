package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/value"
)

// These tests pin the lifecycle-governance layer: no governance option set
// means no governor and nothing metered; a cancelled context
// aborts within a bounded number of row events; a memory budget trips a
// typed *ResourceError on the exact allocation that crosses it; and a panic
// anywhere inside execution surfaces as a typed *ExecPanicError with every
// worker goroutine joined.

// keyedValuesPlan builds an n-row two-column (k, v) Values node with k
// cycling through `keys` distinct values.
func keyedValuesPlan(table string, n, keys int) *algebra.Values {
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i % keys)), value.NewInt(int64(i))}
	}
	return &algebra.Values{
		Cols: algebra.Schema{
			{ID: expr.ColumnID{Table: table, Name: "k"}, Type: value.KindInt},
			{ID: expr.ColumnID{Table: table, Name: "v"}, Type: value.KindInt},
		},
		Rows: rows,
	}
}

// groupPlan aggregates SUM(v) per k over keyedValuesPlan rows.
func govGroupPlan(n, keys int) *algebra.GroupBy {
	return &algebra.GroupBy{
		Input:     keyedValuesPlan("t", n, keys),
		GroupCols: []expr.ColumnID{{Table: "t", Name: "k"}},
		Aggs: []algebra.AggItem{{
			E:  &expr.Aggregate{Func: expr.AggSum, Arg: expr.Column("t", "v")},
			As: expr.ColumnID{Name: "s"},
		}},
	}
}

// joinPlan equi-joins two keyed Values inputs on k.
func govJoinPlan(n, keys int) *algebra.Join {
	return &algebra.Join{
		L:    keyedValuesPlan("l", n, keys),
		R:    keyedValuesPlan("r", n, keys),
		Cond: expr.Eq(expr.Column("l", "k"), expr.Column("r", "k")),
	}
}

// TestGovernanceDisabledInsertsNoWrapper: with no context, budget or fault
// injector — including a plain context.Background(), which can never be
// cancelled — there is no governor, and compile meters nothing: no source and
// no stage ticks. Any real governance option makes a governor, and every node
// is metered — the leaf on the runner, the filter on its stage — though no
// observability sink is on.
func TestGovernanceDisabledInsertsNoWrapper(t *testing.T) {
	compile := func(opts *Options) *pipeOp {
		c := &compiler{opts: opts, par: 1, clock: nil}
		c.gov = newGovernor(opts)
		out, err := bindPlan(c, filterOf(valuesPlan(3), "t"))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for name, opts := range map[string]*Options{
		"zero-options":       {},
		"background-context": {Context: context.Background()},
	} {
		if p := compile(opts); p.gov != nil || metered(p) {
			t.Errorf("%s: compile made a governor (%v) or metered a node with governance off", name, p.gov != nil)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, opts := range map[string]*Options{
		"cancelable-context": {Context: ctx},
		"memory-budget":      {MemoryBudget: 1 << 20},
		"fault-injector":     {Faults: fault.New(nil)},
	} {
		if p := compile(opts); p.gov == nil || !p.srcMetered || len(p.stages) != 1 || !p.stages[0].metered {
			t.Errorf("%s: compile made governor %v, metered the leaf %v and the stages %v: want a governor and both metered", name, p.gov, p.srcMetered, p.stages)
		}
	}
}

// TestGovernedRowPathZeroAllocs: the governed row path — a context poll per
// row and budget accounting — allocates nothing per row, just like the
// instrumented metrics path: a whole Run allocates as often over four times
// the rows, give or take the race runtime's own.
func TestGovernedRowPathZeroAllocs(t *testing.T) {
	const small, large, perMorsel = 10 * MorselSize, 40 * MorselSize, 24
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := func() *Options { return &Options{Context: ctx, MemoryBudget: 1 << 30} }
	for _, tc := range []struct {
		name    string
		plan    func(n int) algebra.Node
		morsels bool // each morsel grows a collected output slice of its own
	}{
		{"scan", func(n int) algebra.Node { return valuesPlan(n) }, false},
		{"scan → filter", func(n int) algebra.Node { return filterOf(valuesPlan(n), "t") }, true},
	} {
		got := runAllocs(t, tc.plan(large), opts, large) - runAllocs(t, tc.plan(small), opts, small)
		want := float64(perMorsel)
		if tc.morsels {
			want += float64(perMorsel * (large - small) / MorselSize)
		}
		if got > want {
			t.Errorf("%s: %d more governed rows allocate %.0f times more, want at most %.0f (none per row)", tc.name, large-small, got, want)
		}
	}
}

// TestCancelledContextFailsFast: a context cancelled before Run starts
// yields context.Canceled without executing anything.
func TestCancelledContextFailsFast(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 4} {
		res, err := Run(govGroupPlan(10_000, 100), nil, &Options{Context: ctx, Parallelism: par})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("par=%d: err = %v, want context.Canceled", par, err)
		}
		if res != nil {
			t.Fatalf("par=%d: cancelled run returned a result", par)
		}
	}
}

// TestInjectedCancelStopsAtItsTick: a Cancel fault at row-event N must abort
// the query at that event — under an injector every tick polls the context
// exactly, so not one row event runs past the cancel.
func TestInjectedCancelStopsAtItsTick(t *testing.T) {
	const cancelAt = 5000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := fault.New([]fault.Event{{Tick: cancelAt, Kind: fault.Cancel}}).WithCancel(cancel)
	_, err := Run(govGroupPlan(100_000, 1000), nil, &Options{Context: ctx, Faults: inj})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The cancelling event's own tick sees the context done.
	if got := inj.Ticks(); got != cancelAt {
		t.Fatalf("query ran %d row events past the cancel, want 0", got-cancelAt)
	}
}

// TestCancelStopsUninjectedRun: without an injector a tick is a load of the
// flag the context's callback raises. A keyless join of one morsel of left
// rows against 100 000 right rows — over 10⁸ row events, each a tick of the
// probe's one chain and a condition that never holds, in a single chunk, so
// no boundary poll comes before the end — is cancelled from another
// goroutine 20 ms in and returns context.Canceled long before it could have
// finished, at one worker and at two. A run that finished would return no
// error.
func TestCancelStopsUninjectedRun(t *testing.T) {
	plan := &algebra.Join{
		L:    keyedValuesPlan("l", MorselSize, 10),
		R:    keyedValuesPlan("r", 100_000, 10),
		Cond: expr.NewBinary(expr.OpLt, expr.Column("l", "v"), expr.IntLit(0)),
	}
	for _, par := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(20*time.Millisecond, cancel)
		start := time.Now()
		_, err := Run(plan, nil, &Options{Context: ctx, Parallelism: par})
		elapsed := time.Since(start)
		timer.Stop()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("par=%d: err = %v, want context.Canceled", par, err)
		}
		// As generous as TestDeadlineAbortsLongScanEarly's bound.
		if elapsed > 5*time.Second {
			t.Fatalf("par=%d: the cancelled run took %v", par, elapsed)
		}
	}
}

// hookCountingContext is a cancellable context that keeps the callbacks
// context.AfterFunc registers on it — AfterFunc hands them to a context's own
// AfterFunc method when it has one — so a test can count those still hooked.
type hookCountingContext struct {
	context.Context // Background: no deadline, no values
	done            chan struct{}
	mu              sync.Mutex
	hooks           map[int]func()
	registered      int
}

func newHookCountingContext() *hookCountingContext {
	return &hookCountingContext{Context: context.Background(), done: make(chan struct{}), hooks: map[int]func(){}}
}

func (c *hookCountingContext) Done() <-chan struct{} { return c.done }

func (c *hookCountingContext) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

func (c *hookCountingContext) AfterFunc(f func()) (stop func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.registered
	c.registered++
	c.hooks[id] = f
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, hooked := c.hooks[id]
		delete(c.hooks, id)
		return hooked
	}
}

// cancel closes the context and runs every callback still hooked, returning
// how many ran.
func (c *hookCountingContext) cancel() int {
	close(c.done)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.hooks {
		f()
	}
	return len(c.hooks)
}

// TestGovernorUnhooksAtRunEnd: every governed run hooks a callback onto its
// context and takes it off when it returns, so 10 000 runs on one long-lived
// context leave nothing on it, and cancelling it afterwards raises no
// governor's flag.
func TestGovernorUnhooksAtRunEnd(t *testing.T) {
	const runs = 10_000
	ctx := newHookCountingContext()
	plan := valuesPlan(3)
	for i := 0; i < runs; i++ {
		if _, err := Run(plan, nil, &Options{Context: ctx}); err != nil {
			t.Fatal(err)
		}
	}
	if ctx.registered != runs {
		t.Fatalf("%d runs hooked %d callbacks, want one each", runs, ctx.registered)
	}
	if ran := ctx.cancel(); ran != 0 {
		t.Fatalf("cancelling the context after %d runs raised %d governors' flags, want 0", runs, ran)
	}
}

// TestDeadlineAbortsLongScanEarly: a query that would run for minutes
// (every row event carries an injected delay) aborts with
// context.DeadlineExceeded shortly after its deadline expires.
func TestDeadlineAbortsLongScanEarly(t *testing.T) {
	const n = 50_000
	events := make([]fault.Event, n)
	for i := range events {
		events[i] = fault.Event{Tick: int64(i + 1), Kind: fault.Delay}
	}
	// One millisecond per row event: an ungoverned run would take ~50s.
	inj := fault.New(events).WithDelay(time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Run(govGroupPlan(n, 100), nil, &Options{Context: ctx, Faults: inj})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// Worst case: the deadline plus the one delayed event (~1ms) in flight
	// when it expires. 5s leaves three orders of magnitude slack
	// for CI scheduling while still proving the scan did not run to
	// completion.
	if elapsed > 5*time.Second {
		t.Fatalf("deadline-bound query took %v, want well under the ~50s full run", elapsed)
	}
}

// TestBudgetTripsTypedError: executions whose operator state crosses the
// budget fail with *ResourceError naming the operator, for the grouping and
// the hash-join state — a join without an equi-key, a theta join or a
// Product, builds the same join table — serial and parallel.
func TestBudgetTripsTypedError(t *testing.T) {
	cases := []struct {
		name string
		plan algebra.Node
	}{
		{"group-by", govGroupPlan(20_000, 5000)},
		{"hash-join", govJoinPlan(5000, 2500)},
		{"theta-join", thetaJoin(govJoinPlan(500, 250))},
		{"product", &algebra.Product{L: keyedValuesPlan("l", 50, 50), R: keyedValuesPlan("r", 500, 50)}},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par=%d", tc.name, par), func(t *testing.T) {
				res, err := Run(tc.plan, nil, &Options{MemoryBudget: 4096, Parallelism: par})
				var re *ResourceError
				if !errors.As(err, &re) {
					t.Fatalf("err = %v, want *ResourceError", err)
				}
				if res != nil {
					t.Fatal("over-budget run returned a result")
				}
				if re.Budget != 4096 || re.Used <= re.Budget || re.Op != tc.plan.Describe() {
					t.Fatalf("ResourceError fields: %+v", re)
				}
				// The same plan under a generous budget succeeds and reports
				// a high-water mark above the tripping budget.
				if _, err := Run(tc.plan, nil, &Options{MemoryBudget: 1 << 30, Parallelism: par}); err != nil {
					t.Fatalf("generous budget: %v", err)
				}
			})
		}
	}
}

// TestInjectedPanicContainedSerial: a panic mid-execution on the serial
// path surfaces as *ExecPanicError (Worker -1) carrying the injected
// *fault.PanicValue, not a process crash.
func TestInjectedPanicContainedSerial(t *testing.T) {
	inj := fault.New([]fault.Event{{Tick: 500, Kind: fault.Panic}})
	_, err := Run(govGroupPlan(10_000, 100), nil, &Options{Faults: inj})
	var pe *ExecPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ExecPanicError", err)
	}
	if pe.Worker != -1 {
		t.Fatalf("serial panic reports worker %d, want -1", pe.Worker)
	}
	pv, ok := pe.Value.(*fault.PanicValue)
	if !ok || pv.Tick != 500 {
		t.Fatalf("contained value %T (%v), want the injected *fault.PanicValue", pe.Value, pe.Value)
	}
	if pe.Op == "" || len(pe.Stack) == 0 {
		t.Fatalf("ExecPanicError missing context: %+v", pe)
	}
}

// TestInjectedPanicContainedWorker: a panic inside a morsel worker is
// recovered by the pool (goSafe), reports the worker id and the pipeline's
// node, and still joins every goroutine.
func TestInjectedPanicContainedWorker(t *testing.T) {
	const n = 8 * MorselSize
	// The filter input drains serially first (n+1 governed pulls); a tick
	// beyond that lands inside the morsel workers' per-row loop.
	plan := &algebra.Select{
		Input: keyedValuesPlan("t", n, 17),
		Cond:  expr.Eq(expr.Column("t", "k"), expr.IntLit(3)),
	}
	inj := fault.New([]fault.Event{{Tick: int64(n) + 100, Kind: fault.Panic}})
	_, err := Run(plan, nil, &Options{Faults: inj, Parallelism: 4})
	var pe *ExecPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ExecPanicError", err)
	}
	if pe.Worker < 0 {
		t.Fatalf("worker panic reports worker %d, want >= 0", pe.Worker)
	}
	if pe.Op != plan.Describe() {
		t.Fatalf("worker panic names %q, want the pipeline's node %q", pe.Op, plan.Describe())
	}
	if _, ok := pe.Value.(*fault.PanicValue); !ok {
		t.Fatalf("contained value %T, want *fault.PanicValue", pe.Value)
	}
}

// TestNoGoroutineLeakAfterFailures: cancelled, over-budget and panicking
// parallel queries leave no goroutines behind once they return.
func TestNoGoroutineLeakAfterFailures(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		inj := fault.New([]fault.Event{
			{Tick: int64(100 + i*37), Kind: fault.Cancel},
			{Tick: int64(400 + i*53), Kind: fault.Panic},
		}).WithCancel(cancel)
		_, err := Run(govJoinPlan(4000, 200), nil, &Options{
			Context: ctx, Faults: inj, Parallelism: 4, MemoryBudget: 1 << 20,
		})
		cancel()
		if err == nil {
			t.Fatal("faulted run reported success")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
