package gbj

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// newFallbackEngine builds a database shaped to separate the two plans'
// memory appetites: Fact has many distinct join-key values (a wide eager
// group table), Dim is tiny (a small join build side and a small lazy
// group table). The eager group-before-join plan must hold one group per
// distinct Fact.k; the lazy plan joins first — the join keeps only Dim's
// keys — and groups the survivors.
func newFallbackEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	e.MustExec(`
		CREATE TABLE Dim (k INTEGER PRIMARY KEY, name CHARACTER(20));
		CREATE TABLE Fact (id INTEGER PRIMARY KEY, k INTEGER, v INTEGER)`)
	e.MustExec(`INSERT INTO Dim VALUES (0, 'a'), (1, 'b'), (2, 'c'), (3, 'd'), (4, 'e')`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO Fact VALUES `)
	for i := 0; i < 800; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d)", i, i%200, i)
	}
	e.MustExec(sb.String())
	return e
}

const fallbackQuery = `
	SELECT D.k, D.name, SUM(F.v)
	FROM Fact F, Dim D
	WHERE F.k = D.k
	GROUP BY D.k, D.name`

// stateBytes measures a plan's high-water operator state under a budget
// generous enough never to trip.
func stateBytes(t *testing.T, e *Engine, mode Mode) int64 {
	t.Helper()
	e.SetMode(mode)
	e.SetMemoryBudget(1 << 40)
	defer e.SetMemoryBudget(0)
	a, err := e.QueryAnalyzedContext(context.Background(), fallbackQuery, nil)
	if err != nil {
		t.Fatalf("measuring mode %v: %v", mode, err)
	}
	if a.Governance.UsedBytes <= 0 {
		t.Fatalf("mode %v reported no state bytes", mode)
	}
	return a.Governance.UsedBytes
}

// TestBudgetFallback is the graceful-degradation contract: a budget the
// eager plan exceeds but the lazy plan fits degrades the query to the lazy
// plan — same rows, one Fallbacks tick, the reason in EXPLAIN ANALYZE — and
// only a budget neither plan fits surfaces a *ResourceError.
func TestBudgetFallback(t *testing.T) {
	e := newFallbackEngine(t)

	eager := stateBytes(t, e, ModeAlways)
	lazy := stateBytes(t, e, ModeNever)
	if eager <= lazy {
		t.Fatalf("test data does not separate the plans: eager state %d <= lazy state %d", eager, lazy)
	}

	// The reference rows, from the lazy plan with no budget.
	e.SetMode(ModeNever)
	want, err := e.QueryOptionsContext(context.Background(), fallbackQuery, nil)
	if err != nil {
		t.Fatal(err)
	}

	// A budget between the two plans' appetites: eager trips, lazy fits.
	mid := (eager + lazy) / 2
	e.SetMode(ModeAlways)
	e.SetMemoryBudget(mid)
	if got := e.MemoryBudget(); got != mid {
		t.Fatalf("MemoryBudget() = %d, want %d", got, mid)
	}
	res, err := e.QueryOptionsContext(context.Background(), fallbackQuery, nil)
	if err != nil {
		t.Fatalf("over-budget eager plan did not degrade: %v", err)
	}
	if fmt.Sprint(res.Rows) != fmt.Sprint(want.Rows) {
		t.Fatalf("fallback rows diverge from the lazy plan's\ngot:  %v\nwant: %v", res.Rows, want.Rows)
	}
	if n := e.Fallbacks(); n != 1 {
		t.Fatalf("Fallbacks() = %d after one degraded query, want 1", n)
	}

	// The analyzed path degrades too, and says so.
	a, err := e.QueryAnalyzedContext(context.Background(), fallbackQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	text := a.String()
	for _, wantLine := range []string{"memory budget:", "fallback:", "group-after-join"} {
		if !strings.Contains(text, wantLine) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", wantLine, text)
		}
	}
	if n := e.Fallbacks(); n != 2 {
		t.Fatalf("Fallbacks() = %d after two degraded queries, want 2", n)
	}

	// A per-query budget degrades the analyzed run the same way, with the
	// engine's budget unset.
	e.SetMemoryBudget(0)
	a, err = e.QueryAnalyzedContext(context.Background(), fallbackQuery, &QueryOptions{MemoryBudget: mid})
	if err != nil {
		t.Fatal(err)
	}
	if a.Governance.BudgetBytes != mid || !a.Governance.Fallback {
		t.Errorf("analyzed run under QueryOptions{MemoryBudget: %d}: budget %d, fallback %t; want that budget and the lazy fallback",
			mid, a.Governance.BudgetBytes, a.Governance.Fallback)
	}
	if fmt.Sprint(a.Result.Rows) != fmt.Sprint(want.Rows) {
		t.Fatalf("per-query fallback rows diverge from the lazy plan's\ngot:  %v\nwant: %v", a.Result.Rows, want.Rows)
	}
	if n := e.Fallbacks(); n != 3 {
		t.Fatalf("Fallbacks() = %d after three degraded queries, want 3", n)
	}

	// A budget below even the lazy plan: the fallback also trips, and the
	// query fails with the typed resource error — never an OOM.
	e.SetMemoryBudget(lazy / 4)
	_, err = e.QueryOptionsContext(context.Background(), fallbackQuery, nil)
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("under-budget query returned %v (%T), want *ResourceError", err, err)
	}
	if re.Budget != lazy/4 || re.Used <= re.Budget || re.Op == "" {
		t.Errorf("ResourceError fields: budget=%d used=%d op=%q", re.Budget, re.Used, re.Op)
	}
}

// TestQueryContextCancelled pins the engine-level cancellation surface: a
// dead context fails the query with context.Canceled before any rows flow.
func TestQueryContextCancelled(t *testing.T) {
	e := newExample1Engine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryContext(ctx, example1Query); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryContext on a cancelled context: %v, want context.Canceled", err)
	}
	if _, err := e.QueryOptionsContext(ctx, `SELECT E.EmpID FROM Employee E WHERE E.DeptID = :d`,
		&QueryOptions{Params: map[string]any{"d": 1}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryOptionsContext on a cancelled context: %v, want context.Canceled", err)
	}
	if _, err := e.QueryAnalyzedContext(ctx, example1Query, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryAnalyzedContext on a cancelled context: %v, want context.Canceled", err)
	}
}

// TestQueryContextDeadline: an already-expired deadline surfaces as
// context.DeadlineExceeded through the same path.
func TestQueryContextDeadline(t *testing.T) {
	e := newExample1Engine(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := e.QueryContext(ctx, example1Query); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("QueryContext past its deadline: %v, want context.DeadlineExceeded", err)
	}
}

// TestRunScriptContext: cancellation stops a script between statements and
// inside a query; results written before the cancel survive.
func TestRunScriptContext(t *testing.T) {
	e := newExample1Engine(t)
	var out strings.Builder
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := e.RunScriptContext(ctx, `SELECT D.DeptID FROM Department D`, &out)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled script: %v, want context.Canceled", err)
	}
	// And the uncancelled path still works.
	out.Reset()
	if err := e.RunScriptContext(context.Background(), `SELECT D.DeptID FROM Department D`, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(3 rows)") {
		t.Fatalf("script output missing row count:\n%s", out.String())
	}
}
