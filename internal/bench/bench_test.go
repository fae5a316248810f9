package bench

import (
	"context"
	"strings"
	"testing"

	gbj "repro"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/workload"
)

// forward runs CompareForward once per plan on an engine over store.
func forward(t *testing.T, store *storage.Store, query string, reps int) *Comparison {
	t.Helper()
	c, err := CompareForward(context.Background(), gbj.NewWithStore(store), query, reps)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFigure1Cardinalities measures the paper's Figure 1 plan diagrams: at
// 10000 employees and 100 departments, the standard plan joins 10000 x 100
// and groups 10000 rows, while the transformed plan groups 10000 rows into
// 100 and joins 100 x 100.
func TestFigure1Cardinalities(t *testing.T) {
	store, err := workload.EmployeeDepartment(10000, 100)
	if err != nil {
		t.Fatal(err)
	}
	c := forward(t, store, workload.Example1Query, 1)
	if c.Transformed == nil {
		t.Fatal("transformation not available")
	}

	// Plan 1 (standard): join inputs 10000 and 100, join output 10000,
	// group 10000 -> 100.
	std := c.Standard
	if len(std.Joins) != 1 {
		t.Fatalf("standard plan has %d joins, want 1", len(std.Joins))
	}
	j := std.Joins[0]
	if j.LeftRows != 10000 || j.RightRows != 100 || j.OutRows != 10000 {
		t.Errorf("standard join = %s, want 10000 x 100 -> 10000", j)
	}
	if std.GroupInput != 10000 || std.GroupOutput != 100 {
		t.Errorf("standard group = %d -> %d, want 10000 -> 100", std.GroupInput, std.GroupOutput)
	}

	// Plan 2 (transformed): group 10000 -> 100, join 100 x 100 -> 100.
	tr := c.Transformed
	if tr.GroupInput != 10000 || tr.GroupOutput != 100 {
		t.Errorf("transformed group = %d -> %d, want 10000 -> 100", tr.GroupInput, tr.GroupOutput)
	}
	if len(tr.Joins) != 1 {
		t.Fatalf("transformed plan has %d joins, want 1", len(tr.Joins))
	}
	j = tr.Joins[0]
	if j.LeftRows != 100 || j.RightRows != 100 || j.OutRows != 100 {
		t.Errorf("transformed join = %s, want 100 x 100 -> 100", j)
	}

	// The optimizer must choose the transformed plan here.
	if c.Picked != "transformed" {
		t.Errorf("the engine picked the %s plan, want the transformed one", c.Picked)
	}
	if !strings.Contains(c.Table(), "speedup") {
		t.Error("Table() missing the speedup line")
	}
}

// TestFigure8Cardinalities measures the paper's Figure 8 counterexample: a
// highly selective join (10000 x 100 -> 50 rows, 10 groups) where eager
// aggregation instead groups all 10000 A rows into ~9000 groups. The
// transformation is valid, but the cost model must refuse it.
func TestFigure8Cardinalities(t *testing.T) {
	store, err := workload.Figure8(workload.Figure8Defaults)
	if err != nil {
		t.Fatal(err)
	}
	c := forward(t, store, workload.Figure8Query, 1)
	if c.Transformed == nil {
		t.Fatal("transformation not available")
	}

	std := c.Standard
	if std.Joins[0].LeftRows != 10000 || std.Joins[0].RightRows != 100 || std.Joins[0].OutRows != 50 {
		t.Errorf("standard join = %s, want 10000 x 100 -> 50", std.Joins[0])
	}
	if std.GroupInput != 50 || std.GroupOutput != 10 {
		t.Errorf("standard group = %d -> %d, want 50 -> 10", std.GroupInput, std.GroupOutput)
	}

	tr := c.Transformed
	if tr.GroupInput != 10000 {
		t.Errorf("transformed group input = %d, want 10000", tr.GroupInput)
	}
	// The paper's diagram says ~9000 groups; our instance yields
	// AGroups-10 distinct non-joining keys + 10 joining ones.
	if tr.GroupOutput < 8000 {
		t.Errorf("transformed group output = %d, want ~9000 (explosion)", tr.GroupOutput)
	}
	if tr.Joins[0].LeftRows != tr.GroupOutput || tr.Joins[0].RightRows != 100 {
		t.Errorf("transformed join = %s, want %d x 100", tr.Joins[0], tr.GroupOutput)
	}

	// Section 7's punchline: valid (the transformed side ran) but not
	// advantageous — the cost model must keep the standard plan.
	if c.Picked != "standard" {
		t.Error("the engine chose the transformed plan on the Figure 8 instance")
	}
}

// TestExample3Comparison runs the Section 6.3 query on a mid-size printer
// database; both plans must agree and the harness must report two joins.
func TestExample3Comparison(t *testing.T) {
	store, err := workload.Printers(workload.PrinterParams{
		Users: 500, Machines: 5, Printers: 20, AuthsPerUser: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := forward(t, store, workload.Example3Query, 1)
	if c.Transformed == nil {
		t.Fatal("transformation not available")
	}
	if len(c.Standard.Joins) != 2 || len(c.Transformed.Joins) != 2 {
		t.Errorf("join counts: standard %d, transformed %d, want 2 and 2",
			len(c.Standard.Joins), len(c.Transformed.Joins))
	}
	// 100 dragon users, each with AuthsPerUser authorizations.
	if c.Standard.OutRows != 100 {
		t.Errorf("result rows = %d, want 100", c.Standard.OutRows)
	}
}

// TestExample5ReverseComparison runs the Section 8 experiment.
func TestExample5ReverseComparison(t *testing.T) {
	store, err := workload.Printers(workload.PrinterParams{
		Users: 500, Machines: 5, Printers: 20, AuthsPerUser: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.RegisterUserInfoView(store); err != nil {
		t.Fatal(err)
	}
	c, err := CompareReverse(context.Background(), gbj.NewWithStore(store), workload.Example5Query, workload.Example5FlatQuery, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Nested: the view aggregates ALL users (500*4 auth rows); flat: the
	// join first restricts to dragon users.
	if c.Standard.GroupInput <= c.Transformed.GroupInput {
		t.Errorf("expected the flat plan to group fewer rows: nested %d, flat %d",
			c.Standard.GroupInput, c.Transformed.GroupInput)
	}
	if c.Standard.OutRows != 100 {
		t.Errorf("result rows = %d, want 100", c.Standard.OutRows)
	}
}

// TestCompareReverseDisagreementFails: a "flat form" that is not the nested
// query's equivalent fails the comparison instead of reporting numbers.
func TestCompareReverseDisagreementFails(t *testing.T) {
	store, err := workload.Printers(workload.PrinterParams{
		Users: 20, Machines: 2, Printers: 4, AuthsPerUser: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.RegisterUserInfoView(store); err != nil {
		t.Fatal(err)
	}
	wrong := strings.Replace(workload.Example5FlatQuery, "MAX(P.Speed)", "MIN(P.Speed)", 1)
	_, err = CompareReverse(context.Background(), gbj.NewWithStore(store), workload.Example5Query, wrong, 1)
	if err == nil || !strings.Contains(err.Error(), "reverse plans disagree") {
		t.Fatalf("a wrong flat form was not refused: %v", err)
	}
}

// TestForwardRefusesUnprovenRewrite: with the optimizer forced to push the
// group-by past a join TestFD rejects — R2 has no key, so the R1 row joins
// two R2 rows — the comparison fails with the certifier's error before the
// eager plan runs, not after two result multisets differ.
func TestForwardRefusesUnprovenRewrite(t *testing.T) {
	core.TestHooks.ForceTransform = true
	defer func() { core.TestHooks.ForceTransform = false }()
	e := gbj.New()
	e.MustExec(`
		CREATE TABLE R1 (a INTEGER, c INTEGER);
		CREATE TABLE R2 (d INTEGER, e INTEGER);
		INSERT INTO R1 VALUES (1, 10);
		INSERT INTO R2 VALUES (1, 1), (1, 2)`)
	_, err := CompareForward(context.Background(), e, `SELECT R1.a, SUM(R1.c) FROM R1, R2 WHERE R1.a = R2.d GROUP BY R1.a`, 1)
	if err == nil || !strings.Contains(err.Error(), "cert-derive") {
		t.Fatalf("want the certifier's verification error, got: %v", err)
	}
}

// TestPlanRunDisplay covers the harness's display helpers: the measured
// plan tree and the comparison table.
func TestPlanRunDisplay(t *testing.T) {
	store, err := workload.EmployeeDepartment(100, 10)
	if err != nil {
		t.Fatal(err)
	}
	c := forward(t, store, workload.Example1Query, 2)
	tree := c.Standard.Tree()
	if !strings.Contains(tree, "GroupBy") || !strings.Contains(tree, "rows") {
		t.Errorf("Tree() = %q", tree)
	}
	if c.Speedup() <= 0 {
		t.Errorf("Speedup() = %v", c.Speedup())
	}
	// A non-transformable comparison says so in its table.
	c2 := forward(t, store, `
		SELECT E.DeptID, COUNT(E.EmpID), MIN(D.Name)
		FROM Employee E, Department D
		WHERE E.DeptID = D.DeptID
		GROUP BY E.DeptID`, 1)
	if c2.Transformed != nil {
		t.Fatal("expected a non-transformable query")
	}
	if c2.Speedup() != 0 {
		t.Errorf("Speedup() without a transformed run = %v", c2.Speedup())
	}
	if !strings.Contains(c2.Table(), "not applied") {
		t.Errorf("Table() = %q", c2.Table())
	}
}

// TestSweepWorkloads sanity-checks the generic generator at a small size.
func TestSweepWorkloads(t *testing.T) {
	store, err := workload.Sweep(workload.SweepParams{
		FactRows: 2000, DimRows: 50, Groups: 20, MatchFraction: 0.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := forward(t, store, workload.SweepQueryGroupByDim, 1)
	if c.Transformed == nil {
		t.Fatal("dim-grouped sweep not transformable")
	}
	if c.Standard.OutRows != c.Transformed.OutRows {
		t.Error("row counts disagree")
	}
	// The fact-side grouping query is NOT transformable by TestFD: the
	// grouping column does not determine the join column.
	c2 := forward(t, store, workload.SweepQueryGroupByFact, 1)
	if c2.Transformed != nil {
		t.Error("fact-grouped sweep unexpectedly transformable (GroupID does not determine DimID)")
	}
}

// TestComparisonsRestoreTheConfig: each comparison changes the mode or the
// shipping strategy only while it measures, and gives the engine back the
// configuration the caller had, not the defaults.
func TestComparisonsRestoreTheConfig(t *testing.T) {
	employees := func() (*storage.Store, error) { return workload.EmployeeDepartment(200, 10) }
	printers := func() (*storage.Store, error) {
		store, err := workload.Printers(workload.PrinterParams{
			Users: 50, Machines: 5, Printers: 10, AuthsPerUser: 2, Seed: 7,
		})
		if err != nil {
			return nil, err
		}
		return store, workload.RegisterUserInfoView(store)
	}
	ctx := context.Background()
	for _, run := range []struct {
		name    string
		store   func() (*storage.Store, error)
		compare func(e *gbj.Engine) (*Comparison, error)
	}{
		{"CompareForward", employees, func(e *gbj.Engine) (*Comparison, error) {
			return CompareForward(ctx, e, workload.Example1Query, 1)
		}},
		{"CompareReverse", printers, func(e *gbj.Engine) (*Comparison, error) {
			return CompareReverse(ctx, e, workload.Example5Query, workload.Example5FlatQuery, 1)
		}},
		{"CompareDistributed", employees, func(e *gbj.Engine) (*Comparison, error) {
			return CompareDistributed(ctx, e, workload.Example1Query, 1)
		}},
	} {
		store, err := run.store()
		if err != nil {
			t.Fatal(err)
		}
		e := gbj.NewWithStore(store)
		want := gbj.Config{Mode: gbj.ModeNever, DistStrategy: gbj.DistEager, Nodes: 2}
		if err := e.Configure(want); err != nil {
			t.Fatal(err)
		}
		if _, err := run.compare(e); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if got := e.Config(); got != want {
			t.Errorf("%s left the engine configured %+v, want the caller's %+v", run.name, got, want)
		}
	}
}
