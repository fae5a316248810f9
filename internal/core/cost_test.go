package core

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/dist"
	"repro/internal/expr"
	"repro/internal/value"
	"repro/internal/workload"
)

// fakeStats is a synthetic statistics source for cost-model unit tests.
type fakeStats struct {
	rows     map[string]int64
	distinct map[[2]string]int64
}

func (f fakeStats) TableRows(table string) int64 { return f.rows[table] }
func (f fakeStats) DistinctValues(table, column string) int64 {
	return f.distinct[[2]string{table, column}]
}

// costFixture builds a bound Example 1 query over synthetic stats.
func costFixture(t *testing.T) (*CostModel, *BoundQuery, *Planner) {
	t.Helper()
	s := example1Store(t)
	p := NewPlanner(s)
	b, err := p.Bind(parse(t, example1SQL))
	must(t, err)
	stats := fakeStats{
		rows: map[string]int64{"Employee": 10000, "Department": 100},
		distinct: map[[2]string]int64{
			{"Employee", "DeptID"}:   100,
			{"Employee", "EmpID"}:    10000,
			{"Department", "DeptID"}: 100,
			{"Department", "Name"}:   100,
		},
	}
	return NewCostModel(stats, b), b, p
}

func TestCostScanAndJoinEstimates(t *testing.T) {
	m, b, p := costFixture(t)
	plan, err := p.PlanStandard(b)
	must(t, err)
	pc := m.Estimate(plan)

	// Locate the join and check the classic estimates: |E|·|D|/max(d)
	// = 10000·100/100 = 10000 join rows, and 100 groups.
	var join *algebra.Join
	var group *algebra.GroupBy
	algebra.Walk(plan, func(n algebra.Node) {
		switch x := n.(type) {
		case *algebra.Join:
			join = x
		case *algebra.GroupBy:
			group = x
		}
	})
	if join == nil || group == nil {
		t.Fatal("plan shape unexpected")
	}
	if got := pc.Ann[join].Rows; got != 10000 {
		t.Errorf("join estimate = %d, want 10000", got)
	}
	if got := pc.Ann[group].Rows; got != 100 {
		t.Errorf("group estimate = %d, want 100", got)
	}
	if pc.Rows != 100 {
		t.Errorf("root estimate = %.0f, want 100", pc.Rows)
	}
	if pc.Total <= 0 {
		t.Error("total cost must be positive")
	}
}

func TestCostPrefersTransformedOnExample1Stats(t *testing.T) {
	m, b, p := costFixture(t)
	standard, err := p.PlanStandard(b)
	must(t, err)
	shape, err := Normalize(b, nil)
	must(t, err)
	transformed, err := p.PlanTransformed(shape)
	must(t, err)
	cs := m.Estimate(standard)
	ct := m.Estimate(transformed)
	if ct.Total >= cs.Total {
		t.Errorf("transformed cost %.0f >= standard cost %.0f at Figure 1 statistics", ct.Total, cs.Total)
	}
}

// TestCostVectorizeOnlyAtOneSite: the batch form's work factor prices a plan
// that runs in it — a single-site plan over stored tables — and nothing on a
// cluster, where every fragment reads rows bound to it and runs in row form.
// There a plan costs the same with Vectorize on and off.
func TestCostVectorizeOnlyAtOneSite(t *testing.T) {
	m, b, p := costFixture(t)
	plan, err := p.PlanStandard(b)
	must(t, err)
	for _, nodes := range []int{0, 1, 4} {
		m.Nodes = nodes
		m.Vectorize = false
		row := m.Estimate(plan).Total
		m.Vectorize = true
		vec := m.Estimate(plan).Total
		wantWork, wantCheaper := 1000*costVectorWork, true
		if nodes > 1 {
			wantWork, wantCheaper = 1000, false
		}
		if got := m.parallelWork(1000); got != wantWork {
			t.Errorf("nodes=%d: vectorized work 1000 costs %g, want %g", nodes, got, wantWork)
		}
		if (vec < row) != wantCheaper || vec > row {
			t.Errorf("nodes=%d: the plan costs %g vectorized and %g in row form", nodes, vec, row)
		}
	}
}

func TestSelectivityEstimates(t *testing.T) {
	m, _, _ := costFixture(t)
	eq := expr.Eq(expr.Column("D", "DeptID"), expr.IntLit(5))
	if got := m.selectivity(eq, 0); got != 1.0/100 {
		t.Errorf("equality selectivity = %g, want 1/100", got)
	}
	colcol := expr.Eq(expr.Column("E", "DeptID"), expr.Column("D", "DeptID"))
	if got := m.selectivity(colcol, 0); got != 1.0/100 {
		t.Errorf("join selectivity = %g, want 1/100", got)
	}
	rng := expr.NewBinary(expr.OpGt, expr.Column("E", "EmpID"), expr.IntLit(5))
	if got := m.selectivity(rng, 0); got != 1.0/3 {
		t.Errorf("range selectivity = %g, want 1/3", got)
	}
	if got := m.selectivity(nil, 0); got != 1 {
		t.Errorf("nil selectivity = %g, want 1", got)
	}
	// Conjuncts multiply (compute the expectation with the same runtime
	// rounding sequence, not Go's exact constant arithmetic).
	both := expr.And(eq, rng)
	want := 1.0
	want *= 1.0 / 100
	want *= 1.0 / 3
	if got := m.selectivity(both, 0); got != want {
		t.Errorf("conjunct selectivity = %g, want %g", got, want)
	}
	// Unknown column falls back to a constant.
	unknown := expr.Eq(expr.Column("X", "y"), expr.IntLit(1))
	if got := m.selectivity(unknown, 0); got != 0.1 {
		t.Errorf("unknown-column selectivity = %g, want 0.1", got)
	}
}

func TestGroupCountEstimates(t *testing.T) {
	m, b, _ := costFixture(t)
	_ = b
	g := &algebra.GroupBy{GroupCols: []expr.ColumnID{{Table: "D", Name: "DeptID"}}}
	if got := m.groupCount(g, 10000); got != 100 {
		t.Errorf("group count = %g, want 100", got)
	}
	// Capped by the input cardinality.
	if got := m.groupCount(g, 50); got != 50 {
		t.Errorf("capped group count = %g, want 50", got)
	}
	// Scalar aggregation: one group.
	scalar := &algebra.GroupBy{}
	if got := m.groupCount(scalar, 10000); got != 1 {
		t.Errorf("scalar group count = %g, want 1", got)
	}
	// Two columns of the SAME table: capped by that table's cardinality
	// (distinct (DeptID, Name) combinations cannot exceed |Department|).
	g2 := &algebra.GroupBy{GroupCols: []expr.ColumnID{
		{Table: "D", Name: "DeptID"}, {Table: "D", Name: "Name"},
	}}
	if got := m.groupCount(g2, 1000000); got != 100 {
		t.Errorf("same-table two-column group count = %g, want 100", got)
	}
	// Columns from DIFFERENT tables multiply.
	g3 := &algebra.GroupBy{GroupCols: []expr.ColumnID{
		{Table: "E", Name: "DeptID"}, {Table: "D", Name: "Name"},
	}}
	if got := m.groupCount(g3, 1000000); got != 100*100 {
		t.Errorf("cross-table group count = %g, want 10000", got)
	}
}

func TestStoreStatsComputesDistinct(t *testing.T) {
	s := example1Store(t)
	st := NewStoreStats(s)
	if got := st.TableRows("Employee"); got != 7 {
		t.Errorf("TableRows = %d, want 7", got)
	}
	// DeptIDs: 1, 2, 3, NULL → 4 distinct under =ⁿ.
	if got := st.DistinctValues("Employee", "DeptID"); got != 4 {
		t.Errorf("DistinctValues = %d, want 4 (NULL counts once)", got)
	}
	// Cached on second call (same answer).
	if got := st.DistinctValues("Employee", "DeptID"); got != 4 {
		t.Errorf("cached DistinctValues = %d", got)
	}
	if got := st.TableRows("NoSuch"); got != 0 {
		t.Errorf("unknown table rows = %d, want 0", got)
	}
	if got := st.DistinctValues("Employee", "NoSuch"); got != 0 {
		t.Errorf("unknown column distinct = %d, want 0", got)
	}
}

func TestDistributedEstimateShape(t *testing.T) {
	s := example1Store(t)
	o := NewOptimizer(s)
	b, err := o.Planner().Bind(parse(t, example1SQL))
	must(t, err)
	shape, err := Normalize(b, nil)
	must(t, err)
	m := NewCostModel(NewStoreStats(s), b)
	dc, err := m.EstimateDistributed(o.Planner(), shape)
	must(t, err)
	if dc.TransformedRowsShipped > dc.StandardRowsShipped {
		t.Errorf("transformed ships more rows (%.0f > %.0f) — contradicts Section 7",
			dc.TransformedRowsShipped, dc.StandardRowsShipped)
	}
	if dc.StandardRowsShipped != 7 {
		t.Errorf("standard ships %.0f rows, want 7 (all employees)", dc.StandardRowsShipped)
	}
}

func TestCostEstimateAnnotatesEveryNode(t *testing.T) {
	m, b, p := costFixture(t)
	plan, err := p.PlanStandard(b)
	must(t, err)
	pc := m.Estimate(plan)
	algebra.Walk(plan, func(n algebra.Node) {
		if _, ok := pc.Ann[n]; !ok {
			t.Errorf("node %s missing a cardinality annotation", n.Describe())
		}
	})
	// Values nodes estimate by literal row count.
	vals := &algebra.Values{Rows: make([]value.Row, 5)}
	pcv := m.Estimate(vals)
	if pcv.Rows != 5 {
		t.Errorf("values estimate = %.0f, want 5", pcv.Rows)
	}
}

// TestClusterCostPricesThePlanThatRuns: on four nodes the model compiles each
// plan for the cluster under the optimizer's strategy, so the bytes it
// charges the chosen plan are those of the cluster plan the choice carries —
// the one a run executes — and of a compilation of that plan under the
// strategy, not under another.
func TestClusterCostPricesThePlanThatRuns(t *testing.T) {
	store, err := workload.EmployeeDepartment(10000, 100)
	must(t, err)
	o := NewOptimizer(store)
	o.Nodes, o.DistStrategy, o.CheckPlans = 4, dist.StrategyLazy, true
	c, err := o.Choose(parse(t, example1SQL))
	must(t, err)
	pc := c.forward.StandardCost
	if c.forward.Transformed {
		pc = c.forward.TransformedCost
	}
	dp, err := dist.Compile(c.Plan.Plan, dist.Config{
		Nodes:    4,
		Strategy: dist.StrategyLazy,
		Rows: func(n algebra.Node) float64 {
			if a, ok := c.Plan.Ann[n]; ok {
				return float64(a.Rows)
			}
			return -1
		},
	})
	must(t, err)
	if pc.CommBytes != dp.EstBytes {
		t.Fatalf("the chosen plan is charged %.0f shipped bytes; compiled lazy it ships %.0f", pc.CommBytes, dp.EstBytes)
	}
	if got := c.Plan.Dist; got == nil || got.EstBytes != pc.CommBytes || got.Strategy != dist.StrategyLazy {
		t.Fatalf("the choice does not carry the cluster plan its cost priced: %+v", got)
	}
}

// TestChoiceVerifiesClusterPlans: with CheckPlans set a choice takes the
// cluster plans of its plan and of its fallback only once plancheck accepts
// them — here a compiled plan whose shard source reaches the root without a
// gather is refused in either place.
func TestChoiceVerifiesClusterPlans(t *testing.T) {
	o := NewOptimizer(example1Store(t))
	o.Mode, o.Nodes, o.CheckPlans = ModeAlways, 4, true // a transformed plan and its fallback
	c, err := o.Choose(parse(t, example1SQL))
	must(t, err)
	scan := algebra.FindScans(c.Plan.Plan)[0]
	plan, fallback := PlanCost{dist: c.Plan.Dist}, PlanCost{dist: c.Fallback.Dist}
	bad := PlanCost{dist: &dist.Plan{Root: &dist.Leaf{Table: scan.Table, Alias: scan.Alias, Cols: scan.Cols}}}
	choose := func(pc, fc PlanCost) error {
		_, err := o.choice(&Choice{Certs: c.Certs}, c.Plan.Plan, &pc, c.Fallback.Plan, &fc)
		return err
	}
	for _, pcs := range [][2]PlanCost{{bad, fallback}, {plan, bad}} {
		if err := choose(pcs[0], pcs[1]); err == nil || !strings.Contains(err.Error(), "dist-placement") {
			t.Fatalf("an ungathered cluster plan was not refused: %v", err)
		}
	}
	if err := choose(plan, fallback); err != nil {
		t.Fatalf("the compiled cluster plans were refused: %v", err)
	}
}

// TestChoiceKeepsOnlyTheClusterPlansItRuns: on four nodes the cost model
// compiles every plan it prices, but a choice keeps only the cluster plans of
// the plans it can run, in its runnables — none in the report it explains
// with. Figure 8's transformation is valid and not chosen, so the forward
// report's transformed cost must hold none. No fixture has the cluster pick
// the flat plan over a view (it broadcasts PrinterAuth), so the reverse half
// makes the choice Choose makes for a flat pick, on a real 4-node report.
func TestChoiceKeepsOnlyTheClusterPlansItRuns(t *testing.T) {
	store, err := workload.Figure8(workload.Figure8Defaults)
	must(t, err)
	o := NewOptimizer(store)
	o.Nodes, o.CheckPlans = 4, true
	c, err := o.Choose(parse(t, workload.Figure8Query))
	must(t, err)
	r := c.forward
	if r.Transformed || r.Alternative == nil || c.Fallback != nil || c.Plan.Dist == nil {
		t.Fatalf("want the standard plan chosen over a valid transformation, with its cluster plan: %s", r.WhyNot)
	}
	if r.TransformedCost.dist != nil || r.StandardCost.dist != nil {
		t.Fatal("the forward report kept a cluster plan: the transformed one no run executes, or a copy of the standard one")
	}

	s := printerStore(t)
	registerUserInfoView(t, s)
	o = NewOptimizer(s)
	o.Nodes, o.CheckPlans = 4, true
	b, err := o.planner.Bind(parse(t, workload.Example5Query))
	must(t, err)
	rr, err := o.reverse(b)
	must(t, err)
	if rr.FlatPlan == nil || rr.NestedCost.dist == nil || rr.FlatCost.dist == nil {
		t.Fatalf("want a 4-node reverse report pricing both plans on the cluster: %s", rr.WhyNot)
	}
	rr.UseFlat = true
	c, err = o.choice(&Choice{reverse: rr}, rr.FlatPlan, &rr.FlatCost, nil, &rr.NestedCost)
	must(t, err)
	if c.Plan.Dist == nil || rr.FlatCost.dist != nil || rr.NestedCost.dist != nil {
		t.Fatal("the reverse report kept a cluster plan: the nested one no run executes, or a copy of the flat one")
	}
}
