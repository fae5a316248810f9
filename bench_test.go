package gbj

// Benchmark harness: one benchmark per figure/example of the paper's
// evaluation, regenerating its plan-diagram cardinalities and measuring
// both plans. Run everything with
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for the paper-vs-measured record. The cardinality
// numbers (reported as custom metrics) must match the paper exactly; the
// timings show the *shape* of the trade-off on this executor.

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/workload"
)

// plansFor optimizes the query and returns the standard and (when valid)
// transformed plans.
func plansFor(b *testing.B, store *storage.Store, query string) (standard, transformed algebra.Node) {
	b.Helper()
	q, err := sql.ParseQuery(query)
	if err != nil {
		b.Fatal(err)
	}
	r, err := core.NewOptimizer(store).Optimize(q)
	if err != nil {
		b.Fatal(err)
	}
	return r.Standard, r.Alternative
}

// benchPlan times repeated executions of one plan.
func benchPlan(b *testing.B, store *storage.Store, plan algebra.Node, outRows int64) {
	benchPlanParallel(b, store, plan, outRows, 0)
}

// benchPlanParallel is benchPlan with an executor worker count.
func benchPlanParallel(b *testing.B, store *storage.Store, plan algebra.Node, outRows int64, parallelism int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exec.Run(plan, store, &exec.Options{Parallelism: parallelism})
		if err != nil {
			b.Fatal(err)
		}
		if outRows >= 0 && int64(len(res.Rows)) != outRows {
			b.Fatalf("result has %d rows, want %d", len(res.Rows), outRows)
		}
	}
}

// --------------------------------------------------------------- Figure 1

// BenchmarkFigure1 regenerates the paper's Figure 1: Example 1 at 10000
// employees / 100 departments. Plan 1 joins 10000 x 100 then groups 10000
// rows; Plan 2 groups 10000 rows into 100 and joins 100 x 100. The
// transformed plan must win.
func BenchmarkFigure1(b *testing.B) {
	store, err := workload.EmployeeDepartment(10000, 100)
	if err != nil {
		b.Fatal(err)
	}
	standard, transformed := plansFor(b, store, workload.Example1Query)
	if transformed == nil {
		b.Fatal("transformation not available")
	}
	b.Run("Plan1_GroupAfterJoin", func(b *testing.B) { benchPlan(b, store, standard, 100) })
	b.Run("Plan2_GroupBeforeJoin", func(b *testing.B) { benchPlan(b, store, transformed, 100) })
}

// BenchmarkFigure1Parallel runs both Figure 1 plans serially and with four
// workers (a fixed count so the parallel operators engage even on machines
// where NumCPU is 1). Parallel execution is deterministic (identical rows
// in identical order), so the comparison is purely about wall time; on a
// single-CPU machine the parallel runs measure scheduling overhead.
func BenchmarkFigure1Parallel(b *testing.B) {
	store, err := workload.EmployeeDepartment(10000, 100)
	if err != nil {
		b.Fatal(err)
	}
	standard, transformed := plansFor(b, store, workload.Example1Query)
	if transformed == nil {
		b.Fatal("transformation not available")
	}
	for _, bc := range []struct {
		name string
		par  int
	}{{"Serial", 0}, {"Parallel4", 4}} {
		par := bc.par
		b.Run("Plan1_GroupAfterJoin/"+bc.name, func(b *testing.B) {
			benchPlanParallel(b, store, standard, 100, par)
		})
		b.Run("Plan2_GroupBeforeJoin/"+bc.name, func(b *testing.B) {
			benchPlanParallel(b, store, transformed, 100, par)
		})
	}
}

// --------------------------------------------------------------- Figure 8

// BenchmarkFigure8 regenerates the paper's Figure 8 / Example 4: a join
// selecting 50 of 10000 x 100 rows into 10 groups, where eager aggregation
// must instead group all 10000 rows into ~9000 groups. The standard plan
// must win (and the cost model refuses the transformation; see
// TestFigure8Cardinalities).
func BenchmarkFigure8(b *testing.B) {
	store, err := workload.Figure8(workload.Figure8Defaults)
	if err != nil {
		b.Fatal(err)
	}
	standard, transformed := plansFor(b, store, workload.Figure8Query)
	if transformed == nil {
		b.Fatal("transformation not available")
	}
	b.Run("Plan1_GroupAfterJoin", func(b *testing.B) { benchPlan(b, store, standard, 10) })
	b.Run("Plan2_GroupBeforeJoin", func(b *testing.B) { benchPlan(b, store, transformed, 10) })
}

// BenchmarkFigure8Parallel is the Figure 8 instance serial vs parallel: the
// eager plan's huge partial-aggregate table makes its parallel merge term
// the dominant cost, so parallelism widens Plan 1's win.
func BenchmarkFigure8Parallel(b *testing.B) {
	store, err := workload.Figure8(workload.Figure8Defaults)
	if err != nil {
		b.Fatal(err)
	}
	standard, transformed := plansFor(b, store, workload.Figure8Query)
	if transformed == nil {
		b.Fatal("transformation not available")
	}
	for _, bc := range []struct {
		name string
		par  int
	}{{"Serial", 0}, {"Parallel4", 4}} {
		par := bc.par
		b.Run("Plan1_GroupAfterJoin/"+bc.name, func(b *testing.B) {
			benchPlanParallel(b, store, standard, 10, par)
		})
		b.Run("Plan2_GroupBeforeJoin/"+bc.name, func(b *testing.B) {
			benchPlanParallel(b, store, transformed, 10, par)
		})
	}
}

// -------------------------------------------------------------- Example 3

// BenchmarkExample3 runs the Section 6.3 printer query (two joins, a
// selection on R2, composite keys) both ways.
func BenchmarkExample3(b *testing.B) {
	store, err := workload.Printers(workload.PrinterDefaults)
	if err != nil {
		b.Fatal(err)
	}
	standard, transformed := plansFor(b, store, workload.Example3Query)
	if transformed == nil {
		b.Fatal("transformation not available")
	}
	outRows := int64(workload.PrinterDefaults.Users / workload.PrinterDefaults.Machines)
	b.Run("GroupAfterJoin", func(b *testing.B) { benchPlan(b, store, standard, outRows) })
	b.Run("GroupBeforeJoin", func(b *testing.B) { benchPlan(b, store, transformed, outRows) })
}

// -------------------------------------------------------------- Example 5

// BenchmarkExample5 runs the Section 8 reverse experiment: materializing
// the UserInfo view (grouping all users) vs merging and joining first
// (grouping only dragon users).
func BenchmarkExample5(b *testing.B) {
	store, err := workload.Printers(workload.PrinterDefaults)
	if err != nil {
		b.Fatal(err)
	}
	if err := workload.RegisterUserInfoView(store); err != nil {
		b.Fatal(err)
	}
	q, err := sql.ParseQuery(workload.Example5Query)
	if err != nil {
		b.Fatal(err)
	}
	rr, err := core.NewOptimizer(store).TryReverse(q)
	if err != nil {
		b.Fatal(err)
	}
	if !rr.Applicable || !rr.Decision.OK {
		b.Fatalf("reverse transformation unavailable: %s", rr.WhyNot)
	}
	outRows := int64(workload.PrinterDefaults.Users / workload.PrinterDefaults.Machines)
	b.Run("Nested_MaterializeView", func(b *testing.B) { benchPlan(b, store, rr.Nested, outRows) })
	b.Run("Flat_JoinBeforeGroupBy", func(b *testing.B) { benchPlan(b, store, rr.FlatPlan, outRows) })
}

// ------------------------------------------------- Section 7: selectivity

// BenchmarkSelectivitySweep sweeps the join match fraction at a fixed group
// count, locating the crossover the paper's Section 7 discusses: eager
// aggregation wins when the join preserves many rows per group and loses
// when the join is highly selective.
func BenchmarkSelectivitySweep(b *testing.B) {
	for _, match := range []float64{0.01, 0.1, 0.5, 1.0} {
		store, err := workload.Sweep(workload.SweepParams{
			FactRows: 50000, DimRows: 100, Groups: 100, MatchFraction: match, Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
		standard, transformed := plansFor(b, store, workload.SweepQueryGroupByDim)
		if transformed == nil {
			b.Fatal("transformation not available")
		}
		name := fmt.Sprintf("match=%g", match)
		b.Run(name+"/GroupAfterJoin", func(b *testing.B) { benchPlan(b, store, standard, -1) })
		b.Run(name+"/GroupBeforeJoin", func(b *testing.B) { benchPlan(b, store, transformed, -1) })
	}
}

// ------------------------------------------------- Section 7: group count

// BenchmarkGroupCountSweep sweeps the number of distinct grouping values on
// the R1 side: eager aggregation's benefit shrinks as groups approach the
// row count (less reduction before the join).
func BenchmarkGroupCountSweep(b *testing.B) {
	for _, groups := range []int{10, 100, 1000, 10000} {
		store, err := workload.Sweep(workload.SweepParams{
			FactRows: 50000, DimRows: groups, Groups: groups, MatchFraction: 1.0, Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
		standard, transformed := plansFor(b, store, workload.SweepQueryGroupByDim)
		if transformed == nil {
			b.Fatal("transformation not available")
		}
		name := fmt.Sprintf("groups=%d", groups)
		b.Run(name+"/GroupAfterJoin", func(b *testing.B) { benchPlan(b, store, standard, -1) })
		b.Run(name+"/GroupBeforeJoin", func(b *testing.B) { benchPlan(b, store, transformed, -1) })
	}
}

// ------------------------------------------------ Section 7: distributed

// BenchmarkDistributed evaluates the communication-cost model: rows shipped
// to the remote site under each plan (reported as custom metrics; the
// paper's observation is that the transformed plan never ships more).
func BenchmarkDistributed(b *testing.B) {
	store, err := workload.EmployeeDepartment(10000, 100)
	if err != nil {
		b.Fatal(err)
	}
	q, err := sql.ParseQuery(workload.Example1Query)
	if err != nil {
		b.Fatal(err)
	}
	opt := core.NewOptimizer(store)
	bq, err := opt.Planner().Bind(q)
	if err != nil {
		b.Fatal(err)
	}
	shape, err := core.Normalize(bq, nil)
	if err != nil {
		b.Fatal(err)
	}
	model := core.NewCostModel(core.NewStoreStats(store), bq)
	b.ResetTimer()
	var dc core.DistributedCost
	for i := 0; i < b.N; i++ {
		dc, err = model.EstimateDistributed(opt.Planner(), shape)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(dc.StandardRowsShipped, "rows-shipped-standard")
	b.ReportMetric(dc.TransformedRowsShipped, "rows-shipped-transformed")
}

// ------------------------------------------------------ optimizer overhead

// BenchmarkTestFDOverhead measures the cost of the decision procedure
// itself (parse + bind + normalize + TestFD) — the paper's argument for a
// fast sufficient test over full condition checking.
func BenchmarkTestFDOverhead(b *testing.B) {
	store, err := workload.Printers(workload.PrinterParams{
		Users: 100, Machines: 5, Printers: 10, AuthsPerUser: 3, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	opt := core.NewOptimizer(store)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := sql.ParseQuery(workload.Example3Query)
		if err != nil {
			b.Fatal(err)
		}
		bq, err := opt.Planner().Bind(q)
		if err != nil {
			b.Fatal(err)
		}
		shape, err := core.Normalize(bq, nil)
		if err != nil {
			b.Fatal(err)
		}
		if dec := core.TestFD(shape); !dec.OK {
			b.Fatal(dec.Reason)
		}
	}
}

// BenchmarkTestFDDisjunctive stresses the decision procedure on
// OR-heavy predicates: each disjunctive conjunct doubles the DNF term
// count and the pairwise term check is quadratic, so this measures the
// practical ceiling of TestFD's worst case.
func BenchmarkTestFDDisjunctive(b *testing.B) {
	store, err := workload.EmployeeDepartment(100, 10)
	if err != nil {
		b.Fatal(err)
	}
	for _, ors := range []int{1, 3, 5} {
		query := `
			SELECT D.DeptID, D.Name, COUNT(E.EmpID)
			FROM Employee E, Department D
			WHERE E.DeptID = D.DeptID`
		for i := 0; i < ors; i++ {
			query += fmt.Sprintf(" AND (E.DeptID = %d OR E.DeptID = E.DeptID)", i)
		}
		query += " GROUP BY D.DeptID, D.Name"
		opt := core.NewOptimizer(store)
		b.Run(fmt.Sprintf("or-conjuncts=%d", ors), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q, err := sql.ParseQuery(query)
				if err != nil {
					b.Fatal(err)
				}
				bq, err := opt.Planner().Bind(q)
				if err != nil {
					b.Fatal(err)
				}
				shape, err := core.Normalize(bq, nil)
				if err != nil {
					b.Fatal(err)
				}
				if dec := core.TestFD(shape); !dec.OK {
					b.Fatal(dec.Reason)
				}
			}
		})
	}
}

// ------------------------------------------------- executor ablations

// BenchmarkJoinStrategies compares the physical join implementations on the
// Figure 1 instance (ablation: the transformation's benefit is not an
// artifact of one join algorithm).
func BenchmarkJoinStrategies(b *testing.B) {
	store, err := workload.EmployeeDepartment(10000, 100)
	if err != nil {
		b.Fatal(err)
	}
	standard, _ := plansFor(b, store, workload.Example1Query)
	for _, strat := range []exec.JoinStrategy{exec.JoinHash, exec.JoinSortMerge, exec.JoinNestedLoop} {
		b.Run(strat.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Run(standard, store, &exec.Options{Join: strat}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredicateExpansionAblation measures the Section 6.3 predicate
// expansion on the Example 3 workload: without it the eager aggregation
// groups the printer usage of every machine; with it only 'dragon'.
func BenchmarkPredicateExpansionAblation(b *testing.B) {
	store, err := workload.Printers(workload.PrinterDefaults)
	if err != nil {
		b.Fatal(err)
	}
	q, err := sql.ParseQuery(workload.Example3Query)
	if err != nil {
		b.Fatal(err)
	}
	for _, disabled := range []bool{false, true} {
		opt := core.NewOptimizer(store)
		opt.DisablePredicateExpansion = disabled
		r, err := opt.Optimize(q)
		if err != nil {
			b.Fatal(err)
		}
		if r.Alternative == nil {
			b.Fatal("transformation unavailable")
		}
		name := "WithExpansion"
		if disabled {
			name = "WithoutExpansion"
		}
		plan := r.Alternative
		b.Run(name, func(b *testing.B) { benchPlan(b, store, plan, -1) })
	}
}

// BenchmarkOrderExploitation measures the Section 7 interesting-order
// exploitation under forced strategies: the transformed plan's eager
// aggregation, sort-based, leaves its output ordered on GA1+, letting the
// merge join above skip its left-side sort. The ablation finding (recorded
// in EXPERIMENTS.md): skipping that sort is real, but paying an N-row sort
// in the grouping operator to get there loses to hashing the N rows and
// ordering the G groups afterwards — at this scale and, measured by
// exec.BenchmarkOrderByOverGrouping, also when the grouped output must be
// sorted anyway. So the executor streams only over an order it is handed
// and never sorts rows to create one (DESIGN.md §19).
func BenchmarkOrderExploitation(b *testing.B) {
	store, err := workload.EmployeeDepartment(100000, 1000)
	if err != nil {
		b.Fatal(err)
	}
	_, transformed := plansFor(b, store, workload.Example1Query)
	if transformed == nil {
		b.Fatal("transformation not available")
	}
	cases := []struct {
		name string
		opts exec.Options
	}{
		{"HashGroup_HashJoin", exec.Options{Group: exec.GroupHash, Join: exec.JoinHash}},
		{"SortGroup_MergeJoin_Exploited", exec.Options{Group: exec.GroupSort, Join: exec.JoinSortMerge}},
		{"HashGroup_MergeJoin_Unexploited", exec.Options{Group: exec.GroupHash, Join: exec.JoinSortMerge}},
	}
	for _, c := range cases {
		opts := c.opts
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Run(transformed, store, &opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroupStrategies compares hash vs sort grouping on the Figure 1
// instance.
func BenchmarkGroupStrategies(b *testing.B) {
	store, err := workload.EmployeeDepartment(10000, 100)
	if err != nil {
		b.Fatal(err)
	}
	standard, _ := plansFor(b, store, workload.Example1Query)
	for _, strat := range []exec.GroupStrategy{exec.GroupHash, exec.GroupSort} {
		b.Run(strat.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Run(standard, store, &exec.Options{Group: strat}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
