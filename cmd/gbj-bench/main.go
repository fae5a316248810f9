// Command gbj-bench runs the reproduction's experiments — one per figure or
// worked example in the paper — and prints paper-style tables: operator
// cardinalities (matching the plan-diagram annotations of Figures 1 and 8),
// wall times for both plans, and the optimizer's decision.
//
// Usage:
//
//	gbj-bench                  # run every experiment
//	gbj-bench -exp E1,E5       # run a subset
//	gbj-bench -reps 5          # repetitions per measurement (fastest wins)
//	gbj-bench -parallelism -1  # parallel execution, one worker per CPU
//	gbj-bench -vectorize       # columnar batch execution (identical rows)
//	gbj-bench -nodes 4         # cluster size for the distributed experiment (E12)
//	gbj-bench -shards 8        # hash shards per table (power of two; 0 = one per node)
//	gbj-bench -timeout 30s     # per-measurement deadline
//	gbj-bench -mem-budget 1048576  # per-execution state-byte cap; an
//	                               # over-budget eager plan degrades to the
//	                               # lazy plan (recorded as a fallback)
//	gbj-bench -spill-dir /tmp/gbj  # with -mem-budget, spill over-budget
//	                               # operator state to temp files instead of
//	                               # degrading; E15 sweeps budgets either way
//	gbj-bench -exp E17             # closed-loop server load: 64 concurrent
//	                               # sessions against an in-process gbj-server
//	gbj-bench -exp E17 -server http://127.0.0.1:7432
//	                               # ...or against an already-running daemon
//
// Flag values are validated up front: -parallelism below -1, -nodes below
// 1, and non-power-of-two -shards are rejected with an error (exit 2)
// instead of being clamped silently.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/workload"
)

// knobs are the engine flags every experiment runs under: the executor
// worker count (0 or 1 serial, n > 1 that many workers, negative one per
// CPU), the columnar batch engine toggle (E13 compares the two engines
// directly and ignores it), the per-execution operator-state byte cap and
// the spill directory that lets budgeted measurements spill instead of
// aborting or degrading (E15 defaults to a sweep area under the system temp
// directory), the simulated cluster of the distributed experiments (E12,
// E16), and the per-shipment retry budget of the fault-rate sweep (E16),
// which caps the sweep's fault counts — larger schedules would make recovery
// impossible.
var knobs = cliutil.EngineFlags{Nodes: 4, LinkRetries: 8}

// timeout is the per-measurement deadline, 0 for none.
var timeout time.Duration

// serverURL, when non-empty, points the server load experiment (E17) at an
// already-running gbj-server instead of the in-process one it starts by
// default.
var serverURL string

// measureCtx returns the context one measurement runs under.
func measureCtx() (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.Background(), func() {}
}

// governed is the lifecycle bundle both comparisons run under: the
// measurement context plus the tool's budget, engine and spill settings.
func governed(ctx context.Context) bench.Governed {
	return bench.Governed{Context: ctx, MemoryBudget: knobs.MemBudget, Vectorize: knobs.Vectorize, SpillDir: knobs.SpillDir}
}

// compareForward runs a governed forward comparison with the tool's
// timeout, budget and parallelism settings.
func compareForward(store *storage.Store, query string, reps int) (*bench.Comparison, error) {
	ctx, cancel := measureCtx()
	defer cancel()
	return bench.CompareForward(store, query, reps, knobs.Parallelism, governed(ctx))
}

// compareReverse is compareForward for the Section 8 reverse experiment.
func compareReverse(store *storage.Store, query string, reps int) (*bench.Comparison, error) {
	ctx, cancel := measureCtx()
	defer cancel()
	return bench.CompareReverse(store, query, reps, knobs.Parallelism, governed(ctx))
}

// record, when non-nil, accumulates every comparison as a machine-readable
// run record (the -json flag).
var record *bench.File

// addRecord appends a comparison to the JSON output when -json is active.
func addRecord(experiment, note string, c *bench.Comparison) {
	if record != nil {
		record.Add(experiment, note, knobs.Parallelism, c)
	}
}

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids (E1..E8) or 'all'")
	reps := flag.Int("reps", 3, "repetitions per measurement")
	jsonPath := flag.String("json", "", "also write machine-readable run records (per-operator metrics included) to this file")
	knobs.Register(flag.CommandLine, map[string]string{
		"parallelism": "", "shards": "",
		"vectorize":    "columnar batch execution for every experiment (E13 always compares both engines)",
		"nodes":        "simulated cluster size for the distributed experiment (E12)",
		"link-retries": "per-shipment link retry budget for the fault-rate sweep (E16)",
		"mem-budget":   "per-execution operator-state byte cap (0 = unlimited); over-budget eager plans degrade to the lazy plan",
		"spill-dir":    "directory for spill temp files; with -mem-budget set, over-budget operators spill to disk instead of degrading (empty = spilling off; E15 uses a default sweep area)",
	})
	flag.DurationVar(&timeout, "timeout", 0, "per-measurement deadline (0 = none)")
	flag.StringVar(&serverURL, "server", "", "base URL of a running gbj-server for the load experiment (E17), e.g. http://127.0.0.1:7432 (empty = start one in-process)")
	flag.Parse()
	for _, err := range []error{
		knobs.Validate(),
		validateServerURL(serverURL),
	} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "gbj-bench:", err)
			os.Exit(2)
		}
	}
	if *jsonPath != "" {
		record = &bench.File{Tool: "gbj-bench"}
	}

	want := map[string]bool{}
	if *expFlag == "all" {
		for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E12", "E13", "E15", "E16", "E17"} {
			want[id] = true
		}
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	runners := []struct {
		id, title string
		run       func(reps int) error
	}{
		{"E1", "Figure 1 — Example 1, group-by pushdown wins", runE1},
		{"E2", "Figure 8 / Example 4 — transformation valid but harmful", runE2},
		{"E3", "Example 3 — TestFD on the printer query", runE3},
		{"E4", "Example 5 / Section 8 — reverse transformation", runE4},
		{"E5", "Section 7 — join selectivity sweep (crossover)", runE5},
		{"E6", "Section 7 — group count sweep", runE6},
		{"E7", "Section 7 — distributed communication cost", runE7},
		{"E8", "Section 7 — optimizer decision accuracy over a parameter grid", runE8},
		{"E12", "Section 7 — eager vs lazy shipping on a simulated cluster (measured bytes)", runE12},
		{"E13", "row-at-a-time vs vectorized execution (throughput)", runE13},
		{"E15", "spill-to-disk budget sweep (in-memory vs external crossover)", runE15},
		{"E16", "fault-rate sweep — recovery cost under injected link faults", runE16},
		{"E17", "closed-loop server load — concurrent sessions, admission, plan-cache p50/p99", runE17},
	}
	failed := false
	for _, r := range runners {
		if !want[r.id] {
			continue
		}
		fmt.Printf("==================================================================\n")
		fmt.Printf("%s: %s\n", r.id, r.title)
		fmt.Printf("==================================================================\n")
		if err := r.run(*reps); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.id, err)
			failed = true
		}
		fmt.Println()
	}
	if record != nil {
		if err := record.WriteFile(*jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "writing", *jsonPath, "failed:", err)
			failed = true
		} else {
			fmt.Printf("wrote %d run records to %s\n", len(record.Runs), *jsonPath)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func runE1(reps int) error {
	store, err := workload.EmployeeDepartment(10000, 100)
	if err != nil {
		return err
	}
	c, err := compareForward(store, workload.Example1Query, reps)
	if err != nil {
		return err
	}
	fmt.Println("paper: Plan 1 joins 10000 x 100 -> 10000, groups 10000 -> 100;")
	fmt.Println("       Plan 2 groups 10000 -> 100, joins 100 x 100 -> 100")
	fmt.Println()
	fmt.Print(c.Table())
	fmt.Printf("optimizer choice: transformed=%v\n", c.Report.Transformed)
	addRecord("E1", "", c)
	return nil
}

func runE2(reps int) error {
	store, err := workload.Figure8(workload.Figure8Defaults)
	if err != nil {
		return err
	}
	c, err := compareForward(store, workload.Figure8Query, reps)
	if err != nil {
		return err
	}
	fmt.Println("paper: Plan 1 joins 10000 x 100 -> 50, groups 50 -> 10;")
	fmt.Println("       Plan 2 groups 10000 -> ~9000, joins ~9000 x 100")
	fmt.Println()
	fmt.Print(c.Table())
	fmt.Printf("optimizer choice: transformed=%v (must be false)\n", c.Report.Transformed)
	addRecord("E2", "", c)
	return nil
}

func runE3(reps int) error {
	store, err := workload.Printers(workload.PrinterDefaults)
	if err != nil {
		return err
	}
	// Show the TestFD trace the paper walks through in Section 6.3.
	q, err := sql.ParseQuery(workload.Example3Query)
	if err != nil {
		return err
	}
	opt := core.NewOptimizer(store)
	r, err := opt.Optimize(q)
	if err != nil {
		return err
	}
	fmt.Println(r.Shape.String())
	fmt.Println()
	fmt.Println(r.Decision.TraceString())
	fmt.Printf("\nTestFD answer: %v (paper: YES)\n\n", r.Decision.OK)
	c, err := compareForward(store, workload.Example3Query, reps)
	if err != nil {
		return err
	}
	fmt.Print(c.Table())
	addRecord("E3", "", c)
	return nil
}

func runE4(reps int) error {
	store, err := workload.Printers(workload.PrinterDefaults)
	if err != nil {
		return err
	}
	if err := workload.RegisterUserInfoView(store); err != nil {
		return err
	}
	c, err := compareReverse(store, workload.Example5Query, reps)
	if err != nil {
		return err
	}
	fmt.Println("nested = materialize UserInfo view, then join;")
	fmt.Println("flat   = merged single query (join before group-by, Section 8)")
	fmt.Println()
	fmt.Print(c.Table())
	addRecord("E4", "", c)
	return nil
}

func runE5(reps int) error {
	fmt.Printf("%-10s  %-14s  %-14s  %-9s  %s\n",
		"match", "standard", "transformed", "speedup", "optimizer picks")
	for _, match := range []float64{0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0} {
		store, err := workload.Sweep(workload.SweepParams{
			FactRows: 50000, DimRows: 100, Groups: 100, MatchFraction: match, Seed: 42,
		})
		if err != nil {
			return err
		}
		c, err := compareForward(store, workload.SweepQueryGroupByDim, reps)
		if err != nil {
			return err
		}
		choice := "standard"
		if c.Report.Transformed {
			choice = "transformed"
		}
		fmt.Printf("%-10g  %-14v  %-14v  %-9.2f  %s\n",
			match, c.Standard.Duration, c.Transformed.Duration, c.Speedup(), choice)
		addRecord("E5", fmt.Sprintf("match=%g", match), c)
	}
	return nil
}

func runE6(reps int) error {
	fmt.Printf("%-10s  %-14s  %-14s  %-9s  %s\n",
		"groups", "standard", "transformed", "speedup", "optimizer picks")
	for _, groups := range []int{10, 100, 1000, 10000, 50000} {
		store, err := workload.Sweep(workload.SweepParams{
			FactRows: 50000, DimRows: groups, Groups: groups, MatchFraction: 1.0, Seed: 42,
		})
		if err != nil {
			return err
		}
		c, err := compareForward(store, workload.SweepQueryGroupByDim, reps)
		if err != nil {
			return err
		}
		choice := "standard"
		if c.Report.Transformed {
			choice = "transformed"
		}
		fmt.Printf("%-10d  %-14v  %-14v  %-9.2f  %s\n",
			groups, c.Standard.Duration, c.Transformed.Duration, c.Speedup(), choice)
		addRecord("E6", fmt.Sprintf("groups=%d", groups), c)
	}
	return nil
}

func runE7(int) error {
	store, err := workload.EmployeeDepartment(10000, 100)
	if err != nil {
		return err
	}
	q, err := sql.ParseQuery(workload.Example1Query)
	if err != nil {
		return err
	}
	opt := core.NewOptimizer(store)
	b, err := opt.Planner().Bind(q)
	if err != nil {
		return err
	}
	shape, err := core.Normalize(b, nil)
	if err != nil {
		return err
	}
	model := core.NewCostModel(core.NewStoreStats(store), b)
	dc, err := model.EstimateDistributed(opt.Planner(), shape)
	if err != nil {
		return err
	}
	fmt.Println("scenario: R1 (Employee) and R2 (Department) at different sites;")
	fmt.Println("the join executes at R2's site (paper Section 7, distributed bullet)")
	fmt.Println()
	fmt.Printf("rows shipped, standard plan (all of sigma[C1]R1): %8.0f\n", dc.StandardRowsShipped)
	fmt.Printf("rows shipped, transformed plan (one per group):    %8.0f\n", dc.TransformedRowsShipped)
	fmt.Printf("reduction: %.0fx\n", dc.StandardRowsShipped/dc.TransformedRowsShipped)
	return nil
}

// runE8 quantifies Section 7's closing point — "Ultimately, the choice is
// determined by the estimated cost of the two plans" — by measuring, over
// a grid of join selectivities and group counts, how often the cost-based
// decision matches the empirically faster plan.
func runE8(reps int) error {
	fmt.Printf("%-10s %-8s  %-11s  %-11s  %-12s %-9s %s\n",
		"match", "groups", "standard", "transformed", "picked", "winner", "agree")
	total, agree := 0, 0
	for _, match := range []float64{0.01, 0.1, 0.5, 1.0} {
		for _, groups := range []int{10, 200, 5000} {
			store, err := workload.Sweep(workload.SweepParams{
				FactRows: 20000, DimRows: groups, Groups: groups,
				MatchFraction: match, Seed: 42,
			})
			if err != nil {
				return err
			}
			c, err := compareForward(store, workload.SweepQueryGroupByDim, reps)
			if err != nil {
				return err
			}
			picked := "standard"
			if c.Report.Transformed {
				picked = "transformed"
			}
			winner := "standard"
			if c.Transformed != nil && c.Transformed.Duration < c.Standard.Duration {
				winner = "transformed"
			}
			ok := picked == winner
			total++
			if ok {
				agree++
			}
			addRecord("E8", fmt.Sprintf("match=%g groups=%d", match, groups), c)
			fmt.Printf("%-10g %-8d  %-11v  %-11v  %-12s %-9s %v\n",
				match, groups, c.Standard.Duration.Round(time.Microsecond*100),
				c.Transformed.Duration.Round(time.Microsecond*100), picked, winner, ok)
		}
	}
	fmt.Printf("\ndecision accuracy: %d/%d grid points\n", agree, total)
	return nil
}

// runE12 measures what E7 estimates: both shipping strategies execute on a
// simulated cluster with byte-accounted links, sweeping the group count at
// a fixed fact-table size. With few groups the eager strategy ships one
// partial row per node-local group — a fraction of the lazy strategy's
// per-detail-row shipping — and as groups approach the row count the
// advantage collapses toward parity, the communication-cost twin of the
// Figure 8 crossover.
func runE12(reps int) error {
	if knobs.Nodes < 2 {
		return fmt.Errorf("E12 needs a cluster: pass -nodes 2 or more (got %d)", knobs.Nodes)
	}
	fmt.Printf("cluster: %d nodes, %s; fact table: 50000 rows\n\n", knobs.Nodes, shardDesc())
	fmt.Printf("%-10s  %12s  %12s  %10s  %s\n",
		"groups", "lazy_bytes", "eager_bytes", "reduction", "result rows")
	for _, groups := range []int{10, 100, 1000, 10000, 50000} {
		store, err := workload.Sweep(workload.SweepParams{
			FactRows: 50000, DimRows: groups, Groups: groups, MatchFraction: 1.0, Seed: 42,
		})
		if err != nil {
			return err
		}
		ctx, cancel := measureCtx()
		c, err := bench.CompareDistributed(ctx, store, workload.SweepQueryGroupByDim, reps, knobs.Nodes, knobs.Shards, knobs.Parallelism)
		cancel()
		if err != nil {
			return err
		}
		lazy, eager := c.Standard.CommBytes(), c.Transformed.CommBytes()
		fmt.Printf("%-10d  %12d  %12d  %9.2fx  %d\n",
			groups, lazy, eager, float64(lazy)/float64(eager), c.Standard.OutRows)
		addRecord("E12", fmt.Sprintf("groups=%d nodes=%d", groups, knobs.Nodes), c)
	}
	return nil
}

// runE13 measures the vectorized engine against the row engine on the same
// plans: the Figure 1 workload (10000 employees, 100 departments — the E9
// differential-harness workload) plus a group-count sweep. Both engines run
// the optimizer's standard (lazy) plan so the comparison isolates the data
// representation; every pair must return identical result multisets — that
// is the `make bench-compare` gate. The timings are a table, not a gate: which
// engine is faster on a given shape is a measurement for the "batch face by
// default" decision, not a property either engine owes the other.
func runE13(reps int) error {
	type point struct {
		note  string
		query string
		store func() (*storage.Store, error)
	}
	points := []point{
		{"figure1 (10000x100)", workload.Example1Query, func() (*storage.Store, error) {
			return workload.EmployeeDepartment(10000, 100)
		}},
	}
	for _, groups := range []int{10, 1000, 10000} {
		groups := groups
		points = append(points, point{
			fmt.Sprintf("sweep groups=%d", groups), workload.SweepQueryGroupByDim,
			func() (*storage.Store, error) {
				return workload.Sweep(workload.SweepParams{
					FactRows: 50000, DimRows: groups, Groups: groups,
					MatchFraction: 1.0, Seed: 42,
				})
			},
		})
	}
	fmt.Printf("%-22s  %-14s  %-14s  %12s  %12s  %s\n",
		"workload", "row", "vectorized", "row rows/s", "vec rows/s", "speedup")
	for _, p := range points {
		store, err := p.store()
		if err != nil {
			return err
		}
		q, err := sql.ParseQuery(p.query)
		if err != nil {
			return err
		}
		report, err := core.NewOptimizer(store).Optimize(q)
		if err != nil {
			return err
		}
		plan := report.Standard
		ctx, cancel := measureCtx()
		rowRun, err := bench.RunPlan("row engine", plan, store, reps, knobs.Parallelism,
			bench.Governed{Context: ctx, MemoryBudget: knobs.MemBudget})
		if err == nil {
			var vecRun *bench.PlanRun
			vecRun, err = bench.RunPlan("vectorized engine", plan, store, reps, knobs.Parallelism,
				bench.Governed{Context: ctx, MemoryBudget: knobs.MemBudget, Vectorize: true})
			if err == nil {
				if !rowRun.SameRows(vecRun) {
					cancel()
					return fmt.Errorf("E13 %s: vectorized rows differ from the row engine", p.note)
				}
				speedup := float64(rowRun.Duration) / float64(vecRun.Duration)
				fmt.Printf("%-22s  %-14v  %-14v  %12.0f  %12.0f  %.2fx\n",
					p.note, rowRun.Duration, vecRun.Duration,
					rowThroughput(rowRun), rowThroughput(vecRun), speedup)
				addRecord("E13", p.note, &bench.Comparison{
					Query: p.query, Standard: rowRun, Transformed: vecRun,
				})
			}
		}
		cancel()
		if err != nil {
			return err
		}
	}
	return nil
}

// runE15 measures the spill crossover the budget governor enables: one
// workload (50000 fact rows joined and grouped over a 10000-row dimension)
// executed under a descending sweep of memory budgets with spilling on.
// Every budgeted run must return exactly the rows of the unbudgeted
// in-memory reference; the table shows the budget at which operator state
// starts going to disk (grace-join partitions, external aggregation, sorted
// runs) and what the disk traffic costs in wall time.
func runE15(reps int) error {
	store, err := workload.Sweep(workload.SweepParams{
		FactRows: 50000, DimRows: 10000, Groups: 10000,
		MatchFraction: 1.0, Seed: 42,
	})
	if err != nil {
		return err
	}
	q, err := sql.ParseQuery(workload.SweepQueryGroupByDim)
	if err != nil {
		return err
	}
	report, err := core.NewOptimizer(store).Optimize(q)
	if err != nil {
		return err
	}
	plan := report.Standard
	dir := knobs.SpillDir
	if dir == "" {
		//lint:ignore spillcleanup the sweep needs a default spill area; every file under it comes from a SpillManager, and the directory itself is removed below
		dir = filepath.Join(os.TempDir(), "gbj-bench-spill")
		defer os.RemoveAll(dir)
	}
	ctx, cancel := measureCtx()
	defer cancel()
	ref, err := bench.RunPlan("in-memory reference", plan, store, reps, knobs.Parallelism,
		bench.Governed{Context: ctx, Vectorize: knobs.Vectorize})
	if err != nil {
		return err
	}
	fmt.Printf("reference (no budget): %v for %d result rows\n\n", ref.Duration, ref.OutRows)
	fmt.Printf("%-10s  %-14s  %12s  %8s  %s\n", "budget", "time", "spill bytes", "vs ref", "rows")
	for _, budget := range []int64{4 << 20, 1 << 20, 256 << 10, 64 << 10} {
		run, err := bench.RunPlan(fmt.Sprintf("budget %s", budgetLabel(budget)),
			plan, store, reps, knobs.Parallelism,
			bench.Governed{Context: ctx, MemoryBudget: budget, Vectorize: knobs.Vectorize, SpillDir: dir})
		if err != nil {
			return fmt.Errorf("E15 budget %s: %w", budgetLabel(budget), err)
		}
		if !run.SameRows(ref) {
			return fmt.Errorf("E15 budget %s: spilled rows differ from the in-memory reference", budgetLabel(budget))
		}
		gov := run.Metrics.Gov()
		fmt.Printf("%-10s  %-14v  %12d  %7.2fx  %s\n",
			budgetLabel(budget), run.Duration, gov.SpillBytes,
			float64(run.Duration)/float64(ref.Duration), "identical")
		addRecord("E15", fmt.Sprintf("budget=%d spill_bytes=%d", budget, gov.SpillBytes),
			&bench.Comparison{Query: workload.SweepQueryGroupByDim, Standard: ref, Transformed: run})
	}
	return nil
}

// runE16 measures what fault tolerance costs: the E12 workload's eager
// distributed plan under a sweep of seeded link-fault schedules (at most
// 1, 2, 4, ... faults per run, capped at the -link-retries budget so every
// schedule is survivable). Each faulted run must return exactly the rows of
// its fault-free reference — the recovery counters, not the row counts, are
// what varies with the fault rate. Backoffs run on a virtual clock, so the
// "recovered" column is retry and re-execution work, not sleeping.
func runE16(int) error {
	if knobs.Nodes < 2 {
		return fmt.Errorf("E16 needs a cluster: pass -nodes 2 or more (got %d)", knobs.Nodes)
	}
	store, err := workload.Sweep(workload.SweepParams{
		FactRows: 20000, DimRows: 100, Groups: 100, MatchFraction: 1.0, Seed: 42,
	})
	if err != nil {
		return err
	}
	fmt.Printf("cluster: %d nodes, %s; retry budget: %d per shipment\n\n", knobs.Nodes, shardDesc(), knobs.LinkRetries)
	fmt.Printf("%-10s  %-14s  %-14s  %8s  %10s  %s\n",
		"faults<=", "fault-free", "recovered", "retries", "failovers", "rows")
	for _, faults := range []int{1, 2, 4, 8} {
		if faults > knobs.LinkRetries {
			fmt.Printf("%-10d  (skipped: exceeds the -link-retries budget %d)\n", faults, knobs.LinkRetries)
			continue
		}
		ctx, cancel := measureCtx()
		c, err := bench.CompareRecovered(ctx, store, workload.SweepQueryGroupByDim,
			knobs.Nodes, knobs.Shards, knobs.Parallelism, knobs.LinkRetries, int64(1000+faults), faults)
		cancel()
		if err != nil {
			return fmt.Errorf("E16 faults<=%d: %w", faults, err)
		}
		gov := c.Transformed.Metrics.Gov()
		fmt.Printf("%-10d  %-14v  %-14v  %8d  %10d  %s\n",
			faults, c.Standard.Duration, c.Transformed.Duration,
			gov.LinkRetries, gov.Failovers, "identical")
		addRecord("E16", fmt.Sprintf("faults=%d nodes=%d retries=%d", faults, knobs.Nodes, knobs.LinkRetries), c)
	}
	return nil
}

// budgetLabel renders a byte budget in power-of-two units for the E15 table.
func budgetLabel(b int64) string {
	switch {
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", b>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", b>>10)
	}
	return fmt.Sprintf("%dB", b)
}

// rowThroughput is a run's leaf-row throughput in rows per second.
func rowThroughput(r *bench.PlanRun) float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.InputRows) / r.Duration.Seconds()
}

// shardDesc names the shard configuration for the E12 banner.
func shardDesc() string {
	if knobs.Shards == 0 {
		return "one shard per node"
	}
	return fmt.Sprintf("%d shards per table", knobs.Shards)
}
