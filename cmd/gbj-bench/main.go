// Command gbj-bench runs the paper's experiments — one per figure, worked
// example or Section 7 trade-off — and prints paper-style tables: operator
// cardinalities (matching the plan-diagram annotations of Figures 1 and 8),
// shipped bytes, the TestFD trace and the optimizer's decision, with wall
// times for both plans alongside. It reproduces the paper and nothing else:
// whatever times the engine itself lives in benchmark/ (EXPERIMENTS.md,
// "What times the engine").
//
// Usage:
//
//	gbj-bench                  # run every experiment
//	gbj-bench -exp E1,E5       # run a subset (E1..E8, E12)
//	gbj-bench -reps 5          # repetitions per measurement (fastest wins)
//	gbj-bench -json out.json   # also write machine-readable run records
//	gbj-bench -parallelism -1  # parallel execution, one worker per CPU
//	gbj-bench -vectorize       # columnar batch execution (identical rows)
//	gbj-bench -nodes 4         # cluster size for the distributed experiment (E12)
//	gbj-bench -timeout 30s     # per-measurement deadline
//	gbj-bench -mem-budget 1048576  # per-execution state-byte cap; an
//	                               # over-budget eager plan degrades to the
//	                               # lazy plan (recorded as a fallback)
//
// Every number comes from a gbj.Engine over the experiment's store: the
// standard plan under ModeNever, the transformed one under ModeAlways, the
// cluster's two strategies under Config.DistStrategy. Flag values are
// validated up front by gbj.Config.Validate: an unknown -exp id,
// -parallelism below -1 and a negative -nodes or -mem-budget are rejected
// with an error (exit 2) instead of being dropped or clamped silently.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	gbj "repro"
	"repro/internal/bench"
	"repro/internal/cliutil"
	"repro/internal/storage"
	"repro/internal/workload"
)

// knobs are the engine flags every experiment runs under: the executor
// worker count (0 or 1 serial, n > 1 that many workers, -1 one per CPU),
// the columnar batch engine toggle, the per-execution operator-state byte
// cap, and the simulated cluster of the distributed experiment (E12).
var knobs = cliutil.EngineFlags{Config: gbj.Config{Nodes: 4}}

// knobHelp names the engine flags the tool registers, with their help text.
var knobHelp = map[string]string{
	"parallelism": "",
	"vectorize":   "columnar batch execution for every experiment",
	"nodes":       "simulated cluster size for the distributed experiment (E12)",
	"mem-budget":  "per-execution operator-state byte cap (0 = unlimited); over-budget eager plans degrade to the lazy plan",
}

// timeout is the per-measurement deadline, 0 for none.
var timeout time.Duration

// out is where the experiments print their tables.
var out io.Writer = os.Stdout

// measureCtx returns the context one measurement runs under.
func measureCtx() (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.Background(), func() {}
}

// engineOn returns an engine over store with the tool's settings. Only the
// cluster experiment's engine gets -nodes; every other one runs single-site.
func engineOn(store *storage.Store, cluster bool) (*gbj.Engine, error) {
	e := gbj.NewWithStore(store)
	cfg := knobs.Config
	if !cluster {
		cfg.Nodes = 0
	}
	return e, e.Configure(cfg)
}

// compareForward runs a forward comparison on an engine over store under
// the tool's timeout, returning the engine too.
func compareForward(store *storage.Store, query string, reps int) (*bench.Comparison, *gbj.Engine, error) {
	e, err := engineOn(store, false)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := measureCtx()
	defer cancel()
	c, err := bench.CompareForward(ctx, e, query, reps)
	return c, e, err
}

// record, when non-nil, accumulates every comparison as a machine-readable
// run record (the -json flag).
var record *bench.File

// addRecord appends a comparison to the JSON output when -json is active.
func addRecord(experiment, note string, c *bench.Comparison) {
	if record != nil {
		record.Add(experiment, note, c)
	}
}

// experiments is every experiment the tool runs, in run order. E10 and E11
// of EXPERIMENTS.md are readings of the -json records, not runners.
var experiments = []struct {
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
}

// experimentIDs lists the valid -exp ids in run order.
func experimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// parseExperiments resolves the -exp value to the set of experiments to
// run: "all", or a comma-separated list of ids in either case. An id the
// tool does not have is an error naming the valid ones, never a silent
// skip — a script still asking for a retired experiment must not "pass".
func parseExperiments(arg string) (map[string]bool, error) {
	all := strings.EqualFold(strings.TrimSpace(arg), "all")
	want := map[string]bool{}
	for _, id := range experimentIDs() {
		want[id] = all
	}
	if all {
		return want, nil
	}
	for _, field := range strings.Split(arg, ",") {
		id := strings.ToUpper(strings.TrimSpace(field))
		if _, known := want[id]; !known {
			return nil, fmt.Errorf("-exp: unknown experiment %q; valid ids are %s, or 'all'",
				strings.TrimSpace(field), strings.Join(experimentIDs(), ","))
		}
		want[id] = true
	}
	return want, nil
}

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids ("+strings.Join(experimentIDs(), ",")+") or 'all'")
	reps := flag.Int("reps", 3, "repetitions per measurement")
	jsonPath := flag.String("json", "", "also write machine-readable run records (per-operator metrics included) to this file")
	knobs.Register(flag.CommandLine, knobHelp)
	flag.DurationVar(&timeout, "timeout", 0, "per-measurement deadline (0 = none)")
	flag.Parse()
	want, err := parseExperiments(*expFlag)
	if err == nil {
		_, err = knobs.Validate()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gbj-bench:", err)
		os.Exit(2)
	}
	if *jsonPath != "" {
		record = &bench.File{Tool: "gbj-bench", Parallelism: knobs.Config.Parallelism, Vectorize: knobs.Config.Vectorize}
	}

	failed := !runExperiments(want, *reps)
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

// runExperiments runs the selected experiments in order, printing each
// one's banner and tables and each failure; it reports whether all passed.
func runExperiments(want map[string]bool, reps int) bool {
	ok := true
	for _, r := range experiments {
		if !want[r.id] {
			continue
		}
		fmt.Fprintf(out, "==================================================================\n")
		fmt.Fprintf(out, "%s: %s\n", r.id, r.title)
		fmt.Fprintf(out, "==================================================================\n")
		if err := r.run(reps); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.id, err)
			ok = false
		}
		fmt.Fprintln(out)
	}
	return ok
}

func runE1(reps int) error {
	store, err := workload.EmployeeDepartment(10000, 100)
	if err != nil {
		return err
	}
	c, _, err := compareForward(store, workload.Example1Query, reps)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "paper: Plan 1 joins 10000 x 100 -> 10000, groups 10000 -> 100;")
	fmt.Fprintln(out, "       Plan 2 groups 10000 -> 100, joins 100 x 100 -> 100")
	fmt.Fprintln(out)
	fmt.Fprint(out, c.Table())
	fmt.Fprintf(out, "optimizer choice: transformed=%v\n", c.Picked == "transformed")
	addRecord("E1", "", c)
	return nil
}

func runE2(reps int) error {
	store, err := workload.Figure8(workload.Figure8Defaults)
	if err != nil {
		return err
	}
	c, _, err := compareForward(store, workload.Figure8Query, reps)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "paper: Plan 1 joins 10000 x 100 -> 50, groups 50 -> 10;")
	fmt.Fprintln(out, "       Plan 2 groups 10000 -> ~9000, joins ~9000 x 100")
	fmt.Fprintln(out)
	fmt.Fprint(out, c.Table())
	fmt.Fprintf(out, "optimizer choice: transformed=%v (must be false)\n", c.Picked == "transformed")
	addRecord("E2", "", c)
	return nil
}

func runE3(reps int) error {
	store, err := workload.Printers(workload.PrinterDefaults)
	if err != nil {
		return err
	}
	c, e, err := compareForward(store, workload.Example3Query, reps)
	if err != nil {
		return err
	}
	// The engine's explanation carries the normalization and the TestFD
	// trace the paper walks through in Section 6.3 (paper: YES).
	text, err := e.Explain(workload.Example3Query)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, text)
	fmt.Fprint(out, c.Table())
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
	e, err := engineOn(store, false)
	if err != nil {
		return err
	}
	ctx, cancel := measureCtx()
	defer cancel()
	c, err := bench.CompareReverse(ctx, e, workload.Example5Query, workload.Example5FlatQuery, reps)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "nested = materialize UserInfo view, then join;")
	fmt.Fprintln(out, "flat   = merged single query (join before group-by, Section 8)")
	fmt.Fprintln(out)
	fmt.Fprint(out, c.Table())
	addRecord("E4", "", c)
	return nil
}

// sweep prints one row per point of a Section 7 sweep over the fact/dimension
// workload, labelled by at: both plans' times, the speedup and the engine's
// cost-based pick.
func sweep(id, axis string, points []workload.SweepParams, at func(workload.SweepParams) any, reps int) error {
	fmt.Fprintf(out, "%-10s  %-14s  %-14s  %-9s  %s\n",
		axis, "standard", "transformed", "speedup", "optimizer picks")
	for _, p := range points {
		store, err := workload.Sweep(p)
		if err != nil {
			return err
		}
		c, _, err := compareForward(store, workload.SweepQueryGroupByDim, reps)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-10v  %-14v  %-14v  %-9.2f  %s\n",
			at(p), c.Standard.Duration, c.Transformed.Duration, c.Speedup(), c.Picked)
		addRecord(id, fmt.Sprintf("%s=%v", axis, at(p)), c)
	}
	return nil
}

func runE5(reps int) error {
	var points []workload.SweepParams
	for _, match := range []float64{0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0} {
		points = append(points, workload.SweepParams{
			FactRows: 50000, DimRows: 100, Groups: 100, MatchFraction: match, Seed: 42,
		})
	}
	return sweep("E5", "match", points, func(p workload.SweepParams) any { return p.MatchFraction }, reps)
}

func runE6(reps int) error {
	var points []workload.SweepParams
	for _, groups := range []int{10, 100, 1000, 10000, 50000} {
		points = append(points, workload.SweepParams{
			FactRows: 50000, DimRows: groups, Groups: groups, MatchFraction: 1.0, Seed: 42,
		})
	}
	return sweep("E6", "groups", points, func(p workload.SweepParams) any { return p.Groups }, reps)
}

func runE7(int) error {
	store, err := workload.EmployeeDepartment(10000, 100)
	if err != nil {
		return err
	}
	dc, err := gbj.NewWithStore(store).EstimateDistributed(workload.Example1Query)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "scenario: R1 (Employee) and R2 (Department) at different sites;")
	fmt.Fprintln(out, "the join executes at R2's site (paper Section 7, distributed bullet)")
	fmt.Fprintln(out)
	fmt.Fprintf(out, "rows shipped, standard plan (all of sigma[C1]R1): %8.0f\n", dc.StandardRows)
	fmt.Fprintf(out, "rows shipped, transformed plan (one per group):    %8.0f\n", dc.TransformedRows)
	fmt.Fprintf(out, "reduction: %.0fx\n", dc.StandardRows/dc.TransformedRows)
	return nil
}

// runE8 quantifies Section 7's closing point — "Ultimately, the choice is
// determined by the estimated cost of the two plans" — by measuring, over
// a grid of join selectivities and group counts, how often the engine's
// cost-based decision matches the empirically faster plan.
func runE8(reps int) error {
	fmt.Fprintf(out, "%-10s %-8s  %-11s  %-11s  %-12s %-9s %s\n",
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
			c, _, err := compareForward(store, workload.SweepQueryGroupByDim, reps)
			if err != nil {
				return err
			}
			winner := "standard"
			if c.Transformed != nil && c.Transformed.Duration < c.Standard.Duration {
				winner = "transformed"
			}
			ok := c.Picked == winner
			total++
			if ok {
				agree++
			}
			addRecord("E8", fmt.Sprintf("match=%g groups=%d", match, groups), c)
			fmt.Fprintf(out, "%-10g %-8d  %-11v  %-11v  %-12s %-9s %v\n",
				match, groups, c.Standard.Duration.Round(time.Microsecond*100),
				c.Transformed.Duration.Round(time.Microsecond*100), c.Picked, winner, ok)
		}
	}
	fmt.Fprintf(out, "\ndecision accuracy: %d/%d grid points\n", agree, total)
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
	if knobs.Config.Nodes < 2 {
		return fmt.Errorf("E12 needs a cluster: pass -nodes 2 or more (got %d)", knobs.Config.Nodes)
	}
	fmt.Fprintf(out, "cluster: %d nodes; fact table: 50000 rows\n\n", knobs.Config.Nodes)
	fmt.Fprintf(out, "%-10s  %12s  %12s  %10s  %s\n",
		"groups", "lazy_bytes", "eager_bytes", "reduction", "result rows")
	for _, groups := range []int{10, 100, 1000, 10000, 50000} {
		store, err := workload.Sweep(workload.SweepParams{
			FactRows: 50000, DimRows: groups, Groups: groups, MatchFraction: 1.0, Seed: 42,
		})
		if err != nil {
			return err
		}
		e, err := engineOn(store, true)
		if err != nil {
			return err
		}
		ctx, cancel := measureCtx()
		c, err := bench.CompareDistributed(ctx, e, workload.SweepQueryGroupByDim, reps)
		cancel()
		if err != nil {
			return err
		}
		lazy, eager := c.Standard.CommBytes(), c.Transformed.CommBytes()
		fmt.Fprintf(out, "%-10d  %12d  %12d  %9.2fx  %d\n",
			groups, lazy, eager, float64(lazy)/float64(eager), c.Standard.OutRows)
		addRecord("E12", fmt.Sprintf("groups=%d nodes=%d", groups, knobs.Config.Nodes), c)
	}
	return nil
}
