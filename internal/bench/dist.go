package bench

// Distributed benchmark harness: the same query measured on a simulated
// cluster under the lazy strategy (ship every detail row to the
// coordinator) and the eager strategy (pre-aggregate per node, ship one
// row per local group), with exchange bytes accounted per plan. This is
// the Section 7 communication-cost experiment (E12 in EXPERIMENTS.md) as
// a harness: lazy maps to the Comparison's Standard slot and eager to the
// Transformed slot, so the JSON run records carry both byte totals.

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// CommBytes totals the bytes the run's exchange operators shipped across
// cluster links; 0 for a single-site run.
func (r *PlanRun) CommBytes() int64 {
	if r.Metrics == nil {
		return 0
	}
	var total int64
	algebra.Walk(r.Plan, func(n algebra.Node) {
		if m := r.Metrics.Lookup(n); m != nil {
			total += m.CommBytes.Load()
		}
	})
	return total
}

// CompareDistributed optimizes the query for an n-node cluster, compiles
// the chosen logical plan under both shipping strategies, runs each reps
// times on a freshly partitioned cluster, and verifies that the two
// strategies return identical multisets before reporting anything.
func CompareDistributed(ctx context.Context, store *storage.Store, query string, reps, nodes, shards, parallelism int) (*Comparison, error) {
	q, err := sql.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	opt := core.NewOptimizer(store)
	opt.Parallelism = parallelism
	opt.Nodes = nodes
	report, err := opt.Optimize(q)
	if err != nil {
		return nil, err
	}
	plan := report.Standard
	if report.Transformed && report.Alternative != nil {
		plan = report.Alternative
	}
	cl, err := dist.NewCluster(store, nodes, shards)
	if err != nil {
		return nil, err
	}
	lazy, err := runDistPlan(ctx, cl, plan, dist.StrategyLazy, "lazy (ship detail rows)", reps, parallelism)
	if err != nil {
		return nil, err
	}
	eager, err := runDistPlan(ctx, cl, plan, dist.StrategyEager, "eager (pre-aggregate per node)", reps, parallelism)
	if err != nil {
		return nil, err
	}
	if !slices.Equal(lazy.checksum, eager.checksum) {
		return nil, fmt.Errorf("distributed strategies disagree on %q: lazy %d rows, eager %d rows",
			query, lazy.OutRows, eager.OutRows)
	}
	return &Comparison{Query: query, Report: report, Standard: lazy, Transformed: eager}, nil
}

// runDistPlan compiles the logical plan for the cluster under one
// strategy and measures it like RunPlan does: fastest wall time across
// repetitions, per-operator metrics of the last repetition.
func runDistPlan(ctx context.Context, cl *dist.Cluster, plan algebra.Node, strategy dist.Strategy, label string, reps, parallelism int) (*PlanRun, error) {
	if reps < 1 {
		reps = 1
	}
	if ctx == nil {
		ctx = context.Background()
	}
	dp, err := dist.Compile(plan, dist.Config{Nodes: cl.Nodes(), Strategy: strategy})
	if err != nil {
		return nil, err
	}
	run := &PlanRun{Label: label, Plan: dp.Root}
	var rows []value.Row
	for i := 0; i < reps; i++ {
		col := obs.NewCollector()
		start := time.Now()
		res, err := cl.Run(dp, &exec.Options{
			Group:       exec.GroupHash,
			Parallelism: parallelism,
			Context:     ctx,
			Metrics:     col,
		})
		elapsed := time.Since(start)
		if err != nil {
			return nil, err
		}
		if i == 0 || elapsed < run.Duration {
			run.Duration = elapsed
		}
		rows = res.Rows
		run.Metrics = col
	}
	run.OutRows = int64(len(rows))
	run.checksum = workload.Multiset(rows)
	return run, nil
}
