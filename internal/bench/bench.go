// Package bench is the experiment harness behind EXPERIMENTS.md and the
// cmd/gbj-bench tool: it runs a query under both the standard plan (group
// after join) and the transformed plan (group before join), collects the
// per-operator cardinalities the paper annotates its plan diagrams with
// (Figures 1 and 8), measures wall time, and verifies that both plans
// produce identical multisets before reporting anything.
package bench

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/value"
)

// JoinStat is the measured shape of one join: the paper's "N x M" plan
// annotations.
type JoinStat struct {
	LeftRows, RightRows, OutRows int64
}

// String renders "10000 x 100 -> 10000".
func (j JoinStat) String() string {
	return fmt.Sprintf("%d x %d -> %d", j.LeftRows, j.RightRows, j.OutRows)
}

// PlanRun is one measured execution of a plan.
type PlanRun struct {
	Label string
	Plan  algebra.Node
	// OutRows is the result cardinality.
	OutRows int64
	// Joins lists each join's input/output cardinalities, outermost
	// first.
	Joins []JoinStat
	// GroupInput and GroupOutput are the grouping operator's
	// cardinalities (the paper's central trade-off quantities).
	GroupInput, GroupOutput int64
	// Duration is the wall time of the fastest repetition.
	Duration time.Duration
	// Vectorize records whether the run used the columnar batch engine.
	Vectorize bool
	// InputRows totals the rows produced by the plan's leaves (scans and
	// values) — the work volume behind the run records' rows_per_sec.
	InputRows int64
	// Ann carries the measured per-node cardinalities for plan display.
	Ann algebra.Annotations
	// Metrics is the per-operator collector of the last repetition: rows
	// in/out, wall times, hash-table build/probe statistics, state bytes
	// and per-worker morsel counts, keyed by plan node.
	Metrics *obs.Collector
	// Fallbacks counts budget degradations: 1 when the measured plan blew
	// the memory budget and the run switched to the governed fallback plan
	// (Plan, Label and all stats then describe the fallback).
	Fallbacks int

	checksum []string
}

// Tree renders the plan with measured cardinalities.
func (r *PlanRun) Tree() string { return algebra.Format(r.Plan, r.Ann) }

// Governed bundles the query-lifecycle settings of a governed run: a
// context carrying a deadline or cancellation, a per-run cap on operator
// state bytes, and — optionally — a lazy fallback plan to degrade to when
// the measured plan exceeds the budget, mirroring the engine's graceful
// degradation.
type Governed struct {
	// Context cancels or deadlines the run; nil means none.
	Context context.Context
	// MemoryBudget caps operator state bytes per execution; 0 is unlimited.
	MemoryBudget int64
	// Fallback, when non-nil, is executed instead after a budget abort; the
	// run's Fallbacks counter records the switch.
	Fallback algebra.Node
	// Vectorize runs the plan through the columnar batch engine instead of
	// the row-at-a-time engine; results are identical either way.
	Vectorize bool
}

func (g Governed) ctx() context.Context {
	if g.Context == nil {
		return context.Background()
	}
	return g.Context
}

// RunPlan executes the plan reps times (at least once) with the given
// executor worker count (0 or 1 serial, negative one worker per CPU) under
// g's lifecycle governance, recording operator cardinalities and the
// fastest wall time. A repetition that trips the memory budget degrades the
// whole run to g.Fallback (when set): the plan, label, cardinalities and
// metrics then describe the fallback plan, and Fallbacks records the switch.
// Without a fallback, the budget abort — like a cancellation — fails the run
// with the executor's typed error.
func RunPlan(label string, plan algebra.Node, store *storage.Store, reps, parallelism int, g Governed) (*PlanRun, error) {
	if reps < 1 {
		reps = 1
	}
	run := &PlanRun{Label: label, Plan: plan, Vectorize: g.Vectorize}
	var rows []value.Row
	for i := 0; i < reps; i++ {
		col := obs.NewCollector() // fresh per rep: counters accumulate otherwise
		start := time.Now()
		res, err := exec.Run(plan, store, &exec.Options{
			Metrics: col, Parallelism: parallelism, Vectorize: g.Vectorize,
			Context: g.ctx(), MemoryBudget: g.MemoryBudget,
		})
		elapsed := time.Since(start)
		var re *exec.ResourceError
		if err != nil && run.Fallbacks == 0 && g.Fallback != nil && errors.As(err, &re) {
			// Degrade once, for this and every remaining repetition: the
			// first over-budget rep restarts the loop on the fallback plan.
			run.Fallbacks = 1
			run.Label = label + " [over budget: fell back to lazy plan]"
			plan, run.Plan = g.Fallback, g.Fallback
			run.Duration = 0
			i = -1
			continue
		}
		if err != nil {
			return nil, err
		}
		if i == 0 || elapsed < run.Duration {
			run.Duration = elapsed
		}
		rows = res.Rows
		run.Metrics = col
	}
	run.Ann = make(algebra.Annotations)
	algebra.Walk(plan, func(n algebra.Node) {
		if m := run.Metrics.Lookup(n); m != nil {
			run.Ann[n] = algebra.Annotation{Rows: m.RowsOut.Load()}
		}
	})
	run.OutRows = int64(len(rows))
	run.checksum = canonical(rows)
	extractStats(plan, run)
	return run, nil
}

// extractStats pulls the join and grouping cardinalities out of the
// measured annotations.
func extractStats(plan algebra.Node, run *PlanRun) {
	algebra.Walk(plan, func(n algebra.Node) {
		if len(n.Children()) == 0 {
			run.InputRows += run.Ann[n].Rows
		}
		switch node := n.(type) {
		case *algebra.Join:
			run.Joins = append(run.Joins, JoinStat{
				LeftRows:  run.Ann[node.L].Rows,
				RightRows: run.Ann[node.R].Rows,
				OutRows:   run.Ann[node].Rows,
			})
		case *algebra.Product:
			run.Joins = append(run.Joins, JoinStat{
				LeftRows:  run.Ann[node.L].Rows,
				RightRows: run.Ann[node.R].Rows,
				OutRows:   run.Ann[node].Rows,
			})
		case *algebra.GroupBy:
			run.GroupInput = run.Ann[node.Input].Rows
			run.GroupOutput = run.Ann[node].Rows
		}
	})
}

func canonical(rows []value.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = value.GroupKeyAll(r)
	}
	sort.Strings(keys)
	return keys
}

func sameChecksum(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Comparison is a measured standard-vs-transformed experiment.
type Comparison struct {
	Query    string
	Report   *core.Report
	Standard *PlanRun
	// Transformed is nil when the transformation is invalid or not
	// applicable.
	Transformed *PlanRun
}

// Speedup returns standard time / transformed time (0 when not available).
func (c *Comparison) Speedup() float64 {
	if c.Transformed == nil || c.Transformed.Duration == 0 {
		return 0
	}
	return float64(c.Standard.Duration) / float64(c.Transformed.Duration)
}

// FallbackCount totals the budget degradations across both measured runs.
func (c *Comparison) FallbackCount() int {
	n := 0
	if c.Standard != nil {
		n += c.Standard.Fallbacks
	}
	if c.Transformed != nil {
		n += c.Transformed.Fallbacks
	}
	return n
}

// CompareForward runs the full pipeline on a query: optimize, execute both
// plans (when the transformation is valid) and verify equivalence. The
// worker count and the vectorized-engine toggle are also passed to the
// optimizer's cost model, so plan selection prices the engine that will run
// the plans. Both plans run under gov, and an over-budget transformed
// (eager) plan degrades to the standard plan — the lazy shape is never
// fallback-eligible, since it has nothing cheaper to degrade to.
func CompareForward(store *storage.Store, query string, reps, parallelism int, gov Governed) (*Comparison, error) {
	q, err := sql.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	opt := core.NewOptimizer(store)
	opt.Parallelism = parallelism
	opt.Vectorize = gov.Vectorize
	report, err := opt.Optimize(q)
	if err != nil {
		return nil, err
	}
	c := &Comparison{Query: query, Report: report}
	if c.Standard, err = RunPlan("standard (group after join)", report.Standard, store, reps, parallelism, gov); err != nil {
		return nil, err
	}
	if report.Alternative == nil {
		return c, nil
	}
	gov.Fallback = report.Standard
	if c.Transformed, err = RunPlan("transformed (group before join)", report.Alternative, store, reps, parallelism, gov); err != nil {
		return nil, err
	}
	if !sameChecksum(c.Standard.checksum, c.Transformed.checksum) {
		return nil, fmt.Errorf("bench: plans disagree on %q — Main Theorem violation", query)
	}
	return c, nil
}

// CompareReverse runs the Section 8 experiment: nested (materialize the
// view) vs flat (join first), verifying equivalence, under gov like
// CompareForward. The nested plan materializes the aggregated view — a
// group-before-join — so when the reverse transformation is valid it
// degrades to the flat join-first plan on a budget abort.
func CompareReverse(store *storage.Store, query string, reps, parallelism int, gov Governed) (*Comparison, error) {
	q, err := sql.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	opt := core.NewOptimizer(store)
	opt.Parallelism = parallelism
	opt.Vectorize = gov.Vectorize
	rr, err := opt.TryReverse(q)
	if err != nil {
		return nil, err
	}
	if rr.Applicable && rr.Decision.OK {
		gov.Fallback = rr.FlatPlan
	}
	c := &Comparison{Query: query}
	if c.Standard, err = RunPlan("nested (materialize view, then join)", rr.Nested, store, reps, parallelism, gov); err != nil {
		return nil, err
	}
	if !rr.Applicable || !rr.Decision.OK {
		return c, nil
	}
	gov.Fallback = nil
	if c.Transformed, err = RunPlan("flat (join before group-by)", rr.FlatPlan, store, reps, parallelism, gov); err != nil {
		return nil, err
	}
	if !sameChecksum(c.Standard.checksum, c.Transformed.checksum) {
		return nil, fmt.Errorf("bench: reverse plans disagree on %q", query)
	}
	return c, nil
}

// Table renders the comparison in the shape of the paper's plan-diagram
// annotations plus measured times.
func (c *Comparison) Table() string {
	var sb strings.Builder
	row := func(label string, r *PlanRun) {
		if r == nil {
			fmt.Fprintf(&sb, "%-34s (not run)\n", label)
			return
		}
		if r.Fallbacks > 0 {
			label = r.Label // carries the over-budget fallback marker
		}
		joins := make([]string, len(r.Joins))
		for i, j := range r.Joins {
			joins[i] = j.String()
		}
		fmt.Fprintf(&sb, "%-34s join %-28s  group %7d -> %-7d  out %6d  %12v\n",
			label, strings.Join(joins, "; "), r.GroupInput, r.GroupOutput, r.OutRows, r.Duration)
	}
	row("standard (group after join)", c.Standard)
	if c.Transformed != nil {
		row("transformed (group before join)", c.Transformed)
		fmt.Fprintf(&sb, "speedup: %.2fx\n", c.Speedup())
	} else if c.Report != nil {
		fmt.Fprintf(&sb, "transformation not applied: %s\n", c.Report.WhyNot)
	}
	return sb.String()
}
