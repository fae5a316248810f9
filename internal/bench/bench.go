// Package bench is the experiment harness behind EXPERIMENTS.md and the
// cmd/gbj-bench tool. It runs one query on a gbj.Engine under two engine
// settings — the standard plan (group after join) against the transformed
// plan (group before join), a query over a view against its merged flat
// form, lazy against eager shipping on a cluster — collects the
// per-operator cardinalities the paper annotates its plan diagrams with
// (Figures 1 and 8), and verifies that both sides return identical
// multisets before reporting anything. Every number is read from the
// engine's own analysis of a run (gbj.Analysis): the plan it chose and
// verified, the executor settings it ran under, its budget fallback.
package bench

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	gbj "repro"
	"repro/internal/algebra"
	"repro/internal/plancheck"
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

// PlanRun is one side of a comparison, measured over its repetitions.
type PlanRun struct {
	Label string
	// Analysis is the engine's account of the last repetition: the plan it
	// executed (on a cluster, the compiled one), per-operator metrics and
	// estimates, governance.
	Analysis *gbj.Analysis
	// OutRows is the result cardinality.
	OutRows int64
	// Joins lists each join's input/output cardinalities, outermost
	// first.
	Joins []JoinStat
	// GroupInput and GroupOutput are the grouping operator's cardinalities
	// (the paper's central trade-off quantities).
	GroupInput, GroupOutput int64
	// InputRows totals the rows produced by the plan's leaves — the work
	// volume behind the run records' rows_per_sec.
	InputRows int64
	// Duration is the fastest repetition: the root operator's wall time on
	// one site, the wall time of the call on a cluster (whose root is not
	// one timed operator).
	Duration time.Duration
	// Fallbacks counts the repetitions whose eager plan blew the memory
	// budget and that the engine re-ran as the lazy plan (Analysis and the
	// cardinalities then describe the lazy run).
	Fallbacks int

	reps int
	// checksum is the result's type-tagged multiset: two sides agree when
	// theirs are equal.
	checksum []string
}

// label is the run's label, marked when a repetition fell back.
func (r *PlanRun) label() string {
	if r.Fallbacks > 0 {
		return r.Label + " [over budget: fell back to lazy plan]"
	}
	return r.Label
}

// Tree renders the plan with measured cardinalities and estimates.
func (r *PlanRun) Tree() string {
	return algebra.Format(r.Analysis.Plan, r.Analysis.Calibration.Annotations())
}

// CommBytes totals the bytes the run's exchange operators shipped across
// cluster links; 0 for a single-site run.
func (r *PlanRun) CommBytes() int64 { return r.Analysis.Calibration.CommBytes() }

// repeat runs query on e until the run has reps repetitions (at least one).
func (r *PlanRun) repeat(ctx context.Context, e *gbj.Engine, query string, reps int) error {
	for r.reps < max(reps, 1) {
		a, d, err := analyze(ctx, e, query)
		if err != nil {
			return err
		}
		r.add(a, d)
	}
	return nil
}

// analyze runs query once on e with full instrumentation and returns the
// engine's analysis with the run's duration: the root operator's wall time,
// or on a cluster, where Analysis.Duration is 0, the wall time of the call.
func analyze(ctx context.Context, e *gbj.Engine, query string) (*gbj.Analysis, time.Duration, error) {
	start := time.Now()
	a, err := e.QueryAnalyzedContext(ctx, query, nil)
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if a.Duration > 0 {
		return a, a.Duration, nil
	}
	return a, wall, nil
}

// add folds one repetition into the run: the fastest duration wins, and the
// analysis and cardinalities are the last repetition's.
func (r *PlanRun) add(a *gbj.Analysis, d time.Duration) {
	if r.reps == 0 || d < r.Duration {
		r.Duration = d
	}
	r.reps++
	if a.Governance.Fallback {
		r.Fallbacks++
	}
	r.Analysis = a
	r.OutRows = int64(len(a.Result.Rows))
	r.checksum = multiset(a.Result.Rows)
	rows := a.Calibration.Annotations() // measured rows per node
	r.Joins, r.InputRows = nil, 0
	for _, nc := range a.Calibration.Nodes {
		kids := nc.Node.Children()
		switch nc.Node.(type) {
		case *algebra.Join, *algebra.Product:
			r.Joins = append(r.Joins, JoinStat{rows[kids[0]].Rows, rows[kids[1]].Rows, nc.Actual})
		case *algebra.GroupBy:
			r.GroupInput, r.GroupOutput = rows[kids[0]].Rows, nc.Actual
		}
		if len(kids) == 0 {
			r.InputRows += nc.Actual
		}
	}
}

// multiset renders result rows order-free and type-tagged, so an integer
// and a float that print alike still differ.
func multiset(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		var sb strings.Builder
		for _, v := range row {
			fmt.Fprintf(&sb, "%T:%v|", v, v)
		}
		out[i] = sb.String()
	}
	slices.Sort(out)
	return out
}

// eager reports whether the analysed run executed the group-before-join
// plan: its tree has an eager aggregation, or the engine chose one and fell
// back to the lazy plan on a budget abort.
func eager(a *gbj.Analysis) bool {
	return a.Governance.Fallback || len(plancheck.EagerGroups(a.Plan)) > 0
}

// Comparison is a measured two-sided experiment: Standard is the lazy side
// (group after join, the nested view, lazy shipping), Transformed the eager
// one.
type Comparison struct {
	Query    string
	Standard *PlanRun
	// Transformed is nil when the engine's always-transform plan has no
	// eager aggregation: TestFD did not prove the rewrite.
	Transformed *PlanRun
	// Picked is the side the engine's cost-based mode chose ("standard" or
	// "transformed"); empty when the sides are not a cost-based choice.
	Picked string
}

// Speedup returns standard time / transformed time (0 when not available).
func (c *Comparison) Speedup() float64 {
	if c.Transformed == nil || c.Transformed.Duration == 0 {
		return 0
	}
	return float64(c.Standard.Duration) / float64(c.Transformed.Duration)
}

// runs lists the comparison's measured sides.
func (c *Comparison) runs() []*PlanRun {
	if c.Transformed == nil {
		return []*PlanRun{c.Standard}
	}
	return []*PlanRun{c.Standard, c.Transformed}
}

// verified returns the comparison when both sides returned the same
// multiset, and an error naming what disagreed otherwise.
func (c *Comparison) verified(what string) (*Comparison, error) {
	if c.Transformed != nil && !slices.Equal(c.Standard.checksum, c.Transformed.checksum) {
		return nil, fmt.Errorf("bench: %s disagree on %q: %d rows against %d",
			what, c.Query, c.Standard.OutRows, c.Transformed.OutRows)
	}
	return c, nil
}

// CompareForward measures query's two plans on e, reps times each: the
// standard plan under ModeNever and the transformed plan under ModeAlways.
// The transformed side exists only when the ModeAlways plan has an eager
// aggregation — TestFD proved the rewrite and the plan passed verification;
// an unproven rewrite fails here with the certifier's error before it runs.
// Picked is the engine's own ModeCost choice, and the run that reveals it
// counts as a repetition of the plan it picked. The engine's budget
// fallback applies: an over-budget eager repetition re-runs as the lazy
// plan and counts in Fallbacks. e's configuration is restored on return.
func CompareForward(ctx context.Context, e *gbj.Engine, query string, reps int) (*Comparison, error) {
	c := &Comparison{
		Query:       query,
		Standard:    &PlanRun{Label: "standard (group after join)"},
		Transformed: &PlanRun{Label: "transformed (group before join)"},
	}
	// Configure cannot fail: base came from Config, each change is a constant.
	base := e.Config()
	defer e.Configure(base)
	cfg := base
	cfg.Mode = gbj.ModeCost
	_ = e.Configure(cfg)
	a, d, err := analyze(ctx, e, query)
	if err != nil {
		return nil, err
	}
	picked := c.Standard
	c.Picked = "standard"
	if eager(a) {
		c.Picked, picked = "transformed", c.Transformed
	}
	picked.add(a, d)
	cfg.Mode = gbj.ModeNever
	_ = e.Configure(cfg)
	if err := c.Standard.repeat(ctx, e, query, reps); err != nil {
		return nil, err
	}
	cfg.Mode = gbj.ModeAlways
	_ = e.Configure(cfg)
	for c.Transformed != nil && c.Transformed.reps < max(reps, 1) {
		a, d, err := analyze(ctx, e, query)
		if err != nil {
			return nil, err
		}
		if !eager(a) {
			c.Transformed = nil
			break
		}
		c.Transformed.add(a, d)
	}
	return c.verified("plans")
}

// CompareReverse measures the Section 8 experiment on e: the nested query
// over an aggregated view (materialize the view, then join) against flat,
// its merged single-block form (join first, group once), both under
// ModeNever so each runs as written. e's configuration is restored on
// return.
func CompareReverse(ctx context.Context, e *gbj.Engine, nested, flat string, reps int) (*Comparison, error) {
	c := &Comparison{
		Query:       nested,
		Standard:    &PlanRun{Label: "nested (materialize view, then join)"},
		Transformed: &PlanRun{Label: "flat (join before group-by)"},
	}
	// Configure cannot fail: base came from Config, each change is a constant.
	base := e.Config()
	defer e.Configure(base)
	cfg := base
	cfg.Mode = gbj.ModeNever
	_ = e.Configure(cfg)
	if err := c.Standard.repeat(ctx, e, nested, reps); err != nil {
		return nil, err
	}
	if err := c.Transformed.repeat(ctx, e, flat, reps); err != nil {
		return nil, err
	}
	return c.verified("reverse plans")
}

// CompareDistributed measures query on e's cluster (Config.Nodes) under the
// lazy shipping strategy (ship every detail row to the coordinator) and the
// eager one (pre-aggregate per node, ship one row per local group): the
// engine's chosen plan, compiled with its estimates, verified, and run under
// its recovery policy. e's configuration is restored on return.
func CompareDistributed(ctx context.Context, e *gbj.Engine, query string, reps int) (*Comparison, error) {
	c := &Comparison{
		Query:       query,
		Standard:    &PlanRun{Label: "lazy (ship detail rows)"},
		Transformed: &PlanRun{Label: "eager (pre-aggregate per node)"},
	}
	// Configure cannot fail: base came from Config, each change is a constant.
	base := e.Config()
	defer e.Configure(base)
	cfg := base
	cfg.DistStrategy = gbj.DistLazy
	_ = e.Configure(cfg)
	if err := c.Standard.repeat(ctx, e, query, reps); err != nil {
		return nil, err
	}
	cfg.DistStrategy = gbj.DistEager
	_ = e.Configure(cfg)
	if err := c.Transformed.repeat(ctx, e, query, reps); err != nil {
		return nil, err
	}
	return c.verified("distributed strategies")
}

// Table renders the comparison in the shape of the paper's plan-diagram
// annotations plus measured times.
func (c *Comparison) Table() string {
	var sb strings.Builder
	for _, r := range c.runs() {
		joins := make([]string, len(r.Joins))
		for i, j := range r.Joins {
			joins[i] = j.String()
		}
		fmt.Fprintf(&sb, "%-34s join %-28s  group %7d -> %-7d  out %6d  %12v\n",
			r.label(), strings.Join(joins, "; "), r.GroupInput, r.GroupOutput, r.OutRows, r.Duration)
	}
	if c.Transformed != nil {
		fmt.Fprintf(&sb, "speedup: %.2fx\n", c.Speedup())
	} else {
		sb.WriteString("transformation not applied: the always-transform plan has no eager aggregation (gbj-explain says why)\n")
	}
	return sb.String()
}
