package bench

// This file defines the machine-readable run records behind the -json
// output of cmd/gbj-bench. Every PlanRun carries the executor's full
// per-operator metrics, so a recorded experiment preserves the plan-diagram
// cardinalities (Figures 1 and 8), the hash-table and morsel statistics,
// and the timings — enough to regenerate every table in EXPERIMENTS.md
// without rerunning.

import (
	"encoding/json"
	"os"

	"repro/internal/algebra"
	"repro/internal/obs"
)

// OpRecord is one plan operator's measured profile.
type OpRecord struct {
	// Op is the operator's Describe() line.
	Op string `json:"op"`
	// Depth is the operator's depth in the plan tree (root = 0).
	Depth int `json:"depth"`
	// Metrics is the executor's measurement for the operator.
	Metrics obs.Snapshot `json:"metrics"`
}

// PlanRecord is the machine-readable form of one PlanRun.
type PlanRecord struct {
	Label   string `json:"label"`
	OutRows int64  `json:"out_rows"`
	// GroupInput/GroupOutput are the grouping operator's cardinalities —
	// the paper's central trade-off quantities.
	GroupInput  int64 `json:"group_input"`
	GroupOutput int64 `json:"group_output"`
	// JoinInputRows totals the rows entering join operators (the Section 7
	// quantity eager aggregation shrinks).
	JoinInputRows int64 `json:"join_input_rows"`
	// DurationNs is the fastest repetition's wall time.
	DurationNs int64 `json:"duration_ns"`
	// InputRows totals the rows produced by the plan's leaves — the work
	// volume behind RowsPerSec.
	InputRows int64 `json:"input_rows"`
	// RowsPerSec is leaf-row throughput: InputRows over the fastest wall
	// time.
	RowsPerSec float64 `json:"rows_per_sec"`
	// CommBytes totals the bytes shipped across cluster links by the
	// plan's exchange operators; 0 for single-site plans.
	CommBytes int64 `json:"comm_bytes"`
	// Ops lists every operator in plan pre-order.
	Ops []OpRecord `json:"ops,omitempty"`
}

// Record converts the run to its JSON form.
func (r *PlanRun) Record() *PlanRecord {
	cal := r.Analysis.Calibration
	rec := &PlanRecord{
		Label:         r.label(),
		OutRows:       r.OutRows,
		GroupInput:    r.GroupInput,
		GroupOutput:   r.GroupOutput,
		JoinInputRows: cal.JoinInputRows,
		DurationNs:    r.Duration.Nanoseconds(),
		InputRows:     r.InputRows,
		CommBytes:     cal.CommBytes(),
	}
	if r.Duration > 0 {
		rec.RowsPerSec = float64(r.InputRows) / r.Duration.Seconds()
	}
	var walk func(n algebra.Node, depth int)
	walk = func(n algebra.Node, depth int) {
		op := OpRecord{Op: n.Describe(), Depth: depth}
		if m := r.Analysis.Metrics.Lookup(n); m != nil {
			op.Metrics = m.Snapshot()
		}
		rec.Ops = append(rec.Ops, op)
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(r.Analysis.Plan, 0)
	return rec
}

// RunRecord is one experiment data point.
type RunRecord struct {
	// Experiment is the id from EXPERIMENTS.md (E1..E8, E12).
	Experiment string `json:"experiment"`
	// Note distinguishes points within a sweep (e.g. "match=0.05").
	Note        string  `json:"note,omitempty"`
	Query       string  `json:"query,omitempty"`
	Parallelism int     `json:"parallelism"`
	Chosen      string  `json:"chosen,omitempty"`
	Speedup     float64 `json:"speedup,omitempty"`
	// Fallbacks counts memory-budget degradations across the point's runs:
	// each one is an execution whose eager plan blew the budget and was
	// re-run as the lazy plan.
	Fallbacks int `json:"fallbacks,omitempty"`
	// Vectorize records whether the engine read stored tables as columnar
	// batches.
	Vectorize   bool        `json:"vectorize,omitempty"`
	Standard    *PlanRecord `json:"standard,omitempty"`
	Transformed *PlanRecord `json:"transformed,omitempty"`
	// Retries, Failovers and Degraded are the fault-tolerance counters
	// summed across the point's runs: re-attempted link shipments, nodes
	// failed over to survivors, and executions that degraded from
	// distributed to local. Always emitted — a zero is the claim that no
	// recovery machinery fired.
	Retries   int64 `json:"retries"`
	Failovers int64 `json:"failovers"`
	Degraded  int64 `json:"degraded"`
}

// File is the top-level -json document. Parallelism and Vectorize are the
// engine settings every run ran under; Add stamps them on each record.
type File struct {
	Tool        string      `json:"tool"`
	Runs        []RunRecord `json:"runs"`
	Parallelism int         `json:"-"`
	Vectorize   bool        `json:"-"`
}

// Add appends an experiment's comparison as a run record.
func (f *File) Add(experiment, note string, c *Comparison) {
	rec := RunRecord{
		Experiment:  experiment,
		Note:        note,
		Query:       c.Query,
		Parallelism: f.Parallelism,
		Vectorize:   f.Vectorize,
		Chosen:      c.Picked,
		Speedup:     c.Speedup(),
		Standard:    c.Standard.Record(),
	}
	if c.Transformed != nil {
		rec.Transformed = c.Transformed.Record()
	}
	for _, run := range c.runs() {
		rec.Fallbacks += run.Fallbacks
		gov := run.Analysis.Governance
		rec.Retries += gov.LinkRetries
		rec.Failovers += gov.Failovers
		if gov.Degraded {
			rec.Degraded++
		}
	}
	f.Runs = append(f.Runs, rec)
}

// WriteFile writes the document as indented JSON. An empty run set still
// produces a valid record with "runs": [] — downstream consumers always
// get a document, never null.
func (f *File) WriteFile(path string) error {
	if f.Runs == nil {
		f.Runs = []RunRecord{}
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
