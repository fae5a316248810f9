package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/obs"
)

// QError is the multiplicative estimation error between an estimated and an
// actual cardinality: max(est, act) / min(est, act), with both sides clamped
// to at least one row so empty results do not divide by zero. A perfect
// estimate scores 1; the score is symmetric in over- and underestimation,
// which is what makes it the standard calibration metric for cardinality
// estimators.
func QError(est, act int64) float64 {
	e, a := float64(est), float64(act)
	if e < 1 {
		e = 1
	}
	if a < 1 {
		a = 1
	}
	if e > a {
		return e / a
	}
	return a / e
}

// NodeCalibration pairs one plan node's estimated cardinality with what the
// executor measured.
type NodeCalibration struct {
	// Node is the plan node (the same pointer the cost model annotated and
	// the executor keyed its metrics by).
	Node algebra.Node
	// Estimated is the cost model's row estimate for the node.
	Estimated int64
	// Actual is the measured output cardinality.
	Actual int64
	// QError is QError(Estimated, Actual).
	QError float64
	// Metrics is the full measured profile of the node.
	Metrics obs.Snapshot
}

// Calibration is the estimate-vs-actual report for one executed plan: the
// closing of the loop between the Section 7 cost model and the executor's
// measurements.
type Calibration struct {
	// Plan is the executed plan root.
	Plan algebra.Node
	// Nodes lists every plan node in pre-order.
	Nodes []NodeCalibration
	// MaxQError is the worst q-error across the plan.
	MaxQError float64
	// JoinInputRows is the total number of rows entering join nodes — the
	// quantity the paper's Section 7 identifies as what eager aggregation
	// shrinks (and what Figure 8 shows it can instead inflate).
	JoinInputRows int64
	// TotalNanos is the root operator's wall time.
	TotalNanos int64
}

// Calibrate pairs the cost model's per-node estimates (est, as produced by
// CostModel.Estimate on the same plan pointers) with the executor's measured
// metrics. Nodes the collector never saw (e.g. elided sorts) keep Actual
// from est's executor-free default of zero and are still listed.
func Calibrate(plan algebra.Node, est algebra.Annotations, col *obs.Collector) *Calibration {
	c := &Calibration{Plan: plan}
	algebra.Walk(plan, func(n algebra.Node) {
		nc := NodeCalibration{Node: n, Estimated: est[n].Rows}
		if m := col.Lookup(n); m != nil {
			nc.Metrics = m.Snapshot()
			nc.Actual = nc.Metrics.RowsOut
		}
		nc.QError = QError(nc.Estimated, nc.Actual)
		if nc.QError > c.MaxQError {
			c.MaxQError = nc.QError
		}
		switch n.(type) {
		case *algebra.Join, *algebra.Product:
			c.JoinInputRows += nc.Metrics.RowsIn
		}
		c.Nodes = append(c.Nodes, nc)
	})
	if len(c.Nodes) > 0 {
		c.TotalNanos = c.Nodes[0].Metrics.WallNanos
	}
	return c
}

// Annotations renders the calibration as plan annotations: actual rows as
// the row count, with the estimate, q-error, wall time and any hash-table
// statistics in the note.
func (c *Calibration) Annotations() algebra.Annotations {
	ann := make(algebra.Annotations, len(c.Nodes))
	for _, nc := range c.Nodes {
		var note strings.Builder
		fmt.Fprintf(&note, "est=%d q=%.2f", nc.Estimated, nc.QError)
		if nc.Metrics.WallNanos > 0 {
			fmt.Fprintf(&note, " time=%v", time.Duration(nc.Metrics.WallNanos))
		}
		if nc.Metrics.Operator != "" {
			fmt.Fprintf(&note, " op=%s", nc.Metrics.Operator)
		}
		if nc.Metrics.BuildEntries > 0 {
			fmt.Fprintf(&note, " build=%d", nc.Metrics.BuildEntries)
		}
		if nc.Metrics.ProbeHits > 0 {
			fmt.Fprintf(&note, " hits=%d", nc.Metrics.ProbeHits)
		}
		if nc.Metrics.Batches > 0 {
			fmt.Fprintf(&note, " morsels=%d", nc.Metrics.Batches)
		}
		if nc.Metrics.CommBytes > 0 {
			fmt.Fprintf(&note, " ship=%dB", nc.Metrics.CommBytes)
		}
		if nc.Metrics.Retries > 0 {
			fmt.Fprintf(&note, " retries=%d", nc.Metrics.Retries)
		}
		if nc.Metrics.Redeliveries > 0 {
			fmt.Fprintf(&note, " redrop=%d", nc.Metrics.Redeliveries)
		}
		if nc.Metrics.Failovers > 0 {
			fmt.Fprintf(&note, " failovers=%d", nc.Metrics.Failovers)
		}
		if nc.Metrics.SpillBytes > 0 {
			fmt.Fprintf(&note, " spill_bytes=%d", nc.Metrics.SpillBytes)
		}
		if nc.Metrics.SpillParts > 0 {
			fmt.Fprintf(&note, " parts=%d", nc.Metrics.SpillParts)
		}
		if nc.Metrics.SortRuns > 0 {
			fmt.Fprintf(&note, " runs=%d", nc.Metrics.SortRuns)
		}
		ann[nc.Node] = algebra.Annotation{Rows: nc.Actual, Note: note.String()}
	}
	return ann
}

// CommBytes sums the bytes the plan's exchange operators shipped across
// node links — zero for single-site executions.
func (c *Calibration) CommBytes() int64 {
	var total int64
	for _, nc := range c.Nodes {
		total += nc.Metrics.CommBytes
	}
	return total
}

// String renders the annotated plan tree followed by the summary lines the
// analyze surfaces (and their golden tests) display.
func (c *Calibration) String() string {
	var sb strings.Builder
	sb.WriteString(algebra.Format(c.Plan, c.Annotations()))
	fmt.Fprintf(&sb, "join input rows: %d\n", c.JoinInputRows)
	fmt.Fprintf(&sb, "max q-error: %.2f\n", c.MaxQError)
	if c.TotalNanos > 0 {
		fmt.Fprintf(&sb, "total time: %v\n", time.Duration(c.TotalNanos))
	}
	return sb.String()
}
