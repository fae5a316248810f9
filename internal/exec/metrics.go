package exec

import (
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/obs"
	"repro/internal/value"
)

// metricOp is a plan node's instrumentation, which the compiler places on
// the node's pipeline — on its stage, or on the runner's loop over the source
// the node is (pipeOp.meter) — when any observability sink is active. It
// serves two sinks at once:
//
//   - Options.Metrics: rows out and tree-inclusive wall time into the
//     node's obs.OpMetrics (operator internals — hash builds, probe hits,
//     morsel counts — are recorded by the operators themselves);
//   - Options.Trace: the node's span.
//
// The pipeline calls begin and end around its run and adds each chunk's row
// count to count once — a batch's logical length while the chain is in
// batches — so the row path costs one atomic add per morsel per node and
// never allocates. The counter is atomic: the chunks of one pipeline run on
// concurrent goroutines. When every sink is nil the compiler places nothing,
// so the disabled path costs nothing.
type metricOp struct {
	metrics *obs.OpMetrics // nil unless Options.Metrics is set
	clock   obs.Clock
	span    *obs.Span // nil unless Options.Trace is set

	count atomic.Int64
	start time.Time
}

// begin starts the node's clock and span.
func (s *metricOp) begin() {
	s.count.Store(0)
	s.start = s.clock.Now()
	if s.span != nil {
		s.span.BeginAt(s.start)
	}
}

// end stops them and reports the rows counted since begin.
func (s *metricOp) end() {
	end := s.clock.Now()
	if s.span != nil {
		s.span.EndAt(end)
	}
	if s.metrics != nil {
		s.metrics.RowsOut.Add(s.count.Load())
		s.metrics.WallNanos.Add(end.Sub(s.start).Nanoseconds())
	}
}

// State-size constants: a value.Row in a hash table costs one slice header
// plus one two-word value.Value per column (a test holds valueSlotBytes to
// unsafe.Sizeof); an accumulator is a small struct behind an interface.
const (
	rowHeaderBytes = 24
	valueSlotBytes = 16
	accStateBytes  = 32
)

// rowStateBytes approximates the bytes a hash table retains per stored row.
func rowStateBytes(row value.Row) int64 {
	return rowHeaderBytes + valueSlotBytes*int64(len(row))
}

// nodeMetrics resolves the OpMetrics for a plan node, or nil when metrics
// collection is disabled. Registration happens here, at compile time, so
// operators touch only a preallocated struct on the row path.
func (c *compiler) nodeMetrics(n algebra.Node) *obs.OpMetrics {
	if c.opts.Metrics == nil {
		return nil
	}
	return c.opts.Metrics.Node(n)
}
