package exec

import (
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/obs"
	"repro/internal/value"
)

// metricOp is the single instrumentation wrapper the compiler inserts
// around a physical operator when any observability sink is active. It
// serves two sinks at once:
//
//   - Options.Metrics: rows out and tree-inclusive wall time into the
//     node's obs.OpMetrics (operator internals — hash builds, probe hits,
//     morsel counts — are recorded by the operators themselves);
//   - Options.Trace: the node's span, begun at Open and ended at Close.
//
// The row counter is atomic: under parallel execution the two inputs of a
// merge join are drained by concurrent goroutines, so sibling wrappers open,
// count and close concurrently. Next performs one atomic add per row and
// never allocates; when every sink is nil the compiler inserts no wrapper
// at all, so the disabled path costs nothing.
//
// A node that runs inside a pipeline (pipeOp) is never pulled. Its metricOp
// wraps nothing: the pipeline calls begin and end around its run and adds each
// chunk's row count to count once — a batch's logical length while the chain
// is in batches — so the row path there costs one atomic add per morsel per
// node.
type metricOp struct {
	inner   Operator
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

func (s *metricOp) Open() error {
	s.begin()
	return s.inner.Open()
}

func (s *metricOp) Next() (value.Row, bool, error) {
	row, ok, err := s.inner.Next()
	if ok && err == nil {
		s.count.Add(1)
	}
	return row, ok, err
}

func (s *metricOp) Close() error {
	s.end()
	return s.inner.Close()
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
