package obs

import (
	"sync"
	"sync/atomic"
)

// OpMetrics is the runtime profile of one physical operator: cardinalities,
// wall time, hash-table shape, approximate state size, and the morsel
// counts of each parallel worker. All counters are atomics — morsel workers
// and concurrently-drained join subtrees update them without locks — and
// updating them never allocates, which is what keeps instrumentation off
// the allocation profile of the row path.
type OpMetrics struct {
	// RowsIn is the total number of rows the operator consumed (the sum of
	// its children's outputs, filled in after execution).
	RowsIn atomic.Int64
	// RowsOut is the number of rows the operator produced.
	RowsOut atomic.Int64
	// Batches is the number of morsels (scheduling units) processed by the
	// operator's parallel implementation; 0 for serial operators.
	Batches atomic.Int64
	// WallNanos is the operator's wall time from Open to Close, including
	// its children (tree-inclusive, like EXPLAIN ANALYZE in most engines).
	WallNanos atomic.Int64
	// BuildEntries counts hash-table entries built: rows inserted on a hash
	// join's build side, or groups created by hash grouping (for parallel
	// grouping, the sum over per-worker partial tables).
	BuildEntries atomic.Int64
	// ProbeHits counts build rows found by probe lookups in a hash join,
	// before residual-predicate filtering.
	ProbeHits atomic.Int64
	// StateBytes approximates the bytes of operator-owned state (hash-table
	// keys and row references, group accumulators).
	StateBytes atomic.Int64
	// CommBytes counts the bytes an exchange operator shipped across
	// node-to-node links (canonical row encoding, local loopback excluded);
	// 0 for non-exchange operators. The distributed runtime fills it in.
	CommBytes atomic.Int64
	// SpillBytes counts the bytes the operator wrote to spill files
	// (external-sort runs, grace partitions of a join or a grouping); 0 for
	// operators that stayed in memory.
	SpillBytes atomic.Int64
	// SpillParts counts the grace partition files the operator made — a
	// hash join's build and probe files, a hash grouping's files of the rows
	// its table refused — summed across recursion levels; 0 when it
	// stayed in memory.
	SpillParts atomic.Int64
	// SortRuns counts the runs the operator handed its external sorter —
	// a sort's sorted buffers, a grace join's joined rows per partition, a
	// spilled grouping's groups per level — and the runs it merged them
	// into; 0 when the operator stayed in memory.
	SortRuns atomic.Int64
	// Retries counts re-attempted link shipments for an exchange operator
	// (attempts beyond each shipment's first); 0 outside the distributed
	// runtime's fault-tolerant path.
	Retries atomic.Int64
	// Redeliveries counts duplicate shipment deliveries the receiver
	// dropped — a retried shipment whose earlier attempt had in fact
	// arrived (the ack was lost, not the payload). Each drop is a
	// partial-aggregate state that would have been merged twice without
	// exactly-once dedup.
	Redeliveries atomic.Int64
	// Failovers counts node deaths this exchange recovered from by
	// re-executing the dead node's fragment at a surviving node.
	Failovers atomic.Int64
	// Operator names the implementation that ran a node the executor has
	// several of (grouping: hash, vec-hash, stream, sort, external).
	Operator atomic.Pointer[string]

	// workerMorsels[w] counts the morsels executed by worker w.
	workerMorsels []atomic.Int64
}

// Morsel records one morsel executed by the given worker.
func (m *OpMetrics) Morsel(worker int) {
	m.Batches.Add(1)
	if worker >= 0 && worker < len(m.workerMorsels) {
		m.workerMorsels[worker].Add(1)
	}
}

// WorkerMorsels returns the per-worker morsel counts (a copy).
func (m *OpMetrics) WorkerMorsels() []int64 {
	out := make([]int64, len(m.workerMorsels))
	for i := range m.workerMorsels {
		out[i] = m.workerMorsels[i].Load()
	}
	return out
}

// Snapshot is a plain-value copy of an OpMetrics, for reports and JSON.
type Snapshot struct {
	RowsIn        int64   `json:"rows_in"`
	RowsOut       int64   `json:"rows_out"`
	Batches       int64   `json:"batches,omitempty"`
	WallNanos     int64   `json:"wall_ns"`
	BuildEntries  int64   `json:"build_entries,omitempty"`
	ProbeHits     int64   `json:"probe_hits,omitempty"`
	StateBytes    int64   `json:"state_bytes,omitempty"`
	CommBytes     int64   `json:"comm_bytes,omitempty"`
	SpillBytes    int64   `json:"spill_bytes,omitempty"`
	SpillParts    int64   `json:"spill_parts,omitempty"`
	SortRuns      int64   `json:"sort_runs,omitempty"`
	Retries       int64   `json:"retries,omitempty"`
	Redeliveries  int64   `json:"redeliveries_dropped,omitempty"`
	Failovers     int64   `json:"failovers,omitempty"`
	Operator      string  `json:"operator,omitempty"`
	WorkerMorsels []int64 `json:"worker_morsels,omitempty"`
}

// Snapshot reads every counter once.
func (m *OpMetrics) Snapshot() Snapshot {
	s := Snapshot{
		RowsIn:       m.RowsIn.Load(),
		RowsOut:      m.RowsOut.Load(),
		Batches:      m.Batches.Load(),
		WallNanos:    m.WallNanos.Load(),
		BuildEntries: m.BuildEntries.Load(),
		ProbeHits:    m.ProbeHits.Load(),
		StateBytes:   m.StateBytes.Load(),
		CommBytes:    m.CommBytes.Load(),
		SpillBytes:   m.SpillBytes.Load(),
		SpillParts:   m.SpillParts.Load(),
		SortRuns:     m.SortRuns.Load(),
		Retries:      m.Retries.Load(),
		Redeliveries: m.Redeliveries.Load(),
		Failovers:    m.Failovers.Load(),
	}
	if op := m.Operator.Load(); op != nil {
		s.Operator = *op
	}
	if s.Batches > 0 && len(m.workerMorsels) > 0 {
		s.WorkerMorsels = m.WorkerMorsels()
	}
	return s
}

// Collector maps plan nodes (opaque keys) to their OpMetrics. Keys are
// `any` so this package needs no dependency on the plan algebra; the
// executor keys by algebra.Node. Registration (Node) takes a lock and may
// allocate; it happens once per operator at compile time, never per row.
// The returned *OpMetrics is then updated lock-free.
//
// A Collector records one execution: use a fresh one per run (counters
// accumulate across runs otherwise).
type Collector struct {
	mu      sync.Mutex
	workers int
	ops     map[any]*OpMetrics
	order   []any
	gov     Governance
}

// Governance is the lifecycle-governance summary of one execution: the
// configured memory budget, the high-water mark of state bytes the governor
// accounted against it, and — filled in by the engine layer — whether the
// run is the lazy fallback of an eager plan that tripped the budget.
type Governance struct {
	// BudgetBytes is Options.MemoryBudget; 0 when no budget was set.
	BudgetBytes int64 `json:"budget_bytes,omitempty"`
	// UsedBytes is the governor's accounted state high-water mark; on a
	// cluster, the largest of the per-site fragment runs'.
	UsedBytes int64 `json:"used_bytes,omitempty"`
	// Fallback is true when this execution is the lazy (group-after-join)
	// retry of an eager plan that exceeded the budget.
	Fallback bool `json:"fallback,omitempty"`
	// FallbackReason holds the budget error of the abandoned eager run.
	FallbackReason string `json:"fallback_reason,omitempty"`
	// SpillBytes is the total bytes the execution wrote to spill files;
	// 0 when every operator stayed in memory.
	SpillBytes int64 `json:"spill_bytes,omitempty"`
	// LinkRetries is the total re-attempted link shipments across every
	// exchange of the run (the distributed runtime fills it in).
	LinkRetries int64 `json:"link_retries,omitempty"`
	// RedeliveriesDropped is the total duplicate shipment deliveries the
	// receivers deduplicated (merge-at-most-once for partial aggregates).
	RedeliveriesDropped int64 `json:"redeliveries_dropped,omitempty"`
	// Failovers is the total node deaths the run recovered from by
	// re-executing fragments at surviving nodes.
	Failovers int64 `json:"failovers,omitempty"`
	// Degraded is true when the distributed execution was abandoned —
	// retries exhausted, cluster unhealthy — and the engine re-ran the
	// query locally instead (the distributed analogue of Fallback).
	Degraded bool `json:"degraded,omitempty"`
	// DegradedReason holds the distributed error that forced the local
	// re-run.
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// NewCollector returns an empty collector sized for serial execution.
func NewCollector() *Collector {
	return &Collector{workers: 1, ops: make(map[any]*OpMetrics)}
}

// SetWorkers fixes the worker count for per-worker morsel accounting. The
// executor calls it before compiling operators; metrics registered earlier
// keep their old width.
func (c *Collector) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	c.mu.Lock()
	c.workers = n
	c.mu.Unlock()
}

// Workers returns the configured worker count.
func (c *Collector) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workers
}

// SetBudget records the configured memory budget.
func (c *Collector) SetBudget(bytes int64) {
	c.mu.Lock()
	c.gov.BudgetBytes = bytes
	c.mu.Unlock()
}

// SetBudgetUsed records the governor's accounted state high-water mark.
// A cluster query reports once per fragment run, each under its own
// governor; the largest report is kept — the per-site high-water mark, which
// is what a per-site budget bounds — so the figure does not depend on which
// run finished last.
func (c *Collector) SetBudgetUsed(bytes int64) {
	c.mu.Lock()
	c.gov.UsedBytes = max(c.gov.UsedBytes, bytes)
	c.mu.Unlock()
}

// SetSpilled records the execution's total spill-file bytes; over a cluster
// query's fragment runs the largest is kept, like SetBudgetUsed.
func (c *Collector) SetSpilled(bytes int64) {
	c.mu.Lock()
	c.gov.SpillBytes = max(c.gov.SpillBytes, bytes)
	c.mu.Unlock()
}

// AddRecovery accumulates the run's fault-recovery totals: re-attempted
// shipments, deduplicated redeliveries, and node failovers. The distributed
// runtime calls it once per Run.
func (c *Collector) AddRecovery(retries, redeliveries, failovers int64) {
	c.mu.Lock()
	c.gov.LinkRetries += retries
	c.gov.RedeliveriesDropped += redeliveries
	c.gov.Failovers += failovers
	c.mu.Unlock()
}

// SetDegraded marks this execution as the local re-run of a distributed
// plan whose cluster became unavailable, with the distributed error as the
// reason.
func (c *Collector) SetDegraded(reason string) {
	c.mu.Lock()
	c.gov.Degraded = true
	c.gov.DegradedReason = reason
	c.mu.Unlock()
}

// SetFallback marks this execution as the lazy retry of an eager plan that
// exceeded the memory budget, with the eager run's error as the reason.
func (c *Collector) SetFallback(reason string) {
	c.mu.Lock()
	c.gov.Fallback = true
	c.gov.FallbackReason = reason
	c.mu.Unlock()
}

// Gov returns the governance summary recorded so far.
func (c *Collector) Gov() Governance {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gov
}

// Node returns the metrics for id, creating them on first use.
func (c *Collector) Node(id any) *OpMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.ops[id]; ok {
		return m
	}
	m := &OpMetrics{workerMorsels: make([]atomic.Int64, c.workers)}
	c.ops[id] = m
	c.order = append(c.order, id)
	return m
}

// Lookup returns the metrics for id, or nil if none were registered.
func (c *Collector) Lookup(id any) *OpMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops[id]
}

// Len reports the number of registered operators.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ops)
}

// FillRowsIn derives the input cardinality of n and every node below it as
// the sum of its children's output cardinalities. It runs once per query,
// after execution — for a cluster query after every site of every fragment
// has joined, so no partial sum is ever stored — and never on the row path.
// children lists a plan node's inputs (the package knows no plan algebra).
func FillRowsIn[N any](c *Collector, n N, children func(N) []N) {
	kids := children(n)
	if m := c.Lookup(n); m != nil {
		var in int64
		for _, ch := range kids {
			if cm := c.Lookup(ch); cm != nil {
				in += cm.RowsOut.Load()
			}
		}
		m.RowsIn.Store(in)
	}
	for _, ch := range kids {
		FillRowsIn(c, ch, children)
	}
}

// Each visits every registered operator in registration order (compile
// order — deterministic for a deterministic plan).
func (c *Collector) Each(fn func(id any, m *OpMetrics)) {
	c.mu.Lock()
	ids := append([]any(nil), c.order...)
	c.mu.Unlock()
	for _, id := range ids {
		fn(id, c.Lookup(id))
	}
}
