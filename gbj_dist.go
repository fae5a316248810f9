// Distributed execution surface of the engine: a simulated multi-node
// cluster (package dist) behind SetNodes/SetDistStrategy. With more than one
// node configured, queries run on the cluster — base tables read from
// hash-partitioned shards, exchanges move rows over byte-accounted links.
// The cost model compiles each candidate plan for the cluster to price what
// it ships, so the group-before-join choice accounts for communication (the
// paper's Section 7 distributed argument), and the compiled plan it priced
// is the one that runs (core.Runnable.Dist).
package gbj

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/fault"
)

// DistStrategy selects how grouping over partitioned tables ships data:
// automatically by estimated bytes, always eagerly (pre-aggregate per
// node), or always lazily (ship every row to the coordinator).
type DistStrategy = dist.Strategy

// The distributed grouping strategies.
const (
	DistAuto  = dist.StrategyAuto
	DistEager = dist.StrategyEager
	DistLazy  = dist.StrategyLazy
)

// UnavailableError is the typed error the distributed runtime reports when
// a shipment's retries are exhausted and no failover target remains. The
// engine recovers from it by degrading to local execution; it surfaces to
// callers only when that local re-run is impossible.
type UnavailableError = dist.UnavailableError

// SetLinkRetries sets the per-shipment retry budget of distributed
// execution: a failed link shipment is re-attempted up to n more times
// (exponential backoff with deterministic jitter, driven through the
// injected clock and bounded by the query context's deadline) before the
// node health tracker considers failover. 0 (the default) disables
// retries. Negative values are rejected.
func (e *Engine) SetLinkRetries(n int) error {
	if n < 0 {
		return fmt.Errorf("gbj: link retry budget must be at least 0, got %d", n)
	}
	e.update(func(s *settings) { s.linkRetries = n })
	return nil
}

// LinkRetries returns the configured per-shipment link retry budget.
func (e *Engine) LinkRetries() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.set.linkRetries
}

// SetFaultInjector installs a deterministic fault schedule every
// subsequent query executes under — link faults drive the distributed
// retry/failover machinery, row-path faults the executor's containment.
// nil (the default) removes it. This is the chaos-testing surface; it is
// how the golden EXPLAIN ANALYZE recovery output is produced under
// FakeClock.
func (e *Engine) SetFaultInjector(inj *fault.Injector) {
	e.update(func(s *settings) { s.faults = inj })
}

// RecoveryCounters is a snapshot of the engine-lifetime fault-recovery
// totals across every distributed query (the \retries shell command
// renders it).
type RecoveryCounters struct {
	// Retries is the total re-attempted link shipments.
	Retries int64
	// RedeliveriesDropped is the total duplicate deliveries dropped by
	// receiver-side exactly-once dedup.
	RedeliveriesDropped int64
	// Failovers is the total nodes declared dead whose shard ownership
	// moved to a survivor.
	Failovers int64
	// Degraded is the total distributed executions abandoned for a local
	// re-run.
	Degraded int64
}

// RecoveryCounters returns the engine-lifetime recovery totals.
func (e *Engine) RecoveryCounters() RecoveryCounters {
	return RecoveryCounters{
		Retries:             e.recovery.Retries.Load(),
		RedeliveriesDropped: e.recovery.RedeliveriesDropped.Load(),
		Failovers:           e.recovery.Failovers.Load(),
		Degraded:            e.recovery.Degraded.Load(),
	}
}

// SetNodes selects the simulated cluster size queries run on: 1 (the
// default) executes single-site; n > 1 hash-partitions every base table
// across n nodes and executes queries with exchange operators. The nodes
// work at the same time, as a cluster's sites do: min(n, GOMAXPROCS) of a
// fragment's per-node runs execute at once — one after another only for a
// Serial query, under a memory budget (every site's run is entitled to the
// whole of the query's one lease) or under a fault injector (its schedule
// is one sequence). The result is the same either way, row for row and
// byte for byte: each site's output is kept under its node number and rows
// move between sites in node order. Values below 1 are rejected.
func (e *Engine) SetNodes(n int) error {
	if n < 1 {
		return fmt.Errorf("gbj: node count must be at least 1, got %d", n)
	}
	e.update(func(s *settings) { s.nodes = n })
	return nil
}

// SetDistStrategy selects the distributed grouping strategy. Only plan
// selection reads it — the cost model compiles each plan for the cluster
// under it, and that compiled plan runs — so it lives on the optimizer alone.
func (e *Engine) SetDistStrategy(st DistStrategy) {
	e.update(func(*settings) { e.opt.DistStrategy = st })
}

// clusterFor returns the cluster for the current node count and data,
// rebuilding it when either has moved on since it was built (every table
// write bumps the store's epoch). Each table splits into dist.NewCluster's
// default shard count. Callers hold mu (read), which keeps writers out while
// the store is partitioned; distMu serializes the rebuild so concurrent
// queries share one partitioning pass.
func (e *Engine) clusterFor() (*dist.Cluster, error) {
	e.distMu.Lock()
	defer e.distMu.Unlock()
	nodes := e.set.nodes
	if cl := e.cluster; cl != nil && cl.Nodes() == nodes && e.clusterEpoch == e.store.Epoch() {
		return cl, nil
	}
	cl, err := dist.NewCluster(e.store, nodes, 0)
	if err != nil {
		return nil, err
	}
	e.cluster, e.clusterEpoch = cl, e.store.Epoch()
	return cl, nil
}

// recoveryPolicy assembles the fault-tolerance policy a distributed rung
// executes under: the retry budget, the engine-lifetime counter aggregate
// and whether the query is Serial (its sites then run one after another,
// dist's sitesAtOnce rule). Backoff reads the rung's exec.Options.Clock.
func (e *Engine) recoveryPolicy(s settings) *dist.Recovery {
	return &dist.Recovery{
		LinkRetries: s.linkRetries,
		Stats:       &e.recovery,
		Serial:      s.serial,
	}
}

// degradeReason renders the one-line account of a distributed→local
// degradation that EXPLAIN ANALYZE and the metrics surface report.
func degradeReason(err error) string {
	return fmt.Sprintf("cluster unavailable (%v); re-executed the query locally", err)
}
