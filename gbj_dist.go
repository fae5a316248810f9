// Distributed execution surface of the engine: a simulated multi-node
// cluster (package dist) behind Config.Nodes and Config.DistStrategy. With
// more than one node configured, queries run on the cluster — base tables
// read from hash-partitioned shards, exchanges move rows over byte-accounted
// links. The cost model compiles each candidate plan for the cluster to
// price what it ships, so the group-before-join choice accounts for
// communication (the paper's Section 7 distributed argument), and the
// compiled plan it priced is the one that runs (core.Runnable.Dist).
package gbj

import (
	"fmt"

	"repro/internal/dist"
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

// SetNodes sets Config.Nodes. It remains only because benchmark/run.go
// calls it; use Configure.
func (e *Engine) SetNodes(n int) error {
	return e.update(func(c *Config) { c.Nodes = n })
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
	nodes := e.cfg.Nodes
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

// recoveryPolicy assembles the fault-tolerance policy a distributed rung of
// p executes under: the retry budget, the engine-lifetime counter aggregate
// and whether the query is Serial (its sites then run one after another,
// dist's sitesAtOnce rule). Backoff reads the rung's exec.Options.Clock.
func (e *Engine) recoveryPolicy(p *prepared) *dist.Recovery {
	return &dist.Recovery{
		LinkRetries: p.cfg.LinkRetries,
		Stats:       &e.recovery,
		Serial:      p.serial,
	}
}

// degradeReason renders the one-line account of a distributed→local
// degradation that EXPLAIN ANALYZE and the metrics surface report.
func degradeReason(err error) string {
	return fmt.Sprintf("cluster unavailable (%v); re-executed the query locally", err)
}
