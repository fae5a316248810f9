package gbj

// Plan-cache layer. Plan selection — parse-tree normalization, TestFD,
// costing both shapes, static verification — is pure CPU work
// repeated verbatim for every occurrence of the same query text, which is
// exactly the traffic shape a multi-session server sees. The cache
// memoizes the planChoice keyed by the canonical AST rendering plus every
// input plan selection depends on: the store epoch (any DDL/DML bumps it,
// so a data or schema change can never serve a stale plan) and the full
// planInputs value (optimizer mode, parallelism, vectorize, cluster shape).
// Setters additionally clear the cache outright, so entries for superseded
// configurations don't linger in the LRU.
//
// A cache hit is never trusted blindly: a plan is verified when it is
// chosen, and when the cached choice carries TestFD certificates, they are
// cross-checked again against the current catalog through
// plancheck.CrossCheck before the plan may execute. A certificate
// the independent derivation refutes drops the entry (counted as
// `rejected` in the stats) and the query re-plans from scratch — a stale
// certificate can never execute. Sharing cached plan trees across
// concurrent sessions is safe: executions never mutate plan nodes (the
// concurrent-execution oracles in internal/exec run one plan from many
// goroutines under -race).

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plancheck"
	"repro/internal/sql"
)

// SetPlanCacheSize bounds the engine's plan cache to n entries; n <= 0
// disables caching (the default). Resizing drops all cached entries.
func (e *Engine) SetPlanCacheSize(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n <= 0 {
		e.planCache = nil
		return
	}
	e.planCache = core.NewPlanCache(n, &e.cacheStats)
}

// PlanCacheStats returns the engine-lifetime plan-cache counters: hits,
// misses, LRU evictions, certificate-rejected hits and whole-cache
// invalidations. The counters survive SetPlanCacheSize.
func (e *Engine) PlanCacheStats() obs.CacheSnapshot {
	return e.cacheStats.Snapshot()
}

// PlanCacheLen returns the number of cached plans, 0 when caching is off.
func (e *Engine) PlanCacheLen() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.planCache == nil {
		return 0
	}
	return e.planCache.Len()
}

// invalidatePlans clears the plan cache. Callers hold e.mu; update (every
// setter) and Exec route through here so no cached plan can outlive the
// settings or schema it was planned under.
func (e *Engine) invalidatePlans() {
	if e.planCache != nil {
		e.planCache.Clear()
	}
}

// planKey renders the cache key: the canonical AST plus every engine input
// plan selection reads. The store epoch folds all DDL/DML into the key;
// planInputs, rendered whole, folds in every setting that changes what the
// optimizer or the cost model would produce. Caller holds e.mu.
func (e *Engine) planKey(q *sql.SelectStmt) string {
	return fmt.Sprintf("%s|e%d|%v", sql.Canonical(q), e.store.Epoch(), e.set.planInputs)
}

// chooseForExecCached is chooseForExec behind the plan cache. Caller
// holds e.mu (read suffices): the optimizer runs under the lock exactly
// as it always has; only the memoization is new.
func (e *Engine) chooseForExecCached(q *sql.SelectStmt) (planChoice, error) {
	if e.planCache == nil {
		return e.chooseForExec(q)
	}
	key := e.planKey(q)
	if v, ok := e.planCache.Get(key); ok {
		pc := v.(planChoice)
		if e.recertifyLocked(pc) {
			return pc, nil
		}
		// The cached certificates no longer derive from the catalog:
		// drop the entry and re-plan. The plan never executes.
		e.cacheStats.Reject()
		e.planCache.Drop(key)
	}
	pc, err := e.chooseForExec(q)
	if err != nil {
		return planChoice{}, err
	}
	e.planCache.Put(key, pc)
	return pc, nil
}

// recertifyLocked re-derives a cached choice's TestFD certificates from
// the current catalog and cross-checks the claims. Choices without
// certificates (standard plans, reverse-view plans) have nothing to vet.
func (e *Engine) recertifyLocked(pc planChoice) bool {
	if len(pc.certs) == 0 || pc.fallback == nil {
		return true
	}
	cat := plancheck.Catalog(e.store.Catalog())
	return len(plancheck.CrossCheck(pc.fallback, pc.plan, cat, pc.certs)) == 0
}
