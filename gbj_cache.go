package gbj

// Plan-cache layer. Plan selection — parse-tree normalization, TestFD,
// costing both shapes, static verification — is pure CPU work repeated
// verbatim for every occurrence of the same query text, which is exactly
// the traffic shape a multi-session server sees. The cache memoizes the
// core.Choice keyed by the canonical query alone (sql.Canonical, which
// re-parses to the same tree, so distinct queries never share a key).
//
// The key needs nothing else because of one invariant: every engine write
// — DDL, DML, a CSV load, a setter — runs through Engine.write, which
// empties the cache before it releases the write lock, on success and on
// error. Lookups and inserts run under the read lock, so an entry is only
// ever planned against the catalog, data and settings it is served under.
// Plans enter the cache already verified (the optimizer's CheckPlans), so a
// hit executes as is. Sharing cached plan trees across concurrent sessions
// is safe: executions never mutate plan nodes (the concurrent-execution
// oracles in internal/exec run one plan from many goroutines under -race).

import (
	"repro/internal/core"
	"repro/internal/obs"
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
// misses, LRU evictions and whole-cache invalidations. The counters
// survive SetPlanCacheSize.
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

// write is the one way the engine changes: it runs fn under the write lock
// and empties the plan cache before unlocking, whether fn succeeded or not
// — a statement that failed after an earlier one landed has still changed
// what a plan may assume.
func (e *Engine) write(fn func() error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.planCache != nil {
		defer e.planCache.Clear()
	}
	return fn()
}

// choose is the engine's one plan decision, core.Optimizer.Choose, behind
// the plan cache: what a query runs and what EXPLAIN prints. Caller holds
// e.mu (read suffices), which keeps write — and its clear — out between the
// lookup and the insert.
func (e *Engine) choose(q *sql.SelectStmt) (*core.Choice, error) {
	if e.planCache == nil {
		return e.opt.Choose(q)
	}
	key := sql.Canonical(q)
	if v, ok := e.planCache.Get(key); ok {
		return v.(*core.Choice), nil
	}
	c, err := e.opt.Choose(q)
	if err != nil {
		return nil, err
	}
	e.planCache.Put(key, c)
	return c, nil
}
