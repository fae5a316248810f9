package gbj

// Plan-cache layer. Plan selection — parse-tree normalization, TestFD,
// costing both shapes, static verification — is pure CPU work repeated
// verbatim for every occurrence of the same query text, which is exactly
// the traffic shape a multi-session server sees. The cache memoizes the
// core.Choice under two keys, tried in turn:
//
//   - the exact query text, looked up under the read lock prepare takes
//     anyway: a hit goes straight to execution, with no lexing, parsing or
//     rendering. Identical texts parse identically, so this key needs no
//     argument of its own.
//   - the canonical query (sql.Canonical, which re-parses to the same tree,
//     so distinct queries never share a key), rendered after a parse
//     outside the lock when the text misses. Spellings of one query that
//     differ in case, white space or redundant parentheses share its one
//     plan, and the text that reached it becomes an alias of the entry
//     (core.PlanCache bounds the aliases and drops them with their entry).
//
// Hits count queries that were not re-planned, a text answered by the
// canonical key included; misses count plan selections.
//
// The keys need nothing else because of one invariant: every engine write
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
// the plan cache's canonical key: what a query runs and what EXPLAIN prints.
// A non-empty text is q's exact text, and becomes an alias of q's entry once
// q has one. Caller holds e.mu (read suffices), which keeps write — and its
// clear — out between the lookup and the insert.
func (e *Engine) choose(q *sql.SelectStmt, text string) (*core.Choice, error) {
	if e.planCache == nil {
		return e.opt.Choose(q)
	}
	key := sql.Canonical(q)
	v, ok := e.planCache.Get(key)
	if !ok {
		c, err := e.opt.Choose(q)
		if err != nil {
			return nil, err
		}
		e.planCache.Put(key, c)
		v = c
	}
	if text != "" {
		e.planCache.Alias(text, key)
	}
	return v.(*core.Choice), nil
}

// cachedText is the plan cache's answer for a query's exact text, nil when
// caching is off or the text is no alias. Caller holds e.mu.
func (e *Engine) cachedText(text string) *core.Choice {
	if e.planCache == nil {
		return nil
	}
	v, ok := e.planCache.GetText(text)
	if !ok {
		return nil
	}
	return v.(*core.Choice)
}
