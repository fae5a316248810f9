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
// Every engine has the cache (at defaultPlanCacheSize entries until
// SetPlanCacheSize resizes it), so every SELECT, EXPLAIN and script query is
// planned through it: there is no uncached plan path.
//
// An entry is the *core.Choice itself: each plan it can run — the chosen one
// and its lazy fallback — is a core.Runnable made with the choice, holding
// its estimates, the plan-only half of its compilation (exec.Shape), its
// column names and, on a cluster, the verified cluster plan the cost model
// priced. So a hit binds operators to its snapshot and compiles nothing, on
// one site or on the cluster. A shape depends on the plan alone (the engine
// never forces a grouping strategy): the worker count, the source form, a
// leased budget and the spill decision are read when a run binds it, so one
// shape serves a serial, a degraded and a vectorized run alike.
//
// Hits count queries that were not re-planned, a text answered by the
// canonical key included; misses count plan selections.
//
// What a plan depends on. Plan selection reads the catalog (names, keys,
// constraints, views — TestFD's YES is a function of declared constraints
// alone), the engine's settings (mode, workers, vectorization, nodes and
// distributed strategy, which the cost model prices), and the statistics and
// rows of the base tables the query reads — those its plans scan, views and
// derived tables expanded, and those of the uncorrelated subqueries planning
// runs (core.Choice.Tables) — and nothing else. So the keys need nothing more because of one invariant:
// every engine write runs through Engine.write, which, before it releases the
// write lock and on success and on error alike, drops every entry planned
// from what the write may have changed. DDL and setters change the catalog or
// the settings, which every plan reads: they empty the cache. DML and a CSV
// load change the rows of the tables they name and nothing else: they drop
// the entries that read one of those tables, and an entry over other tables
// is still exactly the choice a fresh plan would make. Lookups and inserts
// run under the read lock, so an entry is only ever planned against the
// catalog, settings and data of its tables it is served under. Plans enter
// the cache already verified (the optimizer's CheckPlans), so a hit executes
// as is. Sharing cached plan trees, shapes and cluster plans across
// concurrent sessions is safe: executions never mutate plan nodes, shapes or
// cluster plans (under -race, TestConcurrentSessionsShareOneShape and
// TestConcurrentSessionsShareOneClusterPlan run one cached shape and one
// cached cluster plan from many sessions under settings of their own, and the
// exec oracles one plan from many goroutines).

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sql"
)

// defaultPlanCacheSize is the plan cache's capacity in entries, that of
// every new engine and of SetPlanCacheSize(0).
const defaultPlanCacheSize = 256

// SetPlanCacheSize bounds the engine's plan cache to n entries; n <= 0
// restores the default (defaultPlanCacheSize). Resizing drops all cached
// entries; the cache is never off.
func (e *Engine) SetPlanCacheSize(n int) {
	if n <= 0 {
		n = defaultPlanCacheSize
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.planCache = core.NewPlanCache(n, &e.cacheStats)
}

// PlanCacheStats returns the engine-lifetime plan-cache counters: hits,
// misses, LRU evictions and invalidations (writes that dropped plans). The
// counters survive SetPlanCacheSize.
func (e *Engine) PlanCacheStats() obs.CacheSnapshot {
	return e.cacheStats.Snapshot()
}

// write is the one way the engine changes: it runs fn under the write lock
// and, before unlocking, drops the cached plans that read any of tables —
// every plan when tables is nil — whether fn succeeded or not: a statement
// that failed after an earlier one landed has still changed what a plan may
// assume. A write passes the tables whose rows it changes, and nil when it
// changes the catalog or a setting, or cannot say what it changes.
func (e *Engine) write(tables []string, fn func() error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.planCache.Drop(tables)
	return fn()
}

// choose is the engine's one plan decision, core.Optimizer.Choose, behind
// the plan cache's canonical key: what a query runs and what EXPLAIN prints.
// A miss plans q into a new entry. A non-empty text is q's exact text, and
// becomes an alias of q's entry. Caller holds e.mu (read suffices), which
// keeps write — and its drop — out between the lookup and the insert.
func (e *Engine) choose(q *sql.SelectStmt, text string) (*core.Choice, error) {
	key := sql.Canonical(q)
	v, ok := e.planCache.Get(key)
	if !ok {
		c, err := e.opt.Choose(q)
		if err != nil {
			return nil, err
		}
		e.planCache.PutReads(key, c, c.Tables)
		v = c
	}
	if text != "" {
		e.planCache.Alias(text, key)
	}
	return v.(*core.Choice), nil
}

// cachedText is the plan cache's entry for a query's exact text, nil when
// the text is no alias. Caller holds e.mu.
func (e *Engine) cachedText(text string) *core.Choice {
	v, ok := e.planCache.GetText(text)
	if !ok {
		return nil
	}
	return v.(*core.Choice)
}
