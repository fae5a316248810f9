package core

// PlanCache is the bounded LRU behind the engine's plan cache. It maps an
// opaque key — the engine uses the canonical query text — to an opaque
// planned value. The cache itself knows nothing about plans: eviction
// order, the capacity bound and the obs counters live here; keeping entries
// fresh stays with the engine, which clears the cache on every write.
//
// All methods are safe for concurrent use; every session's lookups go
// through one shared instance.

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// PlanCache is a concurrency-safe LRU map with hit/miss/eviction counters.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element
	stats   *obs.CacheStats
}

type cacheEntry struct {
	key string
	val any
}

// NewPlanCache returns a cache bounded to capacity entries. A nil stats is
// replaced by a private one so callers may pass nil. Capacity < 1 is
// treated as 1 — a cache you can construct is a cache that can hold
// something; the engine disables caching by not constructing one.
func NewPlanCache(capacity int, stats *obs.CacheStats) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	if stats == nil {
		stats = &obs.CacheStats{}
	}
	return &PlanCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
		stats:   stats,
	}
}

// Get returns the cached value and marks it most recently used. The
// hit/miss counters move on every call.
func (c *PlanCache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.stats.Miss()
		return nil, false
	}
	c.order.MoveToFront(el)
	c.stats.Hit()
	return el.Value.(*cacheEntry).val, true
}

// Put inserts or replaces the value, evicting the least recently used
// entry when the bound is exceeded.
func (c *PlanCache) Put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, val: val})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.stats.Evict()
	}
}

// Clear empties the cache and records one invalidation.
func (c *PlanCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.entries = make(map[string]*list.Element)
	c.stats.Invalidate()
}

// Len returns the number of live entries.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
