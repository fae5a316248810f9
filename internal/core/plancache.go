package core

// PlanCache is the bounded LRU behind the engine's plan cache. It maps an
// opaque key — the engine uses the canonical query text — to an opaque
// planned value, and in front of the keys it keeps a second map: aliases,
// exact texts known to key an entry, so that a lookup by the text a client
// sent needs no parse. The cache itself knows nothing about plans: eviction
// order, the capacity bounds and the obs counters live here; keeping
// entries fresh stays with the engine, which on every write calls Drop with
// the tables the write changed — or with nil, which empties the cache, when
// the write changed the catalog or a setting, or it cannot say what it
// changed. An entry names the tables its value was planned from (PutReads),
// and Drop removes exactly the entries that name a changed table; an entry
// put without them (Put) names none, so it goes only when the cache is
// emptied.
//
// An alias belongs to its entry: it goes when the entry is evicted or
// dropped, and there are at most capacity aliases, the least recently used
// going first, so no stream of distinct texts grows the cache.
//
// All methods are safe for concurrent use; every session's lookups go
// through one shared instance.

import (
	"container/list"
	"slices"
	"sync"

	"repro/internal/obs"
)

// PlanCache is a concurrency-safe LRU map with hit/miss/eviction counters.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element
	// aliasOrder holds *alias values, front = most recently used; aliases
	// indexes them by text.
	aliasOrder *list.List
	aliases    map[string]*list.Element
	stats      *obs.CacheStats
}

type cacheEntry struct {
	key string
	val any
	// tables are the tables val was planned from.
	tables []string
}

// alias is one exact text and the element of the entry its parse keys.
type alias struct {
	text  string
	entry *list.Element
}

// NewPlanCache returns a cache bounded to capacity entries. A nil stats is
// replaced by a private one so callers may pass nil. Capacity < 1 is
// treated as 1 — a cache you can construct is a cache that can hold
// something.
func NewPlanCache(capacity int, stats *obs.CacheStats) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	if stats == nil {
		stats = &obs.CacheStats{}
	}
	return &PlanCache{
		cap:        capacity,
		order:      list.New(),
		entries:    make(map[string]*list.Element),
		aliasOrder: list.New(),
		aliases:    make(map[string]*list.Element),
		stats:      stats,
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

// GetText returns the value of the entry text is an alias of, marking both
// most recently used. A hit counts as one; a miss counts nothing, because
// the caller goes on to look the text's key up with Get, which counts.
func (c *PlanCache) GetText(text string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	al, ok := c.aliases[text]
	if !ok {
		return nil, false
	}
	c.aliasOrder.MoveToFront(al)
	el := al.Value.(*alias).entry
	c.order.MoveToFront(el)
	c.stats.Hit()
	return el.Value.(*cacheEntry).val, true
}

// Alias makes text an alias of key's entry, so that GetText(text) answers
// what Get(key) does, until the entry goes or the alias is the least
// recently used of more than capacity. Without an entry for key it does
// nothing.
func (c *PlanCache) Alias(text, key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return
	}
	if al, ok := c.aliases[text]; ok {
		al.Value.(*alias).entry = el
		c.aliasOrder.MoveToFront(al)
		return
	}
	c.aliases[text] = c.aliasOrder.PushFront(&alias{text: text, entry: el})
	if c.aliasOrder.Len() > c.cap {
		c.dropAlias(c.aliasOrder.Back())
	}
}

// Put inserts or replaces the value as planned from no table: it goes only
// at Clear, or Drop(nil).
func (c *PlanCache) Put(key string, val any) { c.put(&cacheEntry{key: key, val: val}) }

// PutReads inserts or replaces the value as planned from tables and nothing
// else of the data: a Drop of other tables keeps it.
func (c *PlanCache) PutReads(key string, val any, tables []string) {
	c.put(&cacheEntry{key: key, val: val, tables: tables})
}

// put inserts or replaces an entry, keeping the aliases of the one it
// replaces, and evicts the least recently used entry, and its aliases, when
// the bound is exceeded.
func (c *PlanCache) put(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.entries[e.key] = c.order.PushFront(e)
	if c.order.Len() > c.cap {
		c.remove(c.order.Back())
		c.stats.Evict()
	}
}

// remove takes one entry out, its aliases with it.
func (c *PlanCache) remove(el *list.Element) {
	c.order.Remove(el)
	delete(c.entries, el.Value.(*cacheEntry).key)
	for al := c.aliasOrder.Front(); al != nil; {
		next := al.Next()
		if al.Value.(*alias).entry == el {
			c.dropAlias(al)
		}
		al = next
	}
}

// dropAlias removes one alias.
func (c *PlanCache) dropAlias(al *list.Element) {
	c.aliasOrder.Remove(al)
	delete(c.aliases, al.Value.(*alias).text)
}

// Drop removes the entries planned from any of tables, aliases included, and
// records one invalidation. Nil tables empties the cache (Clear).
func (c *PlanCache) Drop(tables []string) {
	if tables == nil {
		c.Clear()
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); slices.ContainsFunc(e.tables, func(t string) bool { return slices.Contains(tables, t) }) {
			c.remove(el)
		}
		el = next
	}
	c.stats.Invalidate()
}

// Clear empties the cache, aliases included, and records one invalidation.
func (c *PlanCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.entries = make(map[string]*list.Element)
	c.aliasOrder.Init()
	c.aliases = make(map[string]*list.Element)
	c.stats.Invalidate()
}

// Len returns the number of live entries; aliases are not entries.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Aliases returns the number of live aliases.
func (c *PlanCache) Aliases() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.aliases)
}
