package obs

// Plan-cache counters. The engine's plan cache reports every lookup here;
// the server's /v1/stats endpoint and the benchmark's trace read them back.
// All fields are atomics — lookups happen concurrently from every session.

import "sync/atomic"

// CacheStats counts plan-cache traffic.
type CacheStats struct {
	hits   atomic.Int64
	misses atomic.Int64
	// evictions counts entries dropped by the LRU bound.
	evictions atomic.Int64
	// invalidations counts engine writes while the cache is on: each drops
	// the plans over the tables it changed (DML, a CSV load) or every plan
	// (DDL, a setter).
	invalidations atomic.Int64
}

// Hit records a served cache hit.
func (s *CacheStats) Hit() { s.hits.Add(1) }

// Miss records a lookup that had to plan from scratch.
func (s *CacheStats) Miss() { s.misses.Add(1) }

// Evict records an LRU eviction.
func (s *CacheStats) Evict() { s.evictions.Add(1) }

// Invalidate records one write's drop of plans.
func (s *CacheStats) Invalidate() { s.invalidations.Add(1) }

// CacheSnapshot is a point-in-time copy of the counters.
type CacheSnapshot struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
}

// Snapshot copies the counters.
func (s *CacheStats) Snapshot() CacheSnapshot {
	return CacheSnapshot{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Evictions:     s.evictions.Load(),
		Invalidations: s.invalidations.Load(),
	}
}

// HitRate returns hits / (hits + misses), 0 when no lookups happened.
func (c CacheSnapshot) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}
