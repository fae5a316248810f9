package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestPlanCacheLRUEviction(t *testing.T) {
	stats := &obs.CacheStats{}
	c := NewPlanCache(2, stats)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // a becomes MRU
		t.Fatal("a missing")
	}
	c.Put("c", 3) // evicts b, the LRU
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("a = %v, %v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v.(int) != 3 {
		t.Fatalf("c = %v, %v", v, ok)
	}
	s := stats.Snapshot()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	// 4 Gets above: b missed once, the rest hit.
	if s.Hits != 3 || s.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 3/1", s.Hits, s.Misses)
	}
}

func TestPlanCacheClear(t *testing.T) {
	stats := &obs.CacheStats{}
	c := NewPlanCache(8, stats)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("len after clear = %d", c.Len())
	}
	for _, k := range []string{"a", "b"} {
		if _, ok := c.Get(k); ok {
			t.Fatalf("%s survived Clear", k)
		}
	}
	if s := stats.Snapshot(); s.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", s.Invalidations)
	}
}

func TestPlanCacheConcurrent(t *testing.T) {
	c := NewPlanCache(16, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%32)
				if i%3 == 0 {
					c.Put(key, i)
				} else {
					c.Get(key)
				}
				if i%100 == 0 {
					c.Clear()
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("cache exceeded bound: %d", c.Len())
	}
}

// An alias answers for its entry until the entry goes — evicted or cleared
// — or more than capacity aliases push it out; a GetText miss counts
// nothing, so a text answered by its key counts one hit.
func TestPlanCacheAliases(t *testing.T) {
	stats := &obs.CacheStats{}
	c := NewPlanCache(2, stats)
	c.Alias("select a", "a") // no entry yet: nothing to alias
	if _, ok := c.GetText("select a"); ok || c.Aliases() != 0 {
		t.Fatalf("an alias of a missing key answered (%d aliases)", c.Aliases())
	}
	c.Put("a", 1)
	c.Alias("select a", "a")
	c.Alias("SELECT a", "a")
	if v, ok := c.GetText("select a"); !ok || v.(int) != 1 {
		t.Fatalf("alias = %v, %v", v, ok)
	}
	if s := stats.Snapshot(); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("hits/misses = %d/%d, want 1/0", s.Hits, s.Misses)
	}
	c.Put("a", 2) // replacing the value keeps the aliases
	if v, ok := c.GetText("SELECT a"); !ok || v.(int) != 2 {
		t.Fatalf("alias after replace = %v, %v", v, ok)
	}

	c.Alias("Select a", "a") // a third alias pushes out the least recently used
	if _, ok := c.GetText("select a"); ok || c.Aliases() != 2 {
		t.Fatalf("aliases exceed the capacity: %d", c.Aliases())
	}

	c.Put("b", 3)
	c.Alias("select b", "b")
	c.Put("c", 4) // evicts a, the LRU entry, and its aliases
	for _, text := range []string{"SELECT a", "Select a"} {
		if _, ok := c.GetText(text); ok {
			t.Fatalf("%q outlived its entry", text)
		}
	}
	if c.Aliases() != 1 || c.Len() != 2 {
		t.Fatalf("%d aliases and %d entries, want 1 and 2", c.Aliases(), c.Len())
	}
	c.Clear()
	if _, ok := c.GetText("select b"); ok || c.Aliases() != 0 {
		t.Fatal("an alias survived Clear")
	}
}

// Drop takes the entries planned from a changed table, with their aliases;
// nil tables empty the cache. Each call is one invalidation.
func TestPlanCacheDrop(t *testing.T) {
	stats := &obs.CacheStats{}
	c := NewPlanCache(8, stats)
	c.PutReads("a", 1, []string{"t1", "t2"})
	c.PutReads("b", 2, []string{"t3"})
	c.Alias("select a", "a")
	c.Alias("select b", "b")
	c.Drop([]string{"t2"})
	if _, ok := c.GetText("select a"); ok || c.Len() != 1 || c.Aliases() != 1 {
		t.Fatalf("after dropping t2: %d entries and %d aliases, want b's alone", c.Len(), c.Aliases())
	}
	if v, ok := c.GetText("select b"); !ok || v.(int) != 2 {
		t.Fatalf("b = %v, %v: a drop of another table took it", v, ok)
	}
	c.Drop([]string{})
	if c.Len() != 1 {
		t.Fatal("a drop of no table took an entry with its tables")
	}
	c.Drop(nil)
	if c.Len() != 0 || c.Aliases() != 0 {
		t.Fatalf("Drop(nil) left %d entries and %d aliases", c.Len(), c.Aliases())
	}
	if s := stats.Snapshot(); s.Invalidations != 3 {
		t.Fatalf("invalidations = %d, want 3", s.Invalidations)
	}
}
