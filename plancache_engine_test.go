package gbj

// Plan-cache correctness at the engine level: the invalidation matrix
// (DML epoch bumps, mode flips, spill-dir change) proving no stale plan is
// ever served, and the certificate re-vetting gate proving a cached plan
// whose TestFD certificate no longer derives from the catalog is rejected
// before execution.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/plancheck"
	"repro/internal/sql"
)

// queryCounts runs example1Query and returns DeptID -> COUNT.
func queryCounts(t *testing.T, e *Engine) map[int64]int64 {
	t.Helper()
	res, err := e.Query(example1Query)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int64{}
	for _, row := range res.Rows {
		counts[row[0].(int64)] = row[2].(int64)
	}
	return counts
}

func TestPlanCacheHitsRepeatQueries(t *testing.T) {
	e := newExample1Engine(t)
	e.SetPlanCacheSize(16)
	base := queryCounts(t, e)
	if s := e.PlanCacheStats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after cold run: %+v", s)
	}
	for i := 0; i < 5; i++ {
		if got := queryCounts(t, e); fmt.Sprint(got) != fmt.Sprint(base) {
			t.Fatalf("warm run %d: %v != %v", i, got, base)
		}
	}
	s := e.PlanCacheStats()
	if s.Hits != 5 || s.Misses != 1 {
		t.Fatalf("warm stats: %+v", s)
	}
	if e.PlanCacheLen() != 1 {
		t.Fatalf("cache len %d, want 1", e.PlanCacheLen())
	}
	// Query spelling differences that parse to the same AST share an
	// entry; semantically different queries do not.
	if _, err := e.Query("select d.DeptID, d.Name, count(e.EmpID) from Employee e, Department d where e.DeptID = d.DeptID group by d.DeptID, d.Name"); err != nil {
		t.Fatal(err)
	}
	if e.PlanCacheLen() != 2 { // different correlation names -> different AST
		t.Fatalf("cache len %d, want 2", e.PlanCacheLen())
	}
}

// The invalidation matrix: every row is (mutation, expectation). After
// each mutation the next run must be a miss — re-planned against the new
// state — and must return correct rows for that state.
func TestPlanCacheInvalidationMatrix(t *testing.T) {
	dir := t.TempDir()
	e := newExample1Engine(t)
	e.SetPlanCacheSize(16)

	expectFresh := func(step string, mutate func(), wantDept1 int64) {
		t.Helper()
		mutate()
		missesBefore := e.PlanCacheStats().Misses
		counts := queryCounts(t, e)
		s := e.PlanCacheStats()
		if s.Misses != missesBefore+1 {
			t.Fatalf("%s: run served from cache (misses %d -> %d): a stale plan could have executed", step, missesBefore, s.Misses)
		}
		if counts[1] != wantDept1 {
			t.Fatalf("%s: dept 1 count = %d, want %d", step, counts[1], wantDept1)
		}
		// And the re-planned entry serves hits again.
		hitsBefore := s.Hits
		if got := queryCounts(t, e); got[1] != wantDept1 {
			t.Fatalf("%s: warm rerun: %v", step, got)
		}
		if e.PlanCacheStats().Hits != hitsBefore+1 {
			t.Fatalf("%s: rerun did not hit", step)
		}
	}

	expectFresh("cold", func() {}, 2)
	expectFresh("DML epoch bump", func() {
		e.MustExec(`INSERT INTO Employee VALUES (8, 'F', 'F', 1)`)
	}, 3)
	expectFresh("SetVectorize flip", func() { e.SetVectorize(true) }, 3)
	expectFresh("SetParallelism flip", func() { e.SetParallelism(4) }, 3)
	expectFresh("SetDistStrategy flip", func() { e.SetDistStrategy(DistEager) }, 3)
	expectFresh("spill-dir change", func() {
		e.SetMemoryBudget(1 << 30)
		e.SetSpillDir(dir)
	}, 3)
	expectFresh("SetMode flip", func() { e.SetMode(ModeAlways) }, 3)
	expectFresh("second DML epoch bump", func() {
		e.MustExec(`INSERT INTO Employee VALUES (9, 'G', 'G', 2)`)
	}, 3)

	if s := e.PlanCacheStats(); s.Invalidations == 0 {
		t.Fatalf("no whole-cache invalidations recorded: %+v", s)
	}
}

// A plan whose certificate does not survive verification never executes.
// Chosen under the tamper hook, which truncates the certified GA1+ column
// list exactly like a real staleness bug would, the query fails
// verification and nothing is cached. A cached plan whose certificate no
// longer survives independent re-derivation is rejected at hit time and
// re-planned; the engine caches only verified plans, so that entry is
// planted by hand.
func TestPlanCacheRejectsTamperedCertificate(t *testing.T) {
	e := newExample1Engine(t)
	e.SetPlanCacheSize(16)
	e.SetMode(ModeAlways) // guarantee the eager (certified) shape

	core.TestHooks.TamperCertCols = true
	_, err := e.Query(example1Query)
	core.TestHooks.TamperCertCols = false
	if err == nil || !strings.Contains(err.Error(), "eager-cert") {
		t.Fatalf("a tampered certificate was not refused when chosen: %v", err)
	}
	if n := e.PlanCacheLen(); n != 0 {
		t.Fatalf("the refused plan was cached: %d entries", n)
	}

	// Plant a poisoned entry: the cached certificate licenses the wrong GA1+.
	base := queryCounts(t, e)
	if base[1] != 2 || base[2] != 3 || base[3] != 1 {
		t.Fatalf("cold run returned wrong rows: %v", base)
	}
	q, err := sql.ParseQuery(example1Query)
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	key := e.planKey(q)
	v, ok := e.planCache.Get(key)
	if !ok {
		e.mu.Unlock()
		t.Fatal("the cold run left no cache entry")
	}
	pc := v.(planChoice)
	tampered := *pc.certs[0]
	tampered.GroupCols = tampered.GroupCols[:len(tampered.GroupCols)-1]
	pc.certs = []*plancheck.Certificate{&tampered}
	e.planCache.Put(key, pc)
	e.mu.Unlock()

	// The next lookup hits the poisoned entry, re-vets it through
	// plancheck.CrossCheck, rejects it, and re-plans cleanly.
	got := queryCounts(t, e)
	s := e.PlanCacheStats()
	if s.Rejected != 1 {
		t.Fatalf("tampered certificate not rejected: %+v", s)
	}
	if got[1] != 2 || got[2] != 3 || got[3] != 1 {
		t.Fatalf("post-rejection rows wrong: %v", got)
	}

	// The replacement entry is clean: it now hits without rejection.
	_ = queryCounts(t, e)
	s2 := e.PlanCacheStats()
	if s2.Rejected != 1 || s2.Hits <= s.Hits {
		t.Fatalf("replacement entry not served: before %+v after %+v", s, s2)
	}
}
