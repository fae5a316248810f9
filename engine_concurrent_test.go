package gbj

// Concurrent-engine regression: the server reads engine accessors and runs
// queries from many handler goroutines while DML and mode setters fire.
// Run under -race (make race does), this is the data-race audit for every
// surface a handler touches: Query*, Exec, the mode setters/getters,
// Fallbacks, RecoveryCounters, PlanCacheStats and ListObjects. The
// snapshot-consistency assertion inside each query — COUNT and SUM taken
// in one statement must agree — is what catches a query observing a
// half-published write.

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/workload"
)

func TestConcurrentEngineMixedTraffic(t *testing.T) {
	e := New()
	e.SetPlanCacheSize(64)
	e.MustExec(`CREATE TABLE kv (id INTEGER PRIMARY KEY, grp INTEGER, val INTEGER)`)
	for i := 0; i < 16; i++ {
		e.MustExec(fmt.Sprintf(`INSERT INTO kv VALUES (%d, %d, 2)`, i, i%4))
	}

	const (
		writers   = 2
		readers   = 6
		perWriter = 60
		perReader = 80
	)
	var wg sync.WaitGroup
	var inserted atomic.Int64
	errs := make(chan error, writers+readers+2)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := 100 + w*perWriter + i
				if err := e.Exec(fmt.Sprintf(`INSERT INTO kv VALUES (%d, %d, 2)`, id, id%4)); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				inserted.Add(1)
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				res, err := e.QueryContext(context.Background(), `SELECT COUNT(id), SUM(val) FROM kv`)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				count := res.Rows[0][0].(int64)
				sum := res.Rows[0][1].(int64)
				if sum != 2*count {
					errs <- fmt.Errorf("reader %d: torn snapshot: COUNT=%d SUM=%d", r, count, sum)
					return
				}
				if count < 16 || count > int64(16+writers*perWriter) {
					errs <- fmt.Errorf("reader %d: impossible count %d", r, count)
					return
				}
			}
		}(r)
	}

	// A config flipper and an accessor poller: the handler-goroutine
	// surfaces the server reads while queries run, and EXPLAIN of the
	// readers' query, which renders the plan decision they run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			e.SetVectorize(i%2 == 0)
			e.SetParallelism(i % 3)
			e.SetMode([]Mode{ModeCost, ModeAlways, ModeNever}[i%3])
		}
		e.SetVectorize(false)
		e.SetParallelism(0)
		e.SetMode(ModeCost)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = e.Fallbacks()
			_ = e.RecoveryCounters()
			_ = e.PlanCacheStats()
			_ = e.Mode()
			_ = e.LinkRetries()
			_ = e.MemoryBudget()
			_ = e.ListObjects()
			if _, err := e.Explain(`SELECT COUNT(id), SUM(val) FROM kv`); err != nil {
				errs <- fmt.Errorf("explain: %w", err)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Quiesced: the final count must equal everything inserted.
	res, err := e.QueryOptionsContext(context.Background(), `SELECT COUNT(id) FROM kv`, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(16) + inserted.Load()
	if got := res.Rows[0][0].(int64); got != want {
		t.Fatalf("final count %d, want %d", got, want)
	}
}

// sortedRows renders a result's rows, sorted, for comparing runs.
func sortedRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = fmt.Sprint(row...)
	}
	slices.Sort(out)
	return out
}

// runSessions runs Example 1 from sixteen sessions at once, five times each,
// under four settings in turn — the engine's, Serial, a leased budget of
// budget bytes, and an analyzed run whose analysis analyzed checks — and
// fails on an error or on rows other than want.
func runSessions(t *testing.T, e *Engine, want []string, budget int64, analyzed func(*Analysis) error) {
	t.Helper()
	ctx := context.Background()
	runs := []func() (*Result, error){
		func() (*Result, error) { return e.QueryOptionsContext(ctx, workload.Example1Query, nil) },
		func() (*Result, error) {
			return e.QueryOptionsContext(ctx, workload.Example1Query, &QueryOptions{Serial: true})
		},
		func() (*Result, error) {
			return e.QueryOptionsContext(ctx, workload.Example1Query, &QueryOptions{MemoryBudget: budget})
		},
		func() (*Result, error) {
			a, err := e.QueryAnalyzedContext(ctx, workload.Example1Query, nil)
			if err == nil {
				err = analyzed(a)
			}
			if err != nil {
				return nil, err
			}
			return a.Result, nil
		},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		run := runs[g%len(runs)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := run()
				if err != nil {
					errs <- err
					return
				}
				if got := sortedRows(res); !slices.Equal(got, want) {
					errs <- fmt.Errorf("session %d: %d rows differ from the reference's %d", g, len(got), len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentSessionsShareOneShape: one cached query — planned once, its
// plan's exec.Shape made once — run by many sessions at once, each under
// settings of its own: the engine's four workers and batch form, a Serial
// query's one worker in rows, a leased budget that spills, an analyzed run
// with metrics and spans. Every run returns the rows of the first run, which
// planned the entry, and no run re-plans it. Under -race it is the check
// that a shape holds nothing a run writes.
func TestConcurrentSessionsShareOneShape(t *testing.T) {
	store, err := workload.EmployeeDepartment(1500, 25)
	if err != nil {
		t.Fatal(err)
	}
	e := NewWithStore(store)
	e.SetParallelism(4)
	e.SetVectorize(true)
	e.SetSpillDir(t.TempDir())
	res, err := e.QueryOptionsContext(context.Background(), workload.Example1Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	cp := e.cachedText(workload.Example1Query)
	if cp == nil {
		t.Fatal("the first run left no cache entry")
	}
	runSessions(t, e, sortedRows(res), 4<<10, func(*Analysis) error { return nil })
	if s := e.PlanCacheStats(); s.Misses != 1 || e.cachedText(workload.Example1Query) != cp {
		t.Fatalf("the sessions did not share one plan and one shape: %+v", s)
	}
}

// TestConcurrentSessionsShareOneClusterPlan is the cluster's leg of the test
// above: sixteen sessions on a 4-node engine run the one cluster plan the
// cached choice carries under settings of their own — sites at once by
// default, one at a time under Serial or a memory budget (1 MiB: a site does
// not spill, and 4 KiB fits neither plan without spilling), instrumented in
// an analyzed run — and every run returns the single-site rows. make sites
// runs it at -cpu 1,4, where sites at once differ.
func TestConcurrentSessionsShareOneClusterPlan(t *testing.T) {
	engineOn := func(nodes int) *Engine {
		store, err := workload.EmployeeDepartment(1500, 25)
		if err != nil {
			t.Fatal(err)
		}
		e := NewWithStore(store)
		e.SetParallelism(4)
		if err := e.SetNodes(nodes); err != nil {
			t.Fatal(err)
		}
		return e
	}
	res, err := engineOn(1).QueryOptionsContext(context.Background(), workload.Example1Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedRows(res)

	e := engineOn(4)
	if res, err = e.QueryOptionsContext(context.Background(), workload.Example1Query, nil); err != nil {
		t.Fatal(err)
	}
	if got := sortedRows(res); !slices.Equal(got, want) {
		t.Fatalf("the first cluster run's %d rows differ from the single site's %d", len(got), len(want))
	}
	cp := e.cachedText(workload.Example1Query)
	if cp == nil || cp.Plan.Dist == nil {
		t.Fatal("the first run left no cache entry with a cluster plan")
	}
	runSessions(t, e, want, 1<<20, func(a *Analysis) error {
		if a.Plan != cp.Plan.Dist.Root {
			return fmt.Errorf("an analyzed run executed a cluster plan other than the cached one")
		}
		return nil
	})
	if s := e.PlanCacheStats(); s.Misses != 1 || e.cachedText(workload.Example1Query) != cp {
		t.Fatalf("the sessions did not share one cached cluster plan: %+v", s)
	}
}
