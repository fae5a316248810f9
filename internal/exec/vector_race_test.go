package exec_test

// Concurrent vectorized execution over one shared store. The storage layer
// caches each table's columnar batches and shares string dictionaries
// across them, so concurrent vectorized queries read the same vectors and
// dictionaries from many goroutines while the probe stages of several
// workers gather left columns through Vector.AppendFrom (which adopts a
// cached column's dictionary read-only and must never intern into it).
// Running this under the race detector — `make check` runs this package
// with -race — is what certifies those sharing rules.

import (
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/workload"
)

// TestConcurrentVectorizedAggregation runs the Example 1 join+group query
// through the vectorized engine from many goroutines at once — serial and
// parallel per query — against one shared store, and demands every run
// return the serial row engine's exact rows.
func TestConcurrentVectorizedAggregation(t *testing.T) {
	store, err := workload.EmployeeDepartment(5000, 50)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sql.ParseQuery(workload.Example1Query)
	if err != nil {
		t.Fatal(err)
	}
	report, err := core.NewOptimizer(store).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	plans := []algebra.Node{report.Standard}
	if report.Alternative != nil {
		plans = append(plans, report.Alternative)
	}
	refs := make([][]string, len(plans))
	for i, plan := range plans {
		res, err := exec.Run(plan, store, &exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = rowStrings(res.Rows)
	}

	const goroutines = 8
	const runsEach = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := 0; run < runsEach; run++ {
				pi := (g + run) % len(plans)
				opts := &exec.Options{Vectorize: true}
				if (g+run)%2 == 1 {
					opts.Parallelism = 4
				}
				res, err := exec.Run(plans[pi], store, opts)
				if err != nil {
					errs <- err
					return
				}
				if got := rowStrings(res.Rows); !sameRowOrder(refs[pi], got) {
					t.Errorf("goroutine %d run %d (par=%d): vectorized rows diverged from the row engine",
						g, run, opts.Parallelism)
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
