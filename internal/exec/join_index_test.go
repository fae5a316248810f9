package exec_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/exec"
	"repro/internal/value"
	"repro/internal/workload"
)

// TestEagerRunCostsNoMoreAtTenTimesTheDepartments pins what Example 1's eager
// plan allocates per run to the grouped side alone: Department grows from 100
// to 1 000 rows while the 1 000 employees stay in the first 100 departments,
// so every run groups the same rows into the same 100 groups and returns the
// same 100 rows. The Department join probes the table's join index, made by
// the first run, so the 900 rows no employee joins cost a run no allocation
// and no byte, in either source form. A run that collects and builds the
// Department side itself makes 16 (row form) to 22 (batch form) allocations
// and 160–230 KB more at 1 000.
func TestEagerRunCostsNoMoreAtTenTimesTheDepartments(t *testing.T) {
	const slackAllocs, slackBytes = 2, 1024
	for _, vectorize := range []bool{false, true} {
		t.Run(fmt.Sprintf("vectorize=%v", vectorize), func(t *testing.T) {
			perRun := func(departments int) (allocs, bytes float64) {
				store, err := workload.EmployeeDepartment(1000, 100)
				if err != nil {
					t.Fatal(err)
				}
				for d := 100; d < departments; d++ {
					store.MustInsert("Department", value.Row{value.NewInt(int64(d)), value.NewString(fmt.Sprintf("Dept-%03d", d))})
				}
				_, eager := example1Plans(t, store)
				opts := exec.Options{Vectorize: vectorize, Parallelism: 1}
				run := func() {
					res, err := exec.Run(eager, store, &opts)
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Rows) != 100 {
						t.Fatalf("%d rows, want 100", len(res.Rows))
					}
				}
				run() // the join index and the columnar batches are made here
				allocs = testing.AllocsPerRun(20, run)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < 20; i++ {
					run()
				}
				runtime.ReadMemStats(&after)
				return allocs, float64(after.TotalAlloc-before.TotalAlloc) / 20
			}
			smallAllocs, smallBytes := perRun(100)
			largeAllocs, largeBytes := perRun(1000)
			t.Logf("per run: %.0f allocations, %.0f B at Department 100; %.0f, %.0f B at 1 000", smallAllocs, smallBytes, largeAllocs, largeBytes)
			if largeAllocs > smallAllocs+slackAllocs || largeBytes > smallBytes+slackBytes {
				t.Errorf("a run allocates %.0f times, %.0f B at Department 1 000 against %.0f, %.0f B at 100: want no more than %d and %d B over",
					largeAllocs, largeBytes, smallAllocs, smallBytes, slackAllocs, slackBytes)
			}
		})
	}
}
