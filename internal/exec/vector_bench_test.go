package exec_test

// Benchmarks for the row-vs-columnar source form comparison on the paper's
// Figure 1 workload (Employee 10000 x Department 100, standard plan:
// join first, group once at the top). They are the layer-level reading of
// the row-vs-vectorized ratio (benchmark/'s olap_eager is the end-to-end
// one) and give `go test -bench . -cpuprofile` a stable harness for hunting
// regressions in the columnar path. par1 and par2 fix Options.Parallelism,
// whatever -cpu says: no end-to-end workload runs vectorized above one worker,
// so this is where that path is timed.

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/workload"
)

func figure1Plan(b *testing.B) (algebra.Node, *storage.Store) {
	b.Helper()
	store, err := workload.EmployeeDepartment(10000, 100)
	if err != nil {
		b.Fatal(err)
	}
	q, err := sql.ParseQuery(workload.Example1Query)
	if err != nil {
		b.Fatal(err)
	}
	report, err := core.NewOptimizer(store).Optimize(q)
	if err != nil {
		b.Fatal(err)
	}
	return report.Standard, store
}

func benchFigure1(b *testing.B, vectorize bool) {
	plan, store := figure1Plan(b)
	for _, par := range []int{1, 2} {
		opts := &exec.Options{Vectorize: vectorize, Parallelism: par}
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Run(plan, store, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFigure1Row(b *testing.B) { benchFigure1(b, false) }

func BenchmarkFigure1Vec(b *testing.B) { benchFigure1(b, true) }
