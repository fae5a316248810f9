package exec_test

// Benchmarks on the paper's Figure 1 workload: Example 1 over Employee
// 10000 x Department 100. The plan axis is the paper's two plans: lazy is
// Plan 1 (join 10000 x 100, then group 10000 rows into 100) and eager is
// Plan 2 (group 10000 rows into 100, then join 100 x 100). par1 and par2 fix
// Options.Parallelism, whatever -cpu says: no end-to-end workload runs
// vectorized above one worker, so this is where that path is timed. They are
// the layer-level reading of the row-vs-vectorized ratio (benchmark/'s
// olap_eager is the end-to-end one) and give `go test -bench . -cpuprofile`
// a stable harness for hunting regressions in either source form.
//
// BenchmarkFigure1Row also carries the executor ablations. Under lazy/par1
// it runs the sort grouping (group=sort) and the keyless join (join=keyless:
// the lazy plan's join spelled without an equi-key, workload.Theta, so every
// probe row walks the whole build side) beside the default hash grouping and
// the equi-keyed join: the transformation's win is not an artifact of one
// algorithm. Under scale=100k
// it runs the eager plan at Employee 100000 x Department 1000 with hash and
// with sort grouping over the hash join: the sort leaves the groups ordered,
// but paying an N-row sort to get there loses to hashing the N rows — which
// is why the executor streams only over an order it is handed and never
// sorts rows to create one (DESIGN.md §4.4). Every run must return one row per
// department.

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

// figure1 builds Example 1 over employees x departments and returns the
// store with its lazy (standard) and eager (transformed) plans.
func figure1(b *testing.B, employees, departments int) (store *storage.Store, lazy, eager algebra.Node) {
	b.Helper()
	store, err := workload.EmployeeDepartment(employees, departments)
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
	if report.Alternative == nil {
		b.Fatalf("Example 1: transformation not available: %s", report.WhyNot)
	}
	return store, report.Standard, report.Alternative
}

// benchPlan times plan under opts as the sub-benchmark name; every run must
// return rows rows.
func benchPlan(b *testing.B, name string, store *storage.Store, plan algebra.Node, opts exec.Options, rows int) {
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := exec.Run(plan, store, &opts)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != rows {
				b.Fatalf("%d rows, want %d", len(res.Rows), rows)
			}
		}
	})
}

// benchFigure1 runs both plans at one and two workers in one source form
// and returns the store and the lazy plan for further sub-benchmarks.
func benchFigure1(b *testing.B, vectorize bool) (*storage.Store, algebra.Node) {
	store, lazy, eager := figure1(b, 10000, 100)
	for _, p := range []struct {
		name string
		plan algebra.Node
	}{{"lazy", lazy}, {"eager", eager}} {
		for _, par := range []int{1, 2} {
			benchPlan(b, fmt.Sprintf("%s/par%d", p.name, par), store, p.plan,
				exec.Options{Vectorize: vectorize, Parallelism: par}, 100)
		}
	}
	return store, lazy
}

func BenchmarkFigure1Row(b *testing.B) {
	store, lazy := benchFigure1(b, false)
	benchPlan(b, "lazy/par1/group=sort", store, lazy, exec.Options{Group: exec.GroupSort, Parallelism: 1}, 100)
	// A second Figure 1, its lazy plan's join respelled without an equi-key:
	// the same rows through the hash join over the empty key.
	store, theta, _ := figure1(b, 10000, 100)
	algebra.Walk(theta, func(n algebra.Node) {
		if j, ok := n.(*algebra.Join); ok {
			j.Cond = workload.Theta(j.Cond)
		}
	})
	benchPlan(b, "lazy/par1/join=keyless", store, theta, exec.Options{Parallelism: 1}, 100)

	store, _, eager := figure1(b, 100000, 1000)
	for _, g := range []exec.GroupStrategy{exec.GroupHash, exec.GroupSort} {
		benchPlan(b, fmt.Sprintf("scale=100k/eager/group=%s", g), store, eager,
			exec.Options{Group: g, Parallelism: 1}, 1000)
	}
}

func BenchmarkFigure1Vec(b *testing.B) { benchFigure1(b, true) }
