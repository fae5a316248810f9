package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/workload"
)

// BenchmarkTestFD times the decision procedure itself — parse, bind,
// normalize and TestFD — the paper's argument for a fast sufficient test
// over full condition checking. example3 is the Section 6.3 printer query.
// or-conjuncts=n adds n disjunctive conjuncts to Example 1: each doubles the
// DNF term count and the pairwise term check is quadratic in it, so these
// measure the practical ceiling of TestFD's worst case.
func BenchmarkTestFD(b *testing.B) {
	printers, err := workload.Printers(workload.PrinterParams{
		Users: 100, Machines: 5, Printers: 10, AuthsPerUser: 3, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	employees, err := workload.EmployeeDepartment(100, 10)
	if err != nil {
		b.Fatal(err)
	}
	type fdCase struct {
		name  string
		store *storage.Store
		query string
	}
	cases := []fdCase{{"example3", printers, workload.Example3Query}}
	for _, ors := range []int{1, 3, 5} {
		var conjuncts string
		for i := 0; i < ors; i++ {
			conjuncts += fmt.Sprintf(" AND (E.DeptID = %d OR E.DeptID = E.DeptID)", i)
		}
		query := strings.Replace(workload.Example1Query, "GROUP BY", conjuncts+" GROUP BY", 1)
		cases = append(cases, fdCase{fmt.Sprintf("or-conjuncts=%d", ors), employees, query})
	}
	for _, c := range cases {
		planner := NewOptimizer(c.store).Planner()
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q, err := sql.ParseQuery(c.query)
				if err != nil {
					b.Fatal(err)
				}
				bq, err := planner.Bind(q)
				if err != nil {
					b.Fatal(err)
				}
				shape, err := Normalize(bq, nil)
				if err != nil {
					b.Fatal(err)
				}
				if dec := TestFD(shape); !dec.OK {
					b.Fatal(dec.Reason)
				}
			}
		})
	}
}

// BenchmarkPredicateExpansion runs Example 3's transformed plan with and
// without the Section 6.3 predicate expansion: without it the eager
// aggregation groups the printer usage of every machine, with it only
// 'dragon'. Both return one row per dragon user.
func BenchmarkPredicateExpansion(b *testing.B) {
	store, err := workload.Printers(workload.PrinterDefaults)
	if err != nil {
		b.Fatal(err)
	}
	q, err := sql.ParseQuery(workload.Example3Query)
	if err != nil {
		b.Fatal(err)
	}
	rows := workload.PrinterDefaults.Users / workload.PrinterDefaults.Machines
	for _, disabled := range []bool{false, true} {
		opt := NewOptimizer(store)
		opt.DisablePredicateExpansion = disabled
		r, err := opt.Optimize(q)
		if err != nil {
			b.Fatal(err)
		}
		if r.Alternative == nil {
			b.Fatalf("Example 3: transformation not available: %s", r.WhyNot)
		}
		b.Run(fmt.Sprintf("expansion=%v", !disabled), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := exec.Run(r.Alternative, store, nil)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != rows {
					b.Fatalf("%d rows, want %d", len(res.Rows), rows)
				}
			}
		})
	}
}
