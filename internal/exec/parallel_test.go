package exec_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/workload"
)

// planPair optimizes a query and returns both plans (alternative may be
// nil when the transformation is invalid).
func planPair(t *testing.T, store *storage.Store, query string) (standard, alternative algebra.Node) {
	t.Helper()
	q, err := sql.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	report, err := core.NewOptimizer(store).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	return report.Standard, report.Alternative
}

// TestParallelDeterminism runs the same parallel plan 20 times and demands
// byte-identical output every time — not just as a multiset: parallel
// operators reproduce the serial row order exactly, so no canonicalizing
// sort is applied before comparing. The query mixes SUM, AVG and COUNT so
// partial-aggregate merging is on the hot path.
func TestParallelDeterminism(t *testing.T) {
	store, err := workload.EmployeeDepartment(2000, 37)
	if err != nil {
		t.Fatal(err)
	}
	query := `SELECT D.DeptID, D.Name, COUNT(E.EmpID), SUM(E.EmpID), AVG(E.EmpID)
		FROM Employee E, Department D WHERE E.DeptID = D.DeptID
		GROUP BY D.DeptID, D.Name`
	standard, alternative := planPair(t, store, query)
	if alternative == nil {
		t.Fatal("transformation unavailable on the Example 1 shape")
	}
	for _, pl := range []struct {
		label string
		plan  algebra.Node
	}{{"standard", standard}, {"transformed", alternative}} {
		var first string
		for run := 0; run < 20; run++ {
			res, err := exec.Run(pl.plan, store, &exec.Options{Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			got := strings.Join(rowStrings(res.Rows), "\n")
			if run == 0 {
				first = got
				continue
			}
			if got != first {
				t.Fatalf("%s plan: run %d produced different output than run 0", pl.label, run)
			}
		}
	}
}

// TestConcurrentParallelRuns drives the same plan from many goroutines at
// once, each itself running with internal parallelism and its own Stats
// map. Under -race this is the executor's thread-safety smoke test: worker
// pools, partitioned joins, partial-aggregate merges and the per-node
// row-count recording must all be free of data races.
func TestConcurrentParallelRuns(t *testing.T) {
	store, err := workload.EmployeeDepartment(1500, 25)
	if err != nil {
		t.Fatal(err)
	}
	standard, alternative := planPair(t, store, workload.Example1Query)
	if alternative == nil {
		t.Fatal("transformation unavailable")
	}
	ref, err := exec.Run(standard, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(rowStrings(ref.Rows), "\n")

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		plan := standard
		if g%2 == 1 {
			plan = alternative
		}
		wg.Add(1)
		go func(plan algebra.Node, sortNeeded bool) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := exec.Run(plan, store, &exec.Options{Parallelism: 4, Metrics: obs.NewCollector()})
				if err != nil {
					errs <- err
					return
				}
				got := rowStrings(res.Rows)
				if sortNeeded {
					sortStrings(got)
				}
				if strings.Join(got, "\n") != want {
					errs <- errMismatch
					return
				}
			}
		}(plan, plan == alternative)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type mismatchError struct{}

func (mismatchError) Error() string { return "concurrent run produced wrong rows" }

var errMismatch = mismatchError{}

// TestFigure1CountsParallel locks down race-free row-count recording at
// the paper's Figure 1 scale: with 10000 employees and 100 departments the
// standard plan must record join 10000 × 100 → 10000 and group
// 10000 → 100, and the transformed plan group 10000 → 100 and join
// 100 × 100 → 100 — exactly the annotations on the paper's plan diagrams,
// with every operator running at parallelism 4.
func TestFigure1CountsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 1 scale")
	}
	store, err := workload.EmployeeDepartment(10000, 100)
	if err != nil {
		t.Fatal(err)
	}
	standard, alternative := planPair(t, store, workload.Example1Query)
	if alternative == nil {
		t.Fatal("transformation unavailable")
	}

	type nodeCounts struct {
		joinL, joinR, joinOut int64
		groupIn, groupOut     int64
	}
	measure := func(plan algebra.Node) nodeCounts {
		col := obs.NewCollector()
		if _, err := exec.Run(plan, store, &exec.Options{Parallelism: 4, Metrics: col}); err != nil {
			t.Fatal(err)
		}
		rows := func(n algebra.Node) int64 { return col.Lookup(n).RowsOut.Load() }
		var c nodeCounts
		algebra.Walk(plan, func(n algebra.Node) {
			switch node := n.(type) {
			case *algebra.Join:
				c.joinL = rows(node.L)
				c.joinR = rows(node.R)
				c.joinOut = rows(node)
			case *algebra.GroupBy:
				c.groupIn = rows(node.Input)
				c.groupOut = rows(node)
			}
		})
		return c
	}

	std := measure(standard)
	if std.joinL+std.joinR != 10000+100 || std.joinOut != 10000 {
		t.Errorf("standard join: %d x %d -> %d, want 10000 x 100 -> 10000",
			std.joinL, std.joinR, std.joinOut)
	}
	if std.groupIn != 10000 || std.groupOut != 100 {
		t.Errorf("standard group: %d -> %d, want 10000 -> 100", std.groupIn, std.groupOut)
	}

	alt := measure(alternative)
	if alt.groupIn != 10000 || alt.groupOut != 100 {
		t.Errorf("transformed group: %d -> %d, want 10000 -> 100", alt.groupIn, alt.groupOut)
	}
	if alt.joinL+alt.joinR != 100+100 || alt.joinOut != 100 {
		t.Errorf("transformed join: %d x %d -> %d, want 100 x 100 -> 100",
			alt.joinL, alt.joinR, alt.joinOut)
	}
}
