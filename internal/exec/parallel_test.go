package exec_test

// The randomized serial-vs-parallel, reference, chaos and disk-chaos
// differentials are cells of the oracle matrix
// (internal/plancheck/modelcheck: local, reference, chaos, spill). What stays
// here are targeted assertions over the matrix's corpus and fingerprint.

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plancheck/modelcheck"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// planPair optimizes a query and returns both plans (alternative may be
// nil when the transformation is invalid).
func planPair(t *testing.T, store *storage.Store, query string) (standard, alternative algebra.Node) {
	t.Helper()
	plans, err := modelcheck.Plans(store, query)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 1 {
		return plans[0], nil
	}
	return plans[0], plans[1]
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
		var first []string
		for run := 0; run < 20; run++ {
			res, err := exec.Run(pl.plan, store, &exec.Options{Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			got := workload.Fingerprint(res.Rows)
			if run == 0 {
				first = got
				continue
			}
			if !slices.Equal(got, first) {
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

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		// The standard plan's runs must return its serial rows in order, the
		// transformed plan's the same multiset.
		plan, fingerprint := standard, workload.Fingerprint
		if g%2 == 1 {
			plan, fingerprint = alternative, workload.Multiset
		}
		want := fingerprint(ref.Rows)
		wg.Add(1)
		go func(plan algebra.Node, fingerprint func([]value.Row) []string) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := exec.Run(plan, store, &exec.Options{Parallelism: 4, Metrics: obs.NewCollector()})
				if err != nil {
					errs <- err
					return
				}
				if !slices.Equal(fingerprint(res.Rows), want) {
					errs <- errMismatch
					return
				}
			}
		}(plan, fingerprint)
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

// TestEagerPlanShrinksJoinInput asserts Section 7's core claim on measured
// (not estimated) cardinalities: when each group spans many fact rows,
// performing the group-by before the join strictly reduces the rows entering
// join operators. With 5000 employees in 25 departments, the standard plan
// joins 5000+25 input rows while the eager plan joins only 25+25.
func TestEagerPlanShrinksJoinInput(t *testing.T) {
	store, err := workload.EmployeeDepartment(5000, 25)
	if err != nil {
		t.Fatal(err)
	}
	standard, alternative := planPair(t, store, workload.Example1Query)
	if alternative == nil {
		t.Fatal("Example 1 query did not produce a transformed plan")
	}
	// joinInput sums RowsIn over the plan's join and product operators.
	joinInput := func(plan algebra.Node, parallelism int) int64 {
		col := obs.NewCollector()
		res, err := exec.Run(plan, store, &exec.Options{Parallelism: parallelism, Metrics: col})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Fatal("plan produced no rows")
		}
		var total int64
		algebra.Walk(plan, func(n algebra.Node) {
			switch n.(type) {
			case *algebra.Join, *algebra.Product:
				total += col.Lookup(n).RowsIn.Load()
			}
		})
		return total
	}
	for _, parallelism := range []int{0, 4} {
		lazy := joinInput(standard, parallelism)
		eager := joinInput(alternative, parallelism)
		if eager >= lazy {
			t.Errorf("parallelism=%d: eager plan fed %d rows into joins, lazy fed %d — eager must be strictly smaller",
				parallelism, eager, lazy)
		}
		// The exact counts are deterministic for this workload: the lazy
		// plan joins every employee row, the eager plan one row per group.
		if lazy < 5000 {
			t.Errorf("parallelism=%d: lazy join input %d, want >= 5000 (all employee rows)", parallelism, lazy)
		}
		if eager > 100 {
			t.Errorf("parallelism=%d: eager join input %d, want <= 100 (one row per department-side group)", parallelism, eager)
		}
	}
}
