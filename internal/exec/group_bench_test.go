package exec_test

// Layer benchmarks for hash aggregation over join output, row engine,
// GroupHash, the join-then-group plan. BenchmarkHashGroupSerial is what one
// cluster fragment of the benchmark's dist_ship workload runs: 12 000 Fact
// rows joined to 1 000 dims, grouped to 1 000 groups (shape (a)) and to 6 500
// (the many-groups query), one worker. BenchmarkHashGroupParallel is the same
// at two workers — scan → probe → per-chunk partial tables, the olap_groups
// pipeline — and at four and eight, where a group of a later chunk may miss
// in up to seven earlier tables before its own owns it; both add a two-column
// key at about 0.8 groups per row (the groups_region shape). BenchmarkPipelineFilterProject is the pipeline that
// ends in a collection: scan → filter → project → result. BenchmarkTinyJoinGroup
// is a plan too small for any of that to matter — 100 × 10 rows, join → group
// → project, one worker, the size of a serve_mixed table — so what it times is
// what a run costs before its first row: compiling the plan and setting up its
// pipelines. (The group table with no plan around it is BenchmarkGroupTable,
// store_bench_test.go.) Run with -benchmem: B/op is rows the run held, allocs/op the
// per-group (per-result-row) state.

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

// benchSweep is the 12 000 × 1 000 instance with the given number of GroupID
// values.
func benchSweep(b *testing.B, groups int) *storage.Store {
	b.Helper()
	store, err := workload.Sweep(workload.SweepParams{
		FactRows: 12000, DimRows: 1000, Groups: groups, MatchFraction: 1, Seed: 17,
	})
	if err != nil {
		b.Fatal(err)
	}
	return store
}

// standardPlan is the optimizer's join-then-group plan of text.
func standardPlan(b *testing.B, store *storage.Store, text string) algebra.Node {
	b.Helper()
	stmt, err := sql.ParseQuery(text)
	if err != nil {
		b.Fatal(err)
	}
	report, err := core.NewOptimizer(store).Optimize(stmt)
	if err != nil {
		b.Fatal(err)
	}
	return report.Standard
}

func benchRun(b *testing.B, plan algebra.Node, store *storage.Store, opts exec.Options) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(plan, store, &opts); err != nil {
			b.Fatal(err)
		}
	}
}

func benchHashGroup(b *testing.B, parallelism int) {
	many := benchSweep(b, 6500)
	for _, q := range []struct {
		name, text string
		store      *storage.Store
	}{
		{"groups=1000", `SELECT D.DimID, D.Label, COUNT(F.FID), SUM(F.V) FROM Fact F, Dim D
			WHERE F.DimID = D.DimID GROUP BY D.DimID, D.Label`, many},
		{"groups=6500", `SELECT F.GroupID, COUNT(F.FID), SUM(F.V) FROM Fact F, Dim D
			WHERE F.DimID = D.DimID GROUP BY F.GroupID`, many},
		// 26 GroupIDs × 1 000 labels over 12 000 rows: some 9 600 occupied pairs.
		{"groups=0.8perRow", `SELECT F.GroupID, D.Label, COUNT(F.FID), SUM(F.V) FROM Fact F, Dim D
			WHERE F.DimID = D.DimID GROUP BY F.GroupID, D.Label`, benchSweep(b, 26)},
	} {
		plan := standardPlan(b, q.store, q.text)
		b.Run(q.name, func(b *testing.B) {
			benchRun(b, plan, q.store, exec.Options{Group: exec.GroupHash, Parallelism: parallelism})
		})
	}
}

func BenchmarkHashGroupSerial(b *testing.B) { benchHashGroup(b, 1) }

func BenchmarkHashGroupParallel(b *testing.B) {
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) { benchHashGroup(b, workers) })
	}
}

func BenchmarkPipelineFilterProject(b *testing.B) {
	store := benchSweep(b, 6500)
	plan := standardPlan(b, store, `SELECT F.FID, F.V FROM Fact F WHERE F.V < 50`)
	for _, parallelism := range []int{1, 2} {
		b.Run(fmt.Sprintf("par%d", parallelism), func(b *testing.B) {
			benchRun(b, plan, store, exec.Options{Parallelism: parallelism})
		})
	}
}

func BenchmarkTinyJoinGroup(b *testing.B) {
	store, err := workload.Sweep(workload.SweepParams{
		FactRows: 100, DimRows: 10, Groups: 10, MatchFraction: 1, Seed: 17,
	})
	if err != nil {
		b.Fatal(err)
	}
	plan := standardPlan(b, store, `SELECT D.DimID, D.Label, COUNT(F.FID), SUM(F.V) FROM Fact F, Dim D
		WHERE F.DimID = D.DimID GROUP BY D.DimID, D.Label`)
	benchRun(b, plan, store, exec.Options{Parallelism: 1})
}
