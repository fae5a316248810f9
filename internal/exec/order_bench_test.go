package exec_test

// Layer benchmarks for ORDER BY over grouping output: the benchmark's
// olap_eager shape (c) and olap_groups `groups` queries at its scale (48 000
// Fact rows, 1 000 dims, 8 000 GroupID values), under the compiler's own
// per-node choice (GroupAuto: hash the rows, order the groups) against forced
// sort-based grouping (GroupSort: stable-sort the rows), in the row and the
// columnar source form, the columnar one also at two workers. Run with
// -benchmem: allocs/op is how the row-path key probes are held to account.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/workload"
)

func BenchmarkOrderByOverGrouping(b *testing.B) {
	store, err := workload.Sweep(workload.SweepParams{
		FactRows: 48000, DimRows: 1000, Groups: 8000, MatchFraction: 1, Seed: 14,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []struct{ name, text string }{
		{"c", `SELECT D.DimID, D.Label, COUNT(F.FID), SUM(F.V) FROM Fact F, Dim D
			WHERE F.DimID = D.DimID GROUP BY D.DimID, D.Label ORDER BY DimID LIMIT 10`},
		{"groups", `SELECT F.GroupID, COUNT(F.FID), SUM(F.V) FROM Fact F, Dim D
			WHERE F.DimID = D.DimID GROUP BY F.GroupID ORDER BY GroupID LIMIT 100`},
	} {
		stmt, err := sql.ParseQuery(q.text)
		if err != nil {
			b.Fatal(err)
		}
		report, err := core.NewOptimizer(store).Optimize(stmt)
		if err != nil {
			b.Fatal(err)
		}
		plan := report.Chosen()
		for _, gs := range []exec.GroupStrategy{exec.GroupAuto, exec.GroupSort} {
			for _, engine := range []struct {
				name string
				opts exec.Options
			}{
				{"row", exec.Options{Group: gs}},
				{"vec", exec.Options{Group: gs, Vectorize: true}},
				{"vec/par2", exec.Options{Group: gs, Vectorize: true, Parallelism: 2}},
			} {
				opts := engine.opts
				b.Run(q.name+"/"+gs.String()+"/"+engine.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := exec.Run(plan, store, &opts); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
