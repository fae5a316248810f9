package exec_test

// Layer benchmark for serial hash aggregation over join output — what one
// cluster fragment of the benchmark's dist_ship workload runs: 12 000 Fact
// rows joined to 1 000 dims, grouped to 1 000 groups (shape (a)) and to
// 6 500 (the many-groups query), row engine, one worker, GroupHash, the
// join-then-group plan. Run with -benchmem: B/op is rows the run held,
// allocs/op the per-group state.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/workload"
)

func BenchmarkHashGroupSerial(b *testing.B) {
	store, err := workload.Sweep(workload.SweepParams{
		FactRows: 12000, DimRows: 1000, Groups: 6500, MatchFraction: 1, Seed: 17,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []struct{ name, text string }{
		{"groups=1000", `SELECT D.DimID, D.Label, COUNT(F.FID), SUM(F.V) FROM Fact F, Dim D
			WHERE F.DimID = D.DimID GROUP BY D.DimID, D.Label`},
		{"groups=6500", `SELECT F.GroupID, COUNT(F.FID), SUM(F.V) FROM Fact F, Dim D
			WHERE F.DimID = D.DimID GROUP BY F.GroupID`},
	} {
		stmt, err := sql.ParseQuery(q.text)
		if err != nil {
			b.Fatal(err)
		}
		report, err := core.NewOptimizer(store).Optimize(stmt)
		if err != nil {
			b.Fatal(err)
		}
		opts := exec.Options{Group: exec.GroupHash}
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Run(report.Standard, store, &opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
