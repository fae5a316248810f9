package dist_test

// Layer benchmarks for the cluster runtime: a whole Cluster.Run of the two
// dist_ship query shapes, and Link.Ship alone. Run them at -cpu 1,2: one
// processor is the one-at-a-time site loop, two is sites at once.

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/value"
	"repro/internal/workload"
)

// BenchmarkClusterRun runs the benchmark's star (48 000 facts over 1 000
// dimensions, one GroupID per six facts) on four nodes: shape (a), the
// paper's Example 1, ships a thousand groups' partial aggregates per node;
// the GroupID shape ships eight times as many. Each iteration compiles the
// chosen plan for the cluster (microseconds) and runs it, as the engine
// does per query — a plan kept across iterations would also keep alive
// whatever a run left hanging off it.
func BenchmarkClusterRun(b *testing.B) {
	const nodes = 4
	store, err := workload.Sweep(workload.SweepParams{FactRows: 48000, DimRows: 1000, Groups: 8000, MatchFraction: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cl, err := dist.NewCluster(store, nodes, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range []struct{ name, query string }{
		{"a", `SELECT D.DimID, D.Label, COUNT(F.FID), SUM(F.V) FROM Fact F, Dim D WHERE F.DimID = D.DimID GROUP BY D.DimID, D.Label`},
		{"groups", `SELECT F.GroupID, COUNT(F.FID), SUM(F.V) FROM Fact F, Dim D WHERE F.DimID = D.DimID GROUP BY F.GroupID ORDER BY GroupID LIMIT 100`},
	} {
		q, err := sql.ParseQuery(shape.query)
		if err != nil {
			b.Fatal(err)
		}
		report, err := core.NewOptimizer(store).Optimize(q)
		if err != nil {
			b.Fatal(err)
		}
		ann := report.StandardCost.Ann
		if report.Transformed {
			ann = report.TransformedCost.Ann
		}
		rows := func(n algebra.Node) float64 {
			if a, ok := ann[n]; ok {
				return float64(a.Rows)
			}
			return -1
		}
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dp, err := dist.Compile(report.Chosen(), dist.Config{Nodes: nodes, Rows: rows})
				if err != nil {
					b.Fatal(err)
				}
				res, err := cl.Run(dp, &exec.Options{Group: exec.GroupHash})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}

// BenchmarkLinkShip ships what one node of the GroupID shape sends the
// coordinator — 26 360 partial-aggregate rows of three integers — over one
// link: the byte accounting of every row, nothing else.
func BenchmarkLinkShip(b *testing.B) {
	rows := make([]value.Row, 26360)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i%8000 + 1)), value.NewInt(int64(i % 7)), value.NewInt(int64(i % 391))}
	}
	store, err := workload.EmployeeDepartment(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := dist.NewCluster(store, 2, 0)
	if err != nil {
		b.Fatal(err)
	}
	link := cl.Link(1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, bytes, err := link.Ship(rows, nil); err != nil || bytes == 0 {
			b.Fatalf("shipped %d bytes: %v", bytes, err)
		}
	}
}
