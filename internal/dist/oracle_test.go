package dist_test

// The randomized local-vs-distributed differentials are cells of the oracle
// matrix (internal/plancheck/modelcheck: cluster, cluster-chaos, recovery,
// recovery-lease, failover). What stays here are targeted assertions over the
// matrix's corpus and fingerprint.

import (
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plancheck/modelcheck"
	"repro/internal/storage"
	"repro/internal/workload"
)

// exampleStore builds the Example 1 employee/department instance.
func exampleStore(t *testing.T, employees, departments int) *storage.Store {
	t.Helper()
	store, err := workload.EmployeeDepartment(employees, departments)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// plansFor optimizes a query and returns its candidate plans.
func plansFor(t *testing.T, store *storage.Store, query string) []algebra.Node {
	t.Helper()
	plans, err := modelcheck.Plans(store, query)
	if err != nil {
		t.Fatal(err)
	}
	return plans
}

// TestEagerNeverShipsMoreBytes reproduces the Section 7 argument on the
// paper's Example 1 workload (many employees per department): the eager
// distributed plan — pre-aggregate per node, ship one row per node-local
// group — must ship strictly fewer link bytes than the lazy plan, which
// ships every employee row to the coordinator.
func TestEagerNeverShipsMoreBytes(t *testing.T) {
	employees, departments := 10000, 100
	if testing.Short() {
		employees, departments = 1000, 20
	}
	store := exampleStore(t, employees, departments)
	plans := plansFor(t, store, workload.Example1Query)

	for _, nodes := range []int{2, 4, 8} {
		for pi, plan := range plans {
			bytesByStrategy := map[dist.Strategy]int64{}
			var results [][]string
			for _, strategy := range []dist.Strategy{dist.StrategyEager, dist.StrategyLazy} {
				cl, err := dist.NewCluster(store, nodes, 0)
				if err != nil {
					t.Fatal(err)
				}
				dp, err := dist.Compile(plan, dist.Config{Nodes: nodes, Strategy: strategy})
				if err != nil {
					t.Fatal(err)
				}
				col := obs.NewCollector()
				res, err := cl.Run(dp, &exec.Options{Metrics: col})
				if err != nil {
					t.Fatalf("nodes=%d plan %d strategy %v: %v", nodes, pi, strategy, err)
				}
				results = append(results, workload.Multiset(res.Rows))
				var shipped int64
				for _, x := range dp.Exchanges {
					if m := col.Lookup(x); m != nil {
						shipped += m.CommBytes.Load()
					}
				}
				if shipped != cl.TotalBytes() {
					t.Fatalf("nodes=%d strategy %v: metrics account %d bytes, links %d", nodes, strategy, shipped, cl.TotalBytes())
				}
				bytesByStrategy[strategy] = shipped
			}
			if !slices.Equal(results[0], results[1]) {
				t.Fatalf("nodes=%d plan %d: eager and lazy results differ", nodes, pi)
			}
			eager, lazy := bytesByStrategy[dist.StrategyEager], bytesByStrategy[dist.StrategyLazy]
			if eager >= lazy {
				t.Fatalf("nodes=%d plan %d: eager shipped %d bytes, lazy %d — eager must ship strictly fewer on the Example 1 workload",
					nodes, pi, eager, lazy)
			}
			t.Logf("nodes=%d plan %d: eager %d bytes, lazy %d bytes (%.1fx reduction)",
				nodes, pi, eager, lazy, float64(lazy)/float64(eager))
		}
	}
}
