package exec

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// countStar is COUNT(*) over in: the scalar group.
func countStar(in algebra.Node) *algebra.GroupBy {
	return &algebra.GroupBy{Input: in, Aggs: []algebra.AggItem{{
		E: &expr.Aggregate{Func: expr.AggCountStar}, As: expr.ColumnID{Name: "n"},
	}}}
}

// TestAdmittedSpillJoinStreams: on a spill-capable run a hash join whose build
// the budget admits is the probe stage it is on any other run, so its joined
// rows flow into the breaker above and are never held. TopK (ORDER BY l.v
// LIMIT 10) and COUNT(*) over probeJoinPlan allocate as often over 160 000
// probe rows as over 10 000, at one worker and at four, give or take the race
// runtime's own; a join that kept its output, or a scalar group that
// collected its input, would pay for every row. Nothing spills.
func TestAdmittedSpillJoinStreams(t *testing.T) {
	const keys, small, large, slack = 100, 10_000, 160_000, 24
	topK := func(n int) algebra.Node {
		return &algebra.Limit{N: 10, Input: &algebra.Sort{
			Input: probeJoinPlan(n, keys), Keys: []algebra.SortItem{{Col: expr.ColumnID{Table: "l", Name: "v"}}},
		}}
	}
	count := func(n int) algebra.Node { return countStar(probeJoinPlan(n, keys)) }
	mgr := storage.NewSpillManager(t.TempDir())
	defer mgr.Cleanup()
	for _, workers := range []int{1, 4} {
		opts := func() *Options { return &Options{Parallelism: workers, MemoryBudget: 1 << 30, Spill: mgr} }
		for _, tc := range []struct {
			name string
			plan func(n int) algebra.Node
			rows int
		}{
			{"TopK", topK, 10},
			{"COUNT(*)", count, 1},
		} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				got := runAllocs(t, tc.plan(large), opts, tc.rows) - runAllocs(t, tc.plan(small), opts, tc.rows)
				t.Logf("%d more probe rows allocate %.0f times more", large-small, got)
				if got > slack {
					t.Errorf("%d more probe rows allocate %.0f times more, want at most %d (none per row)", large-small, got, slack)
				}
				if n := mgr.Created(); n != 0 {
					t.Fatalf("the admitted run made %d spill files", n)
				}
			})
		}
	}
}

// joinsOf lists the Join nodes of the plan under n.
func joinsOf(n algebra.Node) []*algebra.Join {
	var joins []*algebra.Join
	if j, ok := n.(*algebra.Join); ok {
		joins = append(joins, j)
	}
	for _, child := range n.Children() {
		joins = append(joins, joinsOf(child)...)
	}
	return joins
}

// TestRefusedSpillJoinCuts: a build the budget refuses cuts the pipeline at
// the join stage. The source and the stages below — a filter, in either
// source form — run as one in-order chunk into the grace path, and its joined
// rows are the source of the stages above: a projection into a collecting
// root, a group, the scalar group, a sort, and a second join that is cut in
// turn. At one, two and four workers every run returns the reference
// evaluator's rows in its order, every join went grace, and no spill file is
// left behind.
func TestRefusedSpillJoinCuts(t *testing.T) {
	col := func(table, name string) expr.ColumnID { return expr.ColumnID{Table: table, Name: name} }
	join := func() *algebra.Join {
		return &algebra.Join{
			L: &algebra.Select{
				Input: keyedValuesPlan("l", 2*MorselSize+300, 40),
				Cond:  expr.NewBinary(expr.OpGe, expr.Column("l", "v"), expr.IntLit(200)),
			},
			R:    keyedValuesPlan("r", 60, 30),
			Cond: expr.Eq(expr.Column("l", "k"), expr.Column("r", "k")),
		}
	}
	plans := []struct {
		name string
		plan algebra.Node
	}{
		{"projection", &algebra.Project{Input: join(), Items: []algebra.ProjItem{
			{E: expr.Column("r", "v"), As: col("", "rv")},
			{E: expr.NewBinary(expr.OpAdd, expr.Column("l", "v"), expr.IntLit(1)), As: col("", "lv1")},
		}}},
		{"group", &algebra.GroupBy{Input: join(), GroupCols: []expr.ColumnID{col("l", "k")}, Aggs: []algebra.AggItem{{
			E: &expr.Aggregate{Func: expr.AggSum, Arg: expr.Column("r", "v")}, As: col("", "s"),
		}}}},
		{"COUNT(*)", countStar(join())},
		{"sort", &algebra.Sort{Input: join(), Keys: []algebra.SortItem{{Col: col("r", "v"), Desc: true}, {Col: col("l", "v")}}}},
		{"two joins", &algebra.Join{
			L: join(), R: keyedValuesPlan("u", 20, 20),
			Cond: expr.Eq(expr.Column("l", "k"), expr.Column("u", "k")),
		}},
	}
	for _, tc := range plans {
		want, err := workload.RefEval(tc.plan, nil, nil)
		must(t, err)
		for _, workers := range []int{1, 2, 4} {
			for _, vectorize := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/workers=%d/vectorize=%v", tc.name, workers, vectorize), func(t *testing.T) {
					mgr := storage.NewSpillManager(t.TempDir())
					defer mgr.Cleanup()
					metrics := obs.NewCollector()
					res, err := Run(tc.plan, nil, &Options{
						Join: JoinHash, Parallelism: workers, Vectorize: vectorize,
						MemoryBudget: 512, Spill: mgr, Metrics: metrics,
					})
					must(t, err)
					if len(res.Rows) != len(want) || len(want) == 0 {
						t.Fatalf("%d rows, want %d (and some)", len(res.Rows), len(want))
					}
					for i := range want {
						if g, w := value.GroupKeyAll(res.Rows[i]), value.GroupKeyAll(want[i]); g != w {
							t.Fatalf("row %d is %v, want %v", i, res.Rows[i], want[i])
						}
					}
					for _, j := range joinsOf(tc.plan) {
						if metrics.Lookup(j).SpillParts.Load() == 0 {
							t.Fatalf("%s did not go grace: the budget does not refuse its build", j.Describe())
						}
					}
					if n := mgr.Live(); n != 0 {
						t.Fatalf("%d spill files outlived the run", n)
					}
				})
			}
		}
	}
}
