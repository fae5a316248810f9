package exec

import (
	"fmt"
	"math"
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
// LIMIT 10), COUNT(*), a GROUP BY and a DISTINCT over probeJoinPlan allocate
// as often over 160 000 probe rows as over 10 000, at one worker and at four,
// give or take the race runtime's own; a join that kept its output, or a
// grouping that collected its input, would pay for every row. Nothing spills.
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
			{"GROUP BY", func(n int) algebra.Node { return sumOverJoin(n, keys) }, keys},
			{"DISTINCT", func(n int) algebra.Node { return distinctOf(probeJoinPlan(n, keys), "l", "k") }, keys},
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

// joinsOf lists the Join and Product nodes of the plan under n.
func joinsOf(n algebra.Node) []algebra.Node {
	var joins []algebra.Node
	switch n.(type) {
	case *algebra.Join, *algebra.Product:
		joins = append(joins, n)
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
// turn. A join without an equi-key — the theta spelling, and a Product — is
// the hash join over the empty key, refused and cut alike; its one partition
// cannot split, so it is built uncharged at graceMaxDepth. At one, two and
// four workers every run returns the reference evaluator's rows in its order,
// every join went grace, and no spill file is left behind.
func TestRefusedSpillJoinCuts(t *testing.T) {
	col := func(table, name string) expr.ColumnID { return expr.ColumnID{Table: table, Name: name} }
	store, l := keyedStore(t, "l", 2*MorselSize+300, 40)
	join := func() *algebra.Join {
		return &algebra.Join{
			L: &algebra.Select{
				Input: l,
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
		{"keyless join", thetaJoin(join())},
		{"product", &algebra.Product{L: join().L, R: keyedValuesPlan("u", 10, 10)}},
	}
	for _, tc := range plans {
		want, err := workload.RefEval(tc.plan, store, nil)
		must(t, err)
		for _, workers := range []int{1, 2, 4} {
			for _, vectorize := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/workers=%d/vectorize=%v", tc.name, workers, vectorize), func(t *testing.T) {
					mgr := storage.NewSpillManager(t.TempDir())
					defer mgr.Cleanup()
					metrics := obs.NewCollector()
					res, err := Run(tc.plan, store, &Options{
						Parallelism: workers, Vectorize: vectorize,
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

// TestGracePartitionsSplitOnRehash: each grace level reads its own field of
// the key's hash, so the keys that share a partition at one level spread over
// the partitions of the next. Over the INTEGER keys 0–1023 every depth-0
// partition's keys fall into at least 6 of the 8 depth-1 partitions; a salted
// hash whose partition is its low bits sends them all to one or two.
func TestGracePartitionsSplitOnRehash(t *testing.T) {
	var spread [graceParts]map[int]bool
	for p := range spread {
		spread[p] = map[int]bool{}
	}
	var key []byte
	for k := int64(0); k < 1024; k++ {
		key = appendKey(key[:0], value.Row{value.NewInt(k)}, []int{0})
		spread[gracePartition(key, 0)][gracePartition(key, 1)] = true
	}
	for p, parts := range spread {
		if len(parts) < 6 {
			t.Errorf("the keys of depth-0 partition %d fall into %d depth-1 partitions, want at least 6", p, len(parts))
		}
	}
}

// TestSpilledFloatsBitIdentical: a spilled grouping folds each group's rows
// in input order, as the in-memory run does, so SUM and AVG over floats whose
// sum depends on that order — 1e16, 1, −1e16, 1 in turn, interleaved across
// 400 groups — have the same bits as the unbudgeted run at one worker when the
// budget sends groups down to depth 1 and below, and when a budget smaller
// than one group sends every group down to graceMaxDepth, where it is grouped
// uncharged. Merging partial states would give 0 where the in-order sum is 1.
func TestSpilledFloatsBitIdentical(t *testing.T) {
	const groups = 400
	values := &algebra.Values{Cols: algebra.Schema{
		{ID: expr.ColumnID{Table: "t", Name: "k"}, Type: value.KindInt},
		{ID: expr.ColumnID{Table: "t", Name: "f"}, Type: value.KindFloat},
	}}
	for _, f := range []float64{1e16, 1, -1e16, 1} {
		for g := 0; g < groups; g++ {
			values.Rows = append(values.Rows, value.Row{value.NewInt(int64(g)), value.NewFloat(f + float64(g%3))})
		}
	}
	plan := &algebra.GroupBy{Input: values, GroupCols: []expr.ColumnID{{Table: "t", Name: "k"}}}
	for _, fn := range []expr.AggFunc{expr.AggSum, expr.AggAvg} {
		plan.Aggs = append(plan.Aggs, algebra.AggItem{
			E: &expr.Aggregate{Func: fn, Arg: expr.Column("t", "f")}, As: expr.ColumnID{Name: fn.String()},
		})
	}
	want, err := Run(plan, nil, &Options{Parallelism: 1})
	must(t, err)
	for _, budget := range []int64{1024, 1} {
		for _, workers := range []int{1, 4} {
			mgr := storage.NewSpillManager(t.TempDir())
			metrics := obs.NewCollector()
			got, err := Run(plan, nil, &Options{Parallelism: workers, MemoryBudget: budget, Spill: mgr, Metrics: metrics})
			must(t, err)
			where := fmt.Sprintf("budget=%d/workers=%d", budget, workers)
			if parts := metrics.Lookup(plan).SpillParts.Load(); parts <= graceParts || mgr.Live() != 0 {
				t.Fatalf("%s: %d partition files, %d left: want a level below depth 0, none left", where, parts, mgr.Live())
			}
			if len(got.Rows) != groups {
				t.Fatalf("%s: %d groups, want %d", where, len(got.Rows), groups)
			}
			for i, row := range got.Rows {
				if row[0].Int() != want.Rows[i][0].Int() {
					t.Fatalf("%s: group %d is %v, want %v", where, i, row, want.Rows[i])
				}
				for c := 1; c < len(row); c++ {
					if g, w := math.Float64bits(row[c].Float()), math.Float64bits(want.Rows[i][c].Float()); g != w {
						t.Fatalf("%s: group %v column %d is %v, want %v", where, row[0], c, row[c], want.Rows[i][c])
					}
				}
			}
		}
	}
}
