package plancheck_test

// Distributed rule tests, built against the real dist plan nodes so the
// ExchangeNode/ShardSource interface contracts stay honest. They are an
// external test package because dist imports plancheck.

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/dist"
	"repro/internal/expr"
	"repro/internal/plancheck"
	"repro/internal/value"
)

func col(table, name string, k value.Kind) algebra.ColDesc {
	return algebra.ColDesc{ID: expr.ColumnID{Table: table, Name: name}, Type: k}
}

func empLeaf() *dist.Leaf {
	return &dist.Leaf{Table: "Employee", Alias: "E", Cols: algebra.Schema{
		col("E", "EmpID", value.KindInt),
		col("E", "DeptID", value.KindInt),
	}}
}

func aggItem(f expr.AggFunc, arg expr.Expr, as string) algebra.AggItem {
	return algebra.AggItem{
		E:  &expr.Aggregate{Func: f, Arg: arg},
		As: expr.ColumnID{Name: as},
	}
}

// eagerSplitPlan is the legal partial/final shape: per-node partial
// COUNT, gathered, merged by SUM at the coordinator.
func eagerSplitPlan(merge expr.AggFunc, finalGroup []expr.ColumnID) algebra.Node {
	partial := &algebra.GroupBy{
		Input:     empLeaf(),
		GroupCols: []expr.ColumnID{{Table: "E", Name: "DeptID"}},
		Aggs:      []algebra.AggItem{aggItem(expr.AggCount, expr.Column("E", "EmpID"), "__part0")},
	}
	gather := &dist.Exchange{Kind: dist.Gather, Input: partial}
	return &algebra.GroupBy{
		Input:     gather,
		GroupCols: finalGroup,
		Aggs:      []algebra.AggItem{aggItem(merge, expr.Column("", "__part0"), "$agg0")},
	}
}

func deptCols() []expr.ColumnID { return []expr.ColumnID{{Table: "E", Name: "DeptID"}} }

func rulesOf(vs []plancheck.Violation) []string {
	var out []string
	for _, v := range vs {
		out = append(out, v.Rule)
	}
	return out
}

func hasRule(vs []plancheck.Violation, rule, msgPart string) bool {
	for _, v := range vs {
		if v.Rule == rule && strings.Contains(v.Msg, msgPart) {
			return true
		}
	}
	return false
}

func TestDistLegalEagerSplitPasses(t *testing.T) {
	if vs := plancheck.Check(eagerSplitPlan(expr.AggSum, deptCols()), nil); len(vs) != 0 {
		t.Fatalf("legal partial/final split reported violations: %v", vs)
	}
}

func TestDistPlacementRequiresGather(t *testing.T) {
	// A shard source reaching the root without a gather: the output would
	// be one node's fragment, not the query result.
	plan := &algebra.Select{
		Input: empLeaf(),
		Cond:  expr.Eq(expr.Column("E", "DeptID"), expr.IntLit(1)),
	}
	vs := plancheck.Check(plan, nil)
	if !hasRule(vs, "dist-placement", "without passing through a gather") {
		t.Fatalf("ungathered shard output not reported; got %v", rulesOf(vs))
	}
	// Gathering it fixes the plan.
	fixed := &dist.Exchange{Kind: dist.Gather, Input: plan}
	if vs := plancheck.Check(fixed, nil); len(vs) != 0 {
		t.Fatalf("gathered plan still reports violations: %v", vs)
	}
}

func TestDistShuffleKeysMustMatchGrouping(t *testing.T) {
	build := func(keys []int) algebra.Node {
		sh := &dist.Exchange{Kind: dist.Shuffle, Keys: keys, Input: empLeaf()}
		grouped := &algebra.GroupBy{
			Input:     sh,
			GroupCols: deptCols(), // position 1 of the leaf schema
			Aggs:      []algebra.AggItem{aggItem(expr.AggCountStar, nil, "$agg0")},
		}
		return &dist.Exchange{Kind: dist.Gather, Input: grouped}
	}
	if vs := plancheck.Check(build([]int{1}), nil); len(vs) != 0 {
		t.Fatalf("consistent shuffle reported violations: %v", vs)
	}
	vs := plancheck.Check(build([]int{0}), nil)
	if !hasRule(vs, "dist-shuffle-keys", "one group could land on two nodes") {
		t.Fatalf("shuffle on the wrong column not reported; got %v", rulesOf(vs))
	}
	vs = plancheck.Check(build([]int{0, 1}), nil)
	if !hasRule(vs, "dist-shuffle-keys", "partitioning is inconsistent") {
		t.Fatalf("key-count mismatch not reported; got %v", rulesOf(vs))
	}
	vs = plancheck.Check(build([]int{7}), nil)
	if !hasRule(vs, "dist-shuffle-keys", "outside the") {
		t.Fatalf("out-of-range shuffle key not reported; got %v", rulesOf(vs))
	}
}

func TestDistAggSplitLegality(t *testing.T) {
	// Merging partial COUNTs with MAX undercounts every multi-node group.
	vs := plancheck.Check(eagerSplitPlan(expr.AggMax, deptCols()), nil)
	if !hasRule(vs, "dist-agg-split", "requires merge SUM") {
		t.Fatalf("illegal merge function not reported; got %v", rulesOf(vs))
	}
	// A final grouping on different columns than the partial changes the
	// grouping semantics.
	vs = plancheck.Check(eagerSplitPlan(expr.AggSum, nil), nil)
	if !hasRule(vs, "dist-agg-split", "changes grouping semantics") {
		t.Fatalf("partial/final group-column mismatch not reported; got %v", rulesOf(vs))
	}
}

func TestDistDecomposedPlansPass(t *testing.T) {
	// Every shape the distributed compiler emits for decomposable
	// aggregates must satisfy the split rules it is checked against.
	group := &algebra.GroupBy{
		Input:     algebra.NewScan("Employee", "E", empLeaf().Cols),
		GroupCols: deptCols(),
		Aggs: []algebra.AggItem{
			aggItem(expr.AggCount, expr.Column("E", "EmpID"), "$agg0"),
			aggItem(expr.AggAvg, expr.Column("E", "EmpID"), "$agg1"),
			aggItem(expr.AggMin, expr.Column("E", "EmpID"), "$agg2"),
		},
	}
	for _, nodes := range []int{2, 8} {
		dp, err := dist.Compile(group, dist.Config{Nodes: nodes, Strategy: dist.StrategyEager})
		if err != nil {
			t.Fatal(err)
		}
		if vs := plancheck.Check(dp.Root, nil); len(vs) != 0 {
			t.Fatalf("nodes=%d: compiler-emitted eager split reports violations: %v", nodes, vs)
		}
		if dp.EagerGroupBys() != 1 {
			t.Fatalf("nodes=%d: expected one eager group-by, got %d", nodes, dp.EagerGroupBys())
		}
	}
}
