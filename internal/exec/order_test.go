package exec

import (
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// lowered is a plan bound for one run: its pipeline, and the order its shape
// proves of the pipeline's rows.
type lowered struct {
	pipe  *pipeOp
	order []int
}

func lower(c *compiler, plan algebra.Node) (lowered, error) {
	s, err := shaper{group: c.opts.Group}.of(plan)
	if err != nil {
		return lowered{}, err
	}
	p, err := c.compile(s.root)
	return lowered{pipe: p, order: s.root.order}, err
}

// TestOrderPropagation verifies the compiler's interesting-order tracking:
// sort establishes an order, filter and projection preserve it, hash join
// keeps the probe side's order, and grouping exploits it.
func TestOrderPropagation(t *testing.T) {
	s := fixture(t)
	c := &compiler{store: s, opts: &Options{}}

	scanE := scanOf(t, s, "Employee", "E")
	sortE := &algebra.Sort{
		Input: scanE,
		Keys:  []algebra.SortItem{{Col: expr.ColumnID{Table: "E", Name: "DeptID"}}},
	}

	// Sort yields an order on its key column.
	out, err := lower(c, sortE)
	must(t, err)
	deptIdx, _ := scanE.Schema().IndexOf(expr.ColumnID{Table: "E", Name: "DeptID"})
	if len(out.order) != 1 || out.order[0] != deptIdx {
		t.Fatalf("sort order = %v, want [%d]", out.order, deptIdx)
	}

	// A redundant sort on the same key is elided: compiling Sort(Sort)
	// returns the inner result unchanged.
	doubleSort := &algebra.Sort{Input: sortE, Keys: sortE.Keys}
	out2, err := lower(c, doubleSort)
	must(t, err)
	if outer, isSort := out2.pipe.src.(*sortOp); isSort {
		// The outer source must not be a second sortOp over a sortOp.
		if _, innerSort := outer.input.src.(*sortOp); innerSort {
			t.Error("redundant sort not elided")
		}
	}

	// Filter preserves order.
	filtered := &algebra.Select{
		Input: sortE,
		Cond:  expr.NewBinary(expr.OpGt, expr.Column("E", "Salary"), expr.IntLit(0)),
	}
	out3, err := lower(c, filtered)
	must(t, err)
	if len(out3.order) != 1 || out3.order[0] != deptIdx {
		t.Errorf("filter lost order: %v", out3.order)
	}

	// Projection remaps order through bare column items.
	proj := &algebra.Project{
		Input: sortE,
		Items: []algebra.ProjItem{
			{E: expr.Column("E", "DeptID"), As: expr.ColumnID{Name: "d"}},
			{E: expr.Column("E", "EmpID"), As: expr.ColumnID{Name: "id"}},
		},
	}
	out4, err := lower(c, proj)
	must(t, err)
	if len(out4.order) != 1 || out4.order[0] != 0 {
		t.Errorf("projection order = %v, want [0]", out4.order)
	}

	// Projection computing an expression over the order column loses it.
	projExpr := &algebra.Project{
		Input: sortE,
		Items: []algebra.ProjItem{
			{E: expr.NewBinary(expr.OpAdd, expr.Column("E", "DeptID"), expr.IntLit(1)), As: expr.ColumnID{Name: "d1"}},
		},
	}
	out5, err := lower(c, projExpr)
	must(t, err)
	if len(out5.order) != 0 {
		t.Errorf("expression projection kept order: %v", out5.order)
	}
}

// TestGroupAutoExploitsSortedInput: with GroupAuto, grouping a stream
// already sorted on the grouping column runs as a no-sort streaming pass,
// and results still match hash grouping.
func TestGroupAutoExploitsSortedInput(t *testing.T) {
	s := fixture(t)
	scanE := scanOf(t, s, "Employee", "E")
	sorted := &algebra.Sort{
		Input: scanE,
		Keys:  []algebra.SortItem{{Col: expr.ColumnID{Table: "E", Name: "DeptID"}}},
	}
	group := &algebra.GroupBy{
		Input:     sorted,
		GroupCols: []expr.ColumnID{{Table: "E", Name: "DeptID"}},
		Aggs: []algebra.AggItem{
			{E: &expr.Aggregate{Func: expr.AggSum, Arg: expr.Column("E", "Salary")}, As: expr.ColumnID{Name: "s"}},
		},
	}

	c := &compiler{store: s, opts: &Options{Group: GroupAuto}}
	out, err := lower(c, group)
	must(t, err)
	sg, ok := out.pipe.src.(*sortGroupOp)
	if !ok {
		t.Fatalf("GroupAuto over sorted input compiled to %T, want sortGroupOp", out.pipe.src)
	}
	// The pass reads the ORDER BY's rows: no sort of its own below it.
	if so, ok := sg.input.src.(*sortOp); !ok || so.where != sorted.Describe() {
		t.Errorf("the streaming pass over sorted input reads %T, want the ORDER BY's sort", sg.input.src)
	}
	// Output order covers the grouping column (position 0).
	if len(out.order) != 1 || out.order[0] != 0 {
		t.Errorf("group output order = %v", out.order)
	}

	// Unsorted input under GroupAuto hashes.
	group2 := &algebra.GroupBy{
		Input:     scanE,
		GroupCols: group.GroupCols,
		Aggs:      group.Aggs,
	}
	out2, err := lower(c, group2)
	must(t, err)
	if _, ok := out2.pipe.src.(*hashGroupOp); !ok {
		t.Fatalf("GroupAuto over unsorted input compiled to %T, want hashGroupOp", out2.pipe.src)
	}

	// And the results agree across all three strategies.
	var results [][]value.Row
	for _, strat := range []GroupStrategy{GroupHash, GroupSort, GroupAuto} {
		res := run(t, group, s, &Options{Group: strat})
		results = append(results, res.Rows)
	}
	if !sameMultiset(results[0], results[1]) || !sameMultiset(results[0], results[2]) {
		t.Error("group strategies disagree on sorted input")
	}
}

// TestForcedGroupSortIsASortUnderTheStream: a forced GroupSort over input
// whose order proves nothing compiles to the streaming pass over an ordinary
// sortOp on the grouping columns — the group node's, ascending — so its rows
// are the hash grouping's, stably sorted on the grouping key, at any worker
// count and on the sort's external path, and EXPLAIN ANALYZE still names it
// op=sort.
func TestForcedGroupSortIsASortUnderTheStream(t *testing.T) {
	const n, keys = 5000, 300
	plan := govGroupPlan(n, keys)
	for i, row := range plan.Input.(*algebra.Values).Rows {
		row[0] = value.NewInt(int64(keys - 1 - i%keys)) // first appearance descending
	}
	c := &compiler{opts: &Options{Group: GroupSort}}
	out, err := lower(c, plan)
	must(t, err)
	sg, ok := out.pipe.src.(*sortGroupOp)
	if !ok {
		t.Fatalf("forced GroupSort compiled to %T, want sortGroupOp", out.pipe.src)
	}
	if so, ok := sg.input.src.(*sortOp); !ok || so.where != plan.Describe() || len(so.keys) != 1 || so.keys[0] != (sortKey{col: 0}) {
		t.Fatalf("the streaming pass reads %T, want the group's own ascending sort on k", sg.input.src)
	}
	if len(out.order) != 1 || out.order[0] != 0 {
		t.Fatalf("forced GroupSort output order = %v, want [0]", out.order)
	}
	hash, err := Run(plan, nil, &Options{Group: GroupHash})
	must(t, err)
	want := slices.Clone(hash.Rows)
	slices.SortStableFunc(want, func(a, b value.Row) int { return value.OrderKey(a[0], b[0]) })
	for _, workers := range []int{1, 3} {
		for _, spill := range []bool{false, true} {
			opts := &Options{Group: GroupSort, Parallelism: workers, Metrics: obs.NewCollector()}
			if spill {
				opts.MemoryBudget, opts.Spill = 4<<10, storage.NewSpillManager(t.TempDir())
			}
			res, err := Run(plan, nil, opts)
			must(t, err)
			m := opts.Metrics.Lookup(plan)
			if !sameRows(res.Rows, want) || *m.Operator.Load() != "sort" || spill && m.SortRuns.Load() == 0 {
				t.Fatalf("workers=%d, spill=%v: %d rows as op=%s in %d runs, want the hash rows sorted on k, op=sort, spilled when budgeted",
					workers, spill, len(res.Rows), *m.Operator.Load(), m.SortRuns.Load())
			}
		}
	}
}
