package exec

import (
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// fixture builds a small Employee/Department store in the shape of the
// paper's Example 1, with some NULL DeptIDs to exercise join semantics.
func fixture(t *testing.T) *storage.Store {
	t.Helper()
	s := storage.NewStore(schema.NewCatalog())
	must(t, s.CreateTable(&schema.Table{
		Name: "Department",
		Columns: []schema.Column{
			{Name: "DeptID", Type: value.KindInt},
			{Name: "Name", Type: value.KindString},
		},
		Keys: []schema.Key{{Columns: []string{"DeptID"}, Primary: true}},
	}))
	must(t, s.CreateTable(&schema.Table{
		Name: "Employee",
		Columns: []schema.Column{
			{Name: "EmpID", Type: value.KindInt},
			{Name: "DeptID", Type: value.KindInt},
			{Name: "Salary", Type: value.KindInt},
		},
		Keys: []schema.Key{{Columns: []string{"EmpID"}, Primary: true}},
	}))
	for _, d := range []struct {
		id   int64
		name string
	}{{1, "Sales"}, {2, "Eng"}, {3, "Empty"}} {
		must(t, s.Insert("Department", value.Row{value.NewInt(d.id), value.NewString(d.name)}))
	}
	for _, e := range []struct {
		id, dept, salary int64
	}{
		{1, 1, 100}, {2, 1, 200}, {3, 2, 300}, {4, 2, 150}, {5, 2, 250},
	} {
		must(t, s.Insert("Employee", value.Row{value.NewInt(e.id), value.NewInt(e.dept), value.NewInt(e.salary)}))
	}
	// An employee with an unknown department: joins must drop it.
	must(t, s.Insert("Employee", value.Row{value.NewInt(6), value.Null, value.NewInt(400)}))
	return s
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func scanOf(t *testing.T, s *storage.Store, table, alias string) *algebra.Scan {
	t.Helper()
	def, err := s.Catalog().Table(table)
	must(t, err)
	cols := make(algebra.Schema, len(def.Columns))
	for i, c := range def.Columns {
		cols[i] = algebra.ColDesc{
			ID:      expr.ColumnID{Table: alias, Name: c.Name},
			Type:    c.Type,
			NotNull: c.NotNull,
		}
	}
	return algebra.NewScan(table, alias, cols)
}

// sameMultiset compares two row sets ignoring order.
func sameMultiset(a, b []value.Row) bool {
	return slices.Equal(workload.Multiset(a), workload.Multiset(b))
}

func run(t *testing.T, plan algebra.Node, s *storage.Store, opts *Options) *Result {
	t.Helper()
	res, err := Run(plan, s, opts)
	must(t, err)
	return res
}

func TestScanAndFilter(t *testing.T) {
	s := fixture(t)
	plan := &algebra.Select{
		Input: scanOf(t, s, "Employee", "E"),
		Cond:  expr.NewBinary(expr.OpGt, expr.Column("E", "Salary"), expr.IntLit(150)),
	}
	res := run(t, plan, s, nil)
	if len(res.Rows) != 4 {
		t.Fatalf("filter kept %d rows, want 4", len(res.Rows))
	}
}

// TestFilterUnknownDisqualifies: the NULL-DeptID employee fails DeptID = 1
// (unknown), and also fails DeptID <> 1 — the hallmark of 3VL WHERE.
func TestFilterUnknownDisqualifies(t *testing.T) {
	s := fixture(t)
	eq := &algebra.Select{
		Input: scanOf(t, s, "Employee", "E"),
		Cond:  expr.Eq(expr.Column("E", "DeptID"), expr.IntLit(1)),
	}
	ne := &algebra.Select{
		Input: scanOf(t, s, "Employee", "E"),
		Cond:  expr.NewBinary(expr.OpNe, expr.Column("E", "DeptID"), expr.IntLit(1)),
	}
	if n := len(run(t, eq, s, nil).Rows); n != 2 {
		t.Errorf("DeptID = 1 kept %d rows, want 2", n)
	}
	if n := len(run(t, ne, s, nil).Rows); n != 3 {
		t.Errorf("DeptID <> 1 kept %d rows, want 3 (NULL row must drop)", n)
	}
}

func TestProjectAllKeepsDuplicates(t *testing.T) {
	s := fixture(t)
	plan := &algebra.Project{
		Input: scanOf(t, s, "Employee", "E"),
		Items: []algebra.ProjItem{
			{E: expr.Column("E", "DeptID"), As: expr.ColumnID{Table: "E", Name: "DeptID"}},
		},
	}
	res := run(t, plan, s, nil)
	if len(res.Rows) != 6 {
		t.Fatalf("π_A produced %d rows, want 6", len(res.Rows))
	}
}

// TestProjectDistinctNullSemantics: π_D treats NULL as equal to NULL — the
// NULL DeptID collapses to a single row, per SQL2 duplicate semantics.
func TestProjectDistinctNullSemantics(t *testing.T) {
	s := fixture(t)
	must(t, s.Insert("Employee", value.Row{value.NewInt(7), value.Null, value.NewInt(100)}))
	plan := &algebra.Project{
		Input: scanOf(t, s, "Employee", "E"),
		Items: []algebra.ProjItem{
			{E: expr.Column("E", "DeptID"), As: expr.ColumnID{Table: "E", Name: "DeptID"}},
		},
		Distinct: true,
	}
	res := run(t, plan, s, nil)
	// DeptIDs: 1, 2, NULL (two NULL rows collapse to one).
	if len(res.Rows) != 3 {
		t.Fatalf("π_D produced %d rows, want 3", len(res.Rows))
	}
}

func joinPlan(t *testing.T, s *storage.Store) *algebra.Join {
	return &algebra.Join{
		L:    scanOf(t, s, "Employee", "E"),
		R:    scanOf(t, s, "Department", "D"),
		Cond: expr.Eq(expr.Column("E", "DeptID"), expr.Column("D", "DeptID")),
	}
}

// TestJoinStrategiesAgree: hash, sort-merge and nested-loop joins must
// produce identical multisets, and NULL join keys never match.
func TestJoinStrategiesAgree(t *testing.T) {
	s := fixture(t)
	var results [][]value.Row
	for _, strat := range []JoinStrategy{JoinHash, JoinSortMerge, JoinNestedLoop} {
		res := run(t, joinPlan(t, s), s, &Options{Join: strat})
		if len(res.Rows) != 5 {
			t.Errorf("%s join produced %d rows, want 5 (NULL key must drop)", strat, len(res.Rows))
		}
		results = append(results, res.Rows)
	}
	if !sameMultiset(results[0], results[1]) || !sameMultiset(results[0], results[2]) {
		t.Error("join strategies disagree")
	}
}

func TestJoinWithResidualPredicate(t *testing.T) {
	s := fixture(t)
	plan := &algebra.Join{
		L: scanOf(t, s, "Employee", "E"),
		R: scanOf(t, s, "Department", "D"),
		Cond: expr.And(
			expr.Eq(expr.Column("E", "DeptID"), expr.Column("D", "DeptID")),
			expr.NewBinary(expr.OpGt, expr.Column("E", "Salary"), expr.IntLit(150)),
		),
	}
	for _, strat := range []JoinStrategy{JoinHash, JoinSortMerge, JoinNestedLoop} {
		res := run(t, plan, s, &Options{Join: strat})
		if len(res.Rows) != 3 {
			t.Errorf("%s join with residual produced %d rows, want 3", strat, len(res.Rows))
		}
	}
}

func TestCartesianProduct(t *testing.T) {
	s := fixture(t)
	plan := &algebra.Product{
		L: scanOf(t, s, "Employee", "E"),
		R: scanOf(t, s, "Department", "D"),
	}
	res := run(t, plan, s, nil)
	if len(res.Rows) != 6*3 {
		t.Fatalf("product produced %d rows, want 18", len(res.Rows))
	}
	if len(res.Schema) != 5 {
		t.Fatalf("product schema width %d, want 5", len(res.Schema))
	}
}

// TestJoinNoEquiKeyFallsBack: theta joins (no equality atom) run as nested
// loop even when hash is requested.
func TestJoinNoEquiKeyFallsBack(t *testing.T) {
	s := fixture(t)
	plan := &algebra.Join{
		L:    scanOf(t, s, "Employee", "E"),
		R:    scanOf(t, s, "Department", "D"),
		Cond: expr.NewBinary(expr.OpLt, expr.Column("E", "DeptID"), expr.Column("D", "DeptID")),
	}
	res := run(t, plan, s, &Options{Join: JoinHash})
	// E.DeptID < D.DeptID pairs: dept 1 rows (2) match D 2,3 → 4;
	// dept 2 rows (3) match D 3 → 3; NULL drops. Total 7.
	if len(res.Rows) != 7 {
		t.Fatalf("theta join produced %d rows, want 7", len(res.Rows))
	}
}

func groupPlan(t *testing.T, s *storage.Store, strategyIndependent bool) *algebra.GroupBy {
	return &algebra.GroupBy{
		Input:     joinPlan(t, s),
		GroupCols: []expr.ColumnID{{Table: "D", Name: "DeptID"}, {Table: "D", Name: "Name"}},
		Aggs: []algebra.AggItem{
			{E: &expr.Aggregate{Func: expr.AggCount, Arg: expr.Column("E", "EmpID")},
				As: expr.ColumnID{Name: "cnt"}},
			{E: &expr.Aggregate{Func: expr.AggSum, Arg: expr.Column("E", "Salary")},
				As: expr.ColumnID{Name: "total"}},
		},
	}
}

// TestGroupByHashAndSortAgree: the two grouping strategies must form
// identical groups and aggregates.
func TestGroupByHashAndSortAgree(t *testing.T) {
	s := fixture(t)
	hash := run(t, groupPlan(t, s, true), s, &Options{Group: GroupHash})
	sorted := run(t, groupPlan(t, s, true), s, &Options{Group: GroupSort})
	if !sameMultiset(hash.Rows, sorted.Rows) {
		t.Fatalf("hash grouping %v != sort grouping %v", hash.Rows, sorted.Rows)
	}
	if len(hash.Rows) != 2 {
		t.Fatalf("grouping produced %d groups, want 2 (dept 3 has no employees)", len(hash.Rows))
	}
	// Verify aggregate values: dept 1 → count 2, sum 300; dept 2 → count 3, sum 700.
	for _, row := range hash.Rows {
		switch row[0].Int() {
		case 1:
			if row[2].Int() != 2 || row[3].Int() != 300 {
				t.Errorf("dept 1 aggregates wrong: %v", row)
			}
		case 2:
			if row[2].Int() != 3 || row[3].Int() != 700 {
				t.Errorf("dept 2 aggregates wrong: %v", row)
			}
		default:
			t.Errorf("unexpected group %v", row)
		}
	}
}

// TestGroupByNullKeysGroupTogether: rows with NULL grouping values form one
// group ("NULL equals NULL" for duplicate operations).
func TestGroupByNullKeysGroupTogether(t *testing.T) {
	s := fixture(t)
	must(t, s.Insert("Employee", value.Row{value.NewInt(7), value.Null, value.NewInt(500)}))
	plan := &algebra.GroupBy{
		Input:     scanOf(t, s, "Employee", "E"),
		GroupCols: []expr.ColumnID{{Table: "E", Name: "DeptID"}},
		Aggs: []algebra.AggItem{
			{E: &expr.Aggregate{Func: expr.AggCountStar}, As: expr.ColumnID{Name: "n"}},
		},
	}
	for _, strat := range []GroupStrategy{GroupHash, GroupSort} {
		res := run(t, plan, s, &Options{Group: strat})
		if len(res.Rows) != 3 {
			t.Fatalf("%s grouping made %d groups, want 3 (1, 2, NULL)", strat, len(res.Rows))
		}
		foundNull := false
		for _, row := range res.Rows {
			if row[0].IsNull() {
				foundNull = true
				if row[1].Int() != 2 {
					t.Errorf("NULL group count = %s, want 2", row[1])
				}
			}
		}
		if !foundNull {
			t.Error("NULL group missing")
		}
	}
}

// TestScalarAggregateEmptyInput: grouping with no grouping columns yields
// exactly one row even on empty input (COUNT 0, SUM NULL).
func TestScalarAggregateEmptyInput(t *testing.T) {
	s := fixture(t)
	empty := &algebra.Select{
		Input: scanOf(t, s, "Employee", "E"),
		Cond:  expr.Eq(expr.Column("E", "EmpID"), expr.IntLit(-1)),
	}
	plan := &algebra.GroupBy{
		Input: empty,
		Aggs: []algebra.AggItem{
			{E: &expr.Aggregate{Func: expr.AggCountStar}, As: expr.ColumnID{Name: "n"}},
			{E: &expr.Aggregate{Func: expr.AggSum, Arg: expr.Column("E", "Salary")}, As: expr.ColumnID{Name: "s"}},
		},
	}
	for _, strat := range []GroupStrategy{GroupHash, GroupSort} {
		res := run(t, plan, s, &Options{Group: strat})
		if len(res.Rows) != 1 {
			t.Fatalf("%s scalar aggregate produced %d rows, want 1", strat, len(res.Rows))
		}
		if res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() {
			t.Errorf("scalar aggregate on empty input = %v, want (0, NULL)", res.Rows[0])
		}
	}
}

// TestGroupByEmptyInputWithKeysYieldsNothing: with grouping columns, empty
// input means zero groups.
func TestGroupByEmptyInputWithKeysYieldsNothing(t *testing.T) {
	s := fixture(t)
	empty := &algebra.Select{
		Input: scanOf(t, s, "Employee", "E"),
		Cond:  expr.Eq(expr.Column("E", "EmpID"), expr.IntLit(-1)),
	}
	plan := &algebra.GroupBy{
		Input:     empty,
		GroupCols: []expr.ColumnID{{Table: "E", Name: "DeptID"}},
		Aggs: []algebra.AggItem{
			{E: &expr.Aggregate{Func: expr.AggCountStar}, As: expr.ColumnID{Name: "n"}},
		},
	}
	res := run(t, plan, s, nil)
	if len(res.Rows) != 0 {
		t.Fatalf("grouped empty input produced %d rows, want 0", len(res.Rows))
	}
}

// TestAggregateArithmeticExpression: an F(AA) element may be an arithmetic
// expression over several aggregates, e.g. COUNT(EmpID) + SUM(Salary+Salary).
func TestAggregateArithmeticExpression(t *testing.T) {
	s := fixture(t)
	plan := &algebra.GroupBy{
		Input:     scanOf(t, s, "Employee", "E"),
		GroupCols: []expr.ColumnID{{Table: "E", Name: "DeptID"}},
		Aggs: []algebra.AggItem{
			{E: expr.NewBinary(expr.OpAdd,
				&expr.Aggregate{Func: expr.AggCount, Arg: expr.Column("E", "EmpID")},
				&expr.Aggregate{Func: expr.AggSum,
					Arg: expr.NewBinary(expr.OpAdd, expr.Column("E", "Salary"), expr.Column("E", "Salary"))},
			), As: expr.ColumnID{Name: "combo"}},
		},
	}
	res := run(t, plan, s, nil)
	// Dept 1: count 2 + sum(2*salary)=600 → 602.
	found := false
	for _, row := range res.Rows {
		if !row[0].IsNull() && row[0].Int() == 1 {
			found = true
			if row[1].Int() != 602 {
				t.Errorf("combo aggregate = %s, want 602", row[1])
			}
		}
	}
	if !found {
		t.Error("dept 1 group missing")
	}
}

func TestSortOperator(t *testing.T) {
	s := fixture(t)
	plan := &algebra.Sort{
		Input: scanOf(t, s, "Employee", "E"),
		Keys: []algebra.SortItem{
			{Col: expr.ColumnID{Table: "E", Name: "DeptID"}},
			{Col: expr.ColumnID{Table: "E", Name: "Salary"}, Desc: true},
		},
	}
	res := run(t, plan, s, nil)
	if len(res.Rows) != 6 {
		t.Fatalf("sort dropped rows: %d", len(res.Rows))
	}
	// NULLs sort first.
	if !res.Rows[0][1].IsNull() {
		t.Errorf("first row DeptID = %s, want NULL", res.Rows[0][1])
	}
	// Within dept 2, salaries descend: 300, 250, 150.
	var dept2 []int64
	for _, row := range res.Rows {
		if !row[1].IsNull() && row[1].Int() == 2 {
			dept2 = append(dept2, row[2].Int())
		}
	}
	want := []int64{300, 250, 150}
	for i := range want {
		if dept2[i] != want[i] {
			t.Fatalf("dept 2 salary order %v, want %v", dept2, want)
		}
	}
}

// TestStatsCollection: the metrics collector records per-node output
// cardinalities — the mechanism behind the Figure 1 / Figure 8 plan
// annotations.
func TestStatsCollection(t *testing.T) {
	s := fixture(t)
	join := joinPlan(t, s)
	group := &algebra.GroupBy{
		Input:     join,
		GroupCols: []expr.ColumnID{{Table: "D", Name: "DeptID"}},
		Aggs: []algebra.AggItem{
			{E: &expr.Aggregate{Func: expr.AggCountStar}, As: expr.ColumnID{Name: "n"}},
		},
	}
	col := obs.NewCollector()
	_ = run(t, group, s, &Options{Metrics: col})
	rows := func(n algebra.Node) int64 { return col.Lookup(n).RowsOut.Load() }
	if rows(join) != 5 {
		t.Errorf("join output recorded as %d rows, want 5", rows(join))
	}
	if rows(group) != 2 {
		t.Errorf("group output recorded as %d rows, want 2", rows(group))
	}
	if rows(join.L) != 6 || rows(join.R) != 3 {
		t.Errorf("scan cardinalities (%d, %d), want (6, 3)", rows(join.L), rows(join.R))
	}
}

func TestValuesNode(t *testing.T) {
	s := fixture(t)
	vals := &algebra.Values{
		Cols: algebra.Schema{{ID: expr.ColumnID{Name: "x"}, Type: value.KindInt}},
		Rows: []value.Row{{value.NewInt(1)}, {value.NewInt(2)}},
	}
	plan := &algebra.Select{Input: vals, Cond: expr.NewBinary(expr.OpGt, expr.Column("", "x"), expr.IntLit(1))}
	res := run(t, plan, s, nil)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Errorf("values plan produced %v", res.Rows)
	}
}

func TestHostVariableFlow(t *testing.T) {
	s := fixture(t)
	plan := &algebra.Select{
		Input: scanOf(t, s, "Department", "D"),
		Cond:  expr.Eq(expr.Column("D", "Name"), expr.Param("dept")),
	}
	res := run(t, plan, s, &Options{Params: expr.Params{"dept": value.NewString("Eng")}})
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Errorf("host-variable filter produced %v", res.Rows)
	}
	if _, err := Run(plan, s, nil); err == nil {
		t.Error("missing host variable must surface as an error")
	}
}

func TestUnknownColumnSurfacesAtCompile(t *testing.T) {
	s := fixture(t)
	plan := &algebra.Select{
		Input: scanOf(t, s, "Department", "D"),
		Cond:  expr.Eq(expr.Column("D", "Bogus"), expr.IntLit(1)),
	}
	if _, err := Run(plan, s, nil); err == nil {
		t.Error("unknown column must fail compilation")
	}
}

func TestAmbiguousColumnSurfaces(t *testing.T) {
	s := fixture(t)
	plan := &algebra.Select{
		Input: joinPlan(t, s),
		Cond:  expr.Eq(expr.Column("", "DeptID"), expr.IntLit(1)), // ambiguous: E.DeptID vs D.DeptID
	}
	if _, err := Run(plan, s, nil); err == nil {
		t.Error("ambiguous column must fail compilation")
	}
}
