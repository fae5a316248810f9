package algebra

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/value"
)

func testScan(alias string, cols ...string) *Scan {
	s := make(Schema, len(cols))
	for i, c := range cols {
		s[i] = ColDesc{ID: expr.ColumnID{Table: alias, Name: c}, Type: value.KindInt}
	}
	return NewScan(alias+"_table", alias, s)
}

func TestSchemaIndexOf(t *testing.T) {
	s := Schema{
		{ID: expr.ColumnID{Table: "E", Name: "DeptID"}},
		{ID: expr.ColumnID{Table: "D", Name: "DeptID"}},
		{ID: expr.ColumnID{Table: "D", Name: "Name"}},
	}
	// Qualified lookups.
	if i, err := s.IndexOf(expr.ColumnID{Table: "D", Name: "DeptID"}); err != nil || i != 1 {
		t.Errorf("D.DeptID resolved to (%d, %v)", i, err)
	}
	// Unqualified unique name.
	if i, err := s.IndexOf(expr.ColumnID{Name: "Name"}); err != nil || i != 2 {
		t.Errorf("Name resolved to (%d, %v)", i, err)
	}
	// Unqualified ambiguous name.
	if _, err := s.IndexOf(expr.ColumnID{Name: "DeptID"}); err == nil {
		t.Error("ambiguous DeptID accepted")
	}
	// Unknown name.
	if _, err := s.IndexOf(expr.ColumnID{Name: "zzz"}); err == nil {
		t.Error("unknown column accepted")
	}
	// IDs round trip.
	ids := s.IDs()
	if len(ids) != 3 || ids[0].Table != "E" {
		t.Errorf("IDs = %v", ids)
	}
	if got := s.String(); got != "(E.DeptID, D.DeptID, D.Name)" {
		t.Errorf("Schema.String() = %q", got)
	}
}

func TestNodeSchemas(t *testing.T) {
	e := testScan("E", "EmpID", "DeptID")
	d := testScan("D", "DeptID", "Name")

	join := &Join{L: e, R: d, Cond: expr.Eq(expr.Column("E", "DeptID"), expr.Column("D", "DeptID"))}
	if w := len(join.Schema()); w != 4 {
		t.Errorf("join schema width %d, want 4", w)
	}
	prod := &Product{L: e, R: d}
	if w := len(prod.Schema()); w != 4 {
		t.Errorf("product schema width %d, want 4", w)
	}

	sel := &Select{Input: join, Cond: expr.Eq(expr.Column("D", "Name"), expr.IntLit(1))}
	if w := len(sel.Schema()); w != 4 {
		t.Errorf("select schema width %d, want 4", w)
	}

	proj := &Project{Input: join, Items: []ProjItem{
		{E: expr.Column("D", "DeptID"), As: expr.ColumnID{Name: "dept"}},
		{E: expr.NewBinary(expr.OpAdd, expr.Column("E", "EmpID"), expr.IntLit(1)), As: expr.ColumnID{Name: "x"}},
		{E: expr.Eq(expr.Column("E", "EmpID"), expr.IntLit(0)), As: expr.ColumnID{Name: "b"}},
	}}
	ps := proj.Schema()
	if ps[0].Type != value.KindInt {
		t.Errorf("projected column type = %v, want INTEGER", ps[0].Type)
	}
	if ps[1].Type != value.KindInt {
		t.Errorf("arithmetic type = %v, want INTEGER", ps[1].Type)
	}
	if ps[2].Type != value.KindBool {
		t.Errorf("comparison type = %v, want BOOLEAN", ps[2].Type)
	}

	group := &GroupBy{
		Input:     join,
		GroupCols: []expr.ColumnID{{Table: "D", Name: "DeptID"}},
		Aggs: []AggItem{
			{E: &expr.Aggregate{Func: expr.AggCount, Arg: expr.Column("E", "EmpID")}, As: expr.ColumnID{Name: "n"}},
			{E: &expr.Aggregate{Func: expr.AggAvg, Arg: expr.Column("E", "EmpID")}, As: expr.ColumnID{Name: "a"}},
			{E: &expr.Aggregate{Func: expr.AggSum, Arg: expr.Column("E", "EmpID")}, As: expr.ColumnID{Name: "s"}},
		},
	}
	gs := group.Schema()
	if len(gs) != 4 {
		t.Fatalf("group schema width %d, want 4", len(gs))
	}
	if gs[1].Type != value.KindInt { // COUNT
		t.Errorf("COUNT type = %v", gs[1].Type)
	}
	if gs[2].Type != value.KindFloat { // AVG
		t.Errorf("AVG type = %v", gs[2].Type)
	}
	if gs[3].Type != value.KindInt { // SUM of int
		t.Errorf("SUM type = %v", gs[3].Type)
	}

	sorted := &Sort{Input: proj, Keys: []SortItem{{Col: expr.ColumnID{Name: "dept"}, Desc: true}}}
	if w := len(sorted.Schema()); w != 3 {
		t.Errorf("sort schema width %d", w)
	}
}

func TestDescribe(t *testing.T) {
	e := testScan("E", "DeptID")
	d := testScan("D", "DeptID")
	cases := []struct {
		n    Node
		want string
	}{
		{e, "Scan E_table AS E"},
		{NewScan("T", "T", nil), "Scan T"},
		{&Select{Input: e, Cond: expr.Eq(expr.Column("E", "DeptID"), expr.IntLit(1))}, "Select σ[E.DeptID = 1]"},
		{&Product{L: e, R: d}, "Product ×"},
		{&Join{L: e, R: d}, "Join ⨯ (no predicate)"},
		{&Join{L: e, R: d, Cond: expr.Eq(expr.Column("E", "DeptID"), expr.Column("D", "DeptID"))},
			"Join ⋈[E.DeptID = D.DeptID]"},
		{&Project{Input: e, Items: []ProjItem{{E: expr.Column("E", "DeptID"), As: expr.ColumnID{Table: "E", Name: "DeptID"}}}},
			"Project π_A[E.DeptID]"},
		{&Project{Input: e, Distinct: true, Items: []ProjItem{{E: expr.IntLit(1), As: expr.ColumnID{Name: "one"}}}},
			"Project π_D[1 AS one]"},
		{&GroupBy{Input: e, GroupCols: []expr.ColumnID{{Table: "E", Name: "DeptID"}}},
			"GroupBy G[E.DeptID]"},
		{&Sort{Input: e, Keys: []SortItem{{Col: expr.ColumnID{Table: "E", Name: "DeptID"}, Desc: true}}},
			"Sort [E.DeptID DESC]"},
		{&Values{Rows: []value.Row{{value.NewInt(1)}}}, "Values (1 rows)"},
	}
	for _, c := range cases {
		if got := c.n.Describe(); got != c.want {
			t.Errorf("Describe() = %q, want %q", got, c.want)
		}
	}
}

func TestFormatAndWalk(t *testing.T) {
	e := testScan("E", "DeptID")
	d := testScan("D", "DeptID")
	join := &Join{L: e, R: d, Cond: expr.Eq(expr.Column("E", "DeptID"), expr.Column("D", "DeptID"))}
	group := &GroupBy{Input: join, GroupCols: []expr.ColumnID{{Table: "D", Name: "DeptID"}}}

	out := Format(group, Annotations{
		join: {Rows: 42, Note: "hash"},
		e:    {Rows: 10},
	})
	if !strings.Contains(out, "42 rows (hash)") {
		t.Errorf("Format missing annotation:\n%s", out)
	}
	// Indentation: children are deeper than parents.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("Format produced %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "  ") || !strings.HasPrefix(lines[2], "    ") {
		t.Errorf("indentation wrong:\n%s", out)
	}

	scans := FindScans(group)
	if len(scans) != 2 || scans[0] != e || scans[1] != d {
		t.Errorf("FindScans = %v", scans)
	}
	// Walk handles nil gracefully.
	Walk(nil, func(Node) { t.Error("Walk(nil) visited a node") })
}

func TestGroupBySchemaWithUnknownGroupCol(t *testing.T) {
	// A grouping column missing from the input keeps its ID with an
	// unknown type rather than panicking; the executor reports the real
	// error at compile time.
	g := &GroupBy{
		Input:     testScan("E", "DeptID"),
		GroupCols: []expr.ColumnID{{Table: "E", Name: "Missing"}},
	}
	s := g.Schema()
	if len(s) != 1 || s[0].ID.Name != "Missing" {
		t.Errorf("schema = %v", s)
	}
}
