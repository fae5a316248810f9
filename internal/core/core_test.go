package core

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// example1Store builds the paper's Example 1 schema with a small instance.
func example1Store(t *testing.T) *storage.Store {
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
			{Name: "LastName", Type: value.KindString},
			{Name: "FirstName", Type: value.KindString},
			{Name: "DeptID", Type: value.KindInt},
		},
		Keys:        []schema.Key{{Columns: []string{"EmpID"}, Primary: true}},
		ForeignKeys: []schema.ForeignKey{{Columns: []string{"DeptID"}, RefTable: "Department"}},
	}))
	for _, d := range []struct {
		id   int64
		name string
	}{{1, "Sales"}, {2, "Eng"}, {3, "Ops"}, {4, "Empty"}} {
		s.MustInsert("Department", value.Row{value.NewInt(d.id), value.NewString(d.name)})
	}
	emps := []struct {
		id   int64
		dept value.Value
	}{
		{1, value.NewInt(1)}, {2, value.NewInt(1)}, {3, value.NewInt(2)},
		{4, value.NewInt(2)}, {5, value.NewInt(2)}, {6, value.NewInt(3)},
		{7, value.Null}, // employee with no department: drops out of the join
	}
	for _, e := range emps {
		s.MustInsert("Employee", value.Row{
			value.NewInt(e.id), value.NewString("Last"), value.NewString("First"), e.dept,
		})
	}
	return s
}

const example1SQL = `
	SELECT D.DeptID, D.Name, COUNT(E.EmpID)
	FROM Employee E, Department D
	WHERE E.DeptID = D.DeptID
	GROUP BY D.DeptID, D.Name`

// printerStore builds the paper's Example 3 schema (Section 6.3) with data.
func printerStore(t *testing.T) *storage.Store {
	t.Helper()
	s := storage.NewStore(schema.NewCatalog())
	must(t, s.CreateTable(&schema.Table{
		Name: "UserAccount",
		Columns: []schema.Column{
			{Name: "UserId", Type: value.KindInt},
			{Name: "Machine", Type: value.KindString},
			{Name: "UserName", Type: value.KindString},
		},
		Keys: []schema.Key{{Columns: []string{"UserId", "Machine"}, Primary: true}},
	}))
	must(t, s.CreateTable(&schema.Table{
		Name: "Printer",
		Columns: []schema.Column{
			{Name: "PNo", Type: value.KindInt},
			{Name: "Speed", Type: value.KindInt},
			{Name: "Make", Type: value.KindString},
		},
		Keys: []schema.Key{{Columns: []string{"PNo"}, Primary: true}},
	}))
	must(t, s.CreateTable(&schema.Table{
		Name: "PrinterAuth",
		Columns: []schema.Column{
			{Name: "UserId", Type: value.KindInt},
			{Name: "Machine", Type: value.KindString},
			{Name: "PNo", Type: value.KindInt},
			{Name: "Usage", Type: value.KindInt},
		},
		Keys: []schema.Key{{Columns: []string{"UserId", "Machine", "PNo"}, Primary: true}},
	}))
	users := []struct {
		id      int64
		machine string
		name    string
	}{
		{1, "dragon", "alice"}, {2, "dragon", "bob"}, {3, "tiger", "carol"},
		{1, "tiger", "alice2"}, // same UserId, different machine
	}
	for _, u := range users {
		s.MustInsert("UserAccount", value.Row{
			value.NewInt(u.id), value.NewString(u.machine), value.NewString(u.name),
		})
	}
	printers := []struct {
		pno, speed int64
	}{{1, 10}, {2, 20}, {3, 5}}
	for _, pr := range printers {
		s.MustInsert("Printer", value.Row{value.NewInt(pr.pno), value.NewInt(pr.speed), value.NewString("ACME")})
	}
	auths := []struct {
		uid         int64
		machine     string
		pno, pusage int64
	}{
		{1, "dragon", 1, 100}, {1, "dragon", 2, 50},
		{2, "dragon", 3, 75},
		{3, "tiger", 1, 10}, {1, "tiger", 2, 20},
	}
	for _, a := range auths {
		s.MustInsert("PrinterAuth", value.Row{
			value.NewInt(a.uid), value.NewString(a.machine), value.NewInt(a.pno), value.NewInt(a.pusage),
		})
	}
	return s
}

const example3SQL = `
	SELECT U.UserId, U.UserName, SUM(A.Usage), MAX(P.Speed), MIN(P.Speed)
	FROM UserAccount U, PrinterAuth A, Printer P
	WHERE U.UserId = A.UserId AND U.Machine = A.Machine
	      AND A.PNo = P.PNo AND U.Machine = 'dragon'
	GROUP BY U.UserId, U.UserName`

func parse(t *testing.T, q string) *sql.SelectStmt {
	t.Helper()
	stmt, err := sql.ParseQuery(q)
	must(t, err)
	return stmt
}

func canonical(rows []value.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = value.GroupKeyAll(r)
	}
	sort.Strings(keys)
	return keys
}

func sameMultiset(a, b []value.Row) bool {
	ka, kb := canonical(a), canonical(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// runPlan executes a plan and returns its rows.
func runPlan(t *testing.T, plan algebra.Node, s *storage.Store) []value.Row {
	t.Helper()
	res, err := exec.Run(plan, s, nil)
	must(t, err)
	return res.Rows
}

// TestExample1Pipeline runs the full pipeline on the paper's Example 1:
// normalization, TestFD (must answer YES), and equivalence of the standard
// and transformed plans.
func TestExample1Pipeline(t *testing.T) {
	s := example1Store(t)
	o := NewOptimizer(s)
	b, err := o.Planner().Bind(parse(t, example1SQL))
	must(t, err)

	shape, err := Normalize(b, nil)
	must(t, err)
	if len(shape.R1) != 1 || shape.R1[0] != "E" || len(shape.R2) != 1 || shape.R2[0] != "D" {
		t.Fatalf("partition: R1=%v R2=%v, want R1=[E] R2=[D]", shape.R1, shape.R2)
	}
	if len(shape.C0) != 1 || len(shape.C1) != 0 || len(shape.C2) != 0 {
		t.Fatalf("classification: C1=%v C0=%v C2=%v", shape.C1, shape.C0, shape.C2)
	}
	if len(shape.GA1) != 0 || len(shape.GA2) != 2 {
		t.Fatalf("GA split: GA1=%v GA2=%v", shape.GA1, shape.GA2)
	}
	// GA1+ must pick up E.DeptID from C0.
	if len(shape.GA1Plus) != 1 || shape.GA1Plus[0].Name != "DeptID" || shape.GA1Plus[0].Table != "E" {
		t.Fatalf("GA1+ = %v, want (E.DeptID)", shape.GA1Plus)
	}

	dec := TestFD(shape)
	if !dec.OK {
		t.Fatalf("TestFD answered NO: %s\n%s", dec.Reason, dec.TraceString())
	}

	p := o.Planner()
	standard, err := p.PlanStandard(b)
	must(t, err)
	transformed, err := p.PlanTransformed(shape)
	must(t, err)

	rows1 := runPlan(t, standard, s)
	rows2 := runPlan(t, transformed, s)
	if !sameMultiset(rows1, rows2) {
		t.Fatalf("plans disagree:\nstandard:   %v\ntransformed: %v", rows1, rows2)
	}
	// Expected: 3 groups (Sales 2, Eng 3, Ops 1); dept 4 and the NULL
	// employee drop out.
	if len(rows1) != 3 {
		t.Fatalf("result has %d rows, want 3: %v", len(rows1), rows1)
	}
	counts := map[int64]int64{}
	for _, r := range rows1 {
		counts[r[0].Int()] = r[2].Int()
	}
	if counts[1] != 2 || counts[2] != 3 || counts[3] != 1 {
		t.Errorf("counts = %v, want {1:2, 2:3, 3:1}", counts)
	}
}

// TestExample3Pipeline reproduces the Section 6.3 worked example: the
// partition, classification and TestFD answer must match the paper's run.
func TestExample3Pipeline(t *testing.T) {
	s := printerStore(t)
	o := NewOptimizer(s)
	b, err := o.Planner().Bind(parse(t, example3SQL))
	must(t, err)

	shape, err := Normalize(b, nil)
	must(t, err)
	// Paper: R1 = (A, P), R2 = (U).
	if strings.Join(shape.R1, ",") != "A,P" || strings.Join(shape.R2, ",") != "U" {
		t.Fatalf("partition: R1=%v R2=%v, want R1=[A P] R2=[U]", shape.R1, shape.R2)
	}
	// C1 = A.PNo = P.PNo; C0 = the two U/A equalities; C2 = U.Machine = 'dragon'.
	if len(shape.C1) != 1 || len(shape.C0) != 2 || len(shape.C2) != 1 {
		t.Fatalf("classification: C1=%v C0=%v C2=%v", shape.C1, shape.C0, shape.C2)
	}
	// GA1+ = (A.UserId, A.Machine); GA2+ = (U.UserId, U.UserName, U.Machine).
	if len(shape.GA1Plus) != 2 {
		t.Fatalf("GA1+ = %v", shape.GA1Plus)
	}
	if len(shape.GA2Plus) != 3 {
		t.Fatalf("GA2+ = %v", shape.GA2Plus)
	}

	dec := TestFD(shape)
	if !dec.OK {
		t.Fatalf("TestFD answered NO: %s\n%s", dec.Reason, dec.TraceString())
	}

	p := o.Planner()
	standard, err := p.PlanStandard(b)
	must(t, err)
	transformed, err := p.PlanTransformed(shape)
	must(t, err)
	rows1 := runPlan(t, standard, s)
	rows2 := runPlan(t, transformed, s)
	if !sameMultiset(rows1, rows2) {
		t.Fatalf("plans disagree:\nstandard:    %v\ntransformed: %v", rows1, rows2)
	}
	// dragon users: alice (usage 150, speeds 10/20), bob (75, speed 5).
	if len(rows1) != 2 {
		t.Fatalf("result has %d rows, want 2: %v", len(rows1), rows1)
	}
	for _, r := range rows1 {
		switch r[1].Str() {
		case "alice":
			if r[2].Int() != 150 || r[3].Int() != 20 || r[4].Int() != 10 {
				t.Errorf("alice row wrong: %v", r)
			}
		case "bob":
			if r[2].Int() != 75 || r[3].Int() != 5 || r[4].Int() != 5 {
				t.Errorf("bob row wrong: %v", r)
			}
		default:
			t.Errorf("unexpected user %s", r[1])
		}
	}
}

// TestFDRejectsNonKeyGrouping: grouping R2 by a non-key column must fail
// FD2 (two departments may share a name), per Lemma 3's necessity.
func TestFDRejectsNonKeyGrouping(t *testing.T) {
	s := example1Store(t)
	o := NewOptimizer(s)
	q := parse(t, `
		SELECT D.Name, COUNT(E.EmpID)
		FROM Employee E, Department D
		WHERE E.DeptID = D.DeptID
		GROUP BY D.Name`)
	b, err := o.Planner().Bind(q)
	must(t, err)
	shape, err := Normalize(b, nil)
	must(t, err)
	dec := TestFD(shape)
	if dec.OK {
		t.Fatalf("TestFD accepted grouping by D.Name (non-key):\n%s", dec.TraceString())
	}
}

// TestFDNonKeyGroupingCounterexample shows the rejection above is not
// conservative paranoia: with two same-named departments, E1 and E2
// genuinely differ (Lemma 3).
func TestFDNonKeyGroupingCounterexample(t *testing.T) {
	s := example1Store(t)
	// Two departments named "Dup".
	s.MustInsert("Department", value.Row{value.NewInt(10), value.NewString("Dup")})
	s.MustInsert("Department", value.Row{value.NewInt(11), value.NewString("Dup")})
	s.MustInsert("Employee", value.Row{value.NewInt(100), value.NewString("L"), value.NewString("F"), value.NewInt(10)})
	s.MustInsert("Employee", value.Row{value.NewInt(101), value.NewString("L"), value.NewString("F"), value.NewInt(11)})

	o := NewOptimizer(s)
	q := parse(t, `
		SELECT D.Name, COUNT(E.EmpID)
		FROM Employee E, Department D
		WHERE E.DeptID = D.DeptID
		GROUP BY D.Name`)
	b, err := o.Planner().Bind(q)
	must(t, err)
	shape, err := Normalize(b, nil)
	must(t, err)

	p := o.Planner()
	standard, err := p.PlanStandard(b)
	must(t, err)
	transformed, err := p.PlanTransformed(shape)
	must(t, err)
	rows1 := runPlan(t, standard, s)
	rows2 := runPlan(t, transformed, s)
	if sameMultiset(rows1, rows2) {
		t.Fatal("expected a counterexample: plans agreed despite FD2 being violated")
	}
	// E1 has one "Dup" group with count 2; E2 has two "Dup" rows.
	var dupRows1, dupRows2 int
	for _, r := range rows1 {
		if r[0].Str() == "Dup" {
			dupRows1++
		}
	}
	for _, r := range rows2 {
		if r[0].Str() == "Dup" {
			dupRows2++
		}
	}
	if dupRows1 != 1 || dupRows2 != 2 {
		t.Errorf("Dup groups: standard %d (want 1), transformed %d (want 2)", dupRows1, dupRows2)
	}
}

// TestCandidateKeyNullRefinement: a nullable UNIQUE key does not pin a row
// of R2 under =ⁿ, so TestFD must refuse it unless an equality forces the
// column non-null.
func TestCandidateKeyNullRefinement(t *testing.T) {
	s := storage.NewStore(schema.NewCatalog())
	must(t, s.CreateTable(&schema.Table{
		Name: "R2",
		Columns: []schema.Column{
			{Name: "id", Type: value.KindInt},
			{Name: "alt", Type: value.KindInt}, // nullable candidate key
			{Name: "payload", Type: value.KindInt},
		},
		Keys: []schema.Key{
			{Columns: []string{"id"}, Primary: true},
			{Columns: []string{"alt"}},
		},
	}))
	must(t, s.CreateTable(&schema.Table{
		Name: "R1",
		Columns: []schema.Column{
			{Name: "k", Type: value.KindInt},
			{Name: "v", Type: value.KindInt},
		},
	}))
	o := NewOptimizer(s)

	// Grouping by the nullable candidate key alone, joining on payload:
	// alt does not appear in any equality, so the key is unusable.
	q1 := parse(t, `
		SELECT R2.alt, SUM(R1.v)
		FROM R1, R2
		WHERE R1.k = R2.payload
		GROUP BY R2.alt`)
	b1, err := o.Planner().Bind(q1)
	must(t, err)
	shape1, err := Normalize(b1, nil)
	must(t, err)
	if dec := TestFD(shape1); dec.OK {
		t.Fatalf("TestFD accepted a nullable candidate key:\n%s", dec.TraceString())
	}

	// Joining on alt forces it non-null in the join result: now usable.
	q2 := parse(t, `
		SELECT R2.alt, SUM(R1.v)
		FROM R1, R2
		WHERE R1.k = R2.alt
		GROUP BY R2.alt`)
	b2, err := o.Planner().Bind(q2)
	must(t, err)
	shape2, err := Normalize(b2, nil)
	must(t, err)
	if dec := TestFD(shape2); !dec.OK {
		t.Fatalf("TestFD rejected a non-null-forced candidate key: %s\n%s", dec.Reason, dec.TraceString())
	}
}

// TestCandidateKeyNullCounterexample demonstrates why the refinement is
// needed: two R2 rows with NULL candidate keys fall into one E1 group but
// produce two E2 rows.
func TestCandidateKeyNullCounterexample(t *testing.T) {
	s := storage.NewStore(schema.NewCatalog())
	must(t, s.CreateTable(&schema.Table{
		Name: "R2",
		Columns: []schema.Column{
			{Name: "id", Type: value.KindInt},
			{Name: "alt", Type: value.KindInt},
			{Name: "payload", Type: value.KindInt},
		},
		Keys: []schema.Key{
			{Columns: []string{"id"}, Primary: true},
			{Columns: []string{"alt"}},
		},
	}))
	must(t, s.CreateTable(&schema.Table{
		Name: "R1",
		Columns: []schema.Column{
			{Name: "k", Type: value.KindInt},
			{Name: "v", Type: value.KindInt},
		},
	}))
	// Two R2 rows with NULL alt, same payload.
	s.MustInsert("R2", value.Row{value.NewInt(1), value.Null, value.NewInt(7)})
	s.MustInsert("R2", value.Row{value.NewInt(2), value.Null, value.NewInt(7)})
	s.MustInsert("R1", value.Row{value.NewInt(7), value.NewInt(100)})

	o := NewOptimizer(s)
	q := parse(t, `
		SELECT R2.alt, SUM(R1.v)
		FROM R1, R2
		WHERE R1.k = R2.payload
		GROUP BY R2.alt`)
	b, err := o.Planner().Bind(q)
	must(t, err)
	shape, err := Normalize(b, nil)
	must(t, err)
	p := o.Planner()
	standard, err := p.PlanStandard(b)
	must(t, err)
	transformed, err := p.PlanTransformed(shape)
	must(t, err)
	rows1 := runPlan(t, standard, s)
	rows2 := runPlan(t, transformed, s)
	if len(rows1) != 1 || len(rows2) != 2 {
		t.Fatalf("expected 1 standard row vs 2 transformed rows, got %d vs %d", len(rows1), len(rows2))
	}
	if sameMultiset(rows1, rows2) {
		t.Fatal("counterexample failed to distinguish the plans")
	}
}

// TestOptimizerModes exercises the three optimizer modes on Example 1.
func TestOptimizerModes(t *testing.T) {
	s := example1Store(t)
	q := parse(t, example1SQL)

	o := NewOptimizer(s)
	o.Mode = ModeAlways
	r, err := o.Optimize(q)
	must(t, err)
	if !r.Applicable || !r.Decision.OK || !r.Transformed {
		t.Fatalf("ModeAlways: applicable=%v decision=%v transformed=%v", r.Applicable, r.Decision.OK, r.Transformed)
	}

	o.Mode = ModeNever
	r, err = o.Optimize(q)
	must(t, err)
	if r.Transformed {
		t.Fatal("ModeNever still transformed")
	}

	o.Mode = ModeCost
	r, err = o.Optimize(q)
	must(t, err)
	if !r.Applicable || !r.Decision.OK {
		t.Fatalf("ModeCost lost applicability: %s", r.WhyNot)
	}
	// Both plans must execute identically regardless of the choice.
	rows1 := runPlan(t, r.Standard, s)
	rows2 := runPlan(t, r.Alternative, s)
	if !sameMultiset(rows1, rows2) {
		t.Fatal("standard and alternative plans disagree")
	}
	// Explain must mention the key sections.
	text := r.Explain()
	for _, wanted := range []string{"Standard plan", "TestFD", "Transformed plan", "R1 = {E}"} {
		if !strings.Contains(text, wanted) {
			t.Errorf("Explain() missing %q:\n%s", wanted, text)
		}
	}
}

// TestNotApplicableCases: queries outside the class are reported as such.
func TestNotApplicableCases(t *testing.T) {
	s := example1Store(t)
	o := NewOptimizer(s)
	cases := []struct {
		name string
		q    string
		why  string
	}{
		{"no group by", `SELECT COUNT(E.EmpID) FROM Employee E, Department D WHERE E.DeptID = D.DeptID`, "no GROUP BY"},
		{"single table", `SELECT E.DeptID, COUNT(E.EmpID) FROM Employee E GROUP BY E.DeptID`, "single table"},
		{"aggregates everywhere", `SELECT E.DeptID, COUNT(E.EmpID), MIN(D.Name) FROM Employee E, Department D WHERE E.DeptID = D.DeptID GROUP BY E.DeptID`, "every table"},
	}
	for _, c := range cases {
		r, err := o.Optimize(parse(t, c.q))
		must(t, err)
		if r.Applicable {
			t.Errorf("%s: reported applicable", c.name)
			continue
		}
		if !strings.Contains(r.WhyNot, c.why) {
			t.Errorf("%s: WhyNot = %q, want mention of %q", c.name, r.WhyNot, c.why)
		}
		// The standard plan must still execute.
		_ = runPlan(t, r.Chosen(), s)
	}
}

// TestStandardPlannerBasics covers planner paths not exercised above.
func TestStandardPlannerBasics(t *testing.T) {
	s := example1Store(t)
	p := NewPlanner(s)

	// Star expansion.
	plan, err := p.PlanQuery(parse(t, `SELECT * FROM Department D`))
	must(t, err)
	rows := runPlan(t, plan, s)
	if len(rows) != 4 || len(rows[0]) != 2 {
		t.Errorf("star expansion: %d rows, width %d", len(rows), len(rows[0]))
	}

	// DISTINCT, ORDER BY (output name and DESC).
	plan, err = p.PlanQuery(parse(t, `
		SELECT DISTINCT E.DeptID AS d FROM Employee E ORDER BY d DESC`))
	must(t, err)
	rows = runPlan(t, plan, s)
	if len(rows) != 4 { // 1, 2, 3, NULL
		t.Fatalf("distinct produced %d rows, want 4", len(rows))
	}
	if !rows[len(rows)-1][0].IsNull() {
		t.Error("DESC must put NULL last")
	}

	// Scalar aggregate without GROUP BY.
	plan, err = p.PlanQuery(parse(t, `SELECT COUNT(*) FROM Employee E`))
	must(t, err)
	rows = runPlan(t, plan, s)
	if len(rows) != 1 || rows[0][0].Int() != 7 {
		t.Errorf("COUNT(*) = %v", rows)
	}

	// HAVING execution (standard plan only).
	plan, err = p.PlanQuery(parse(t, `
		SELECT E.DeptID, COUNT(*) FROM Employee E GROUP BY E.DeptID HAVING COUNT(*) > 1`))
	must(t, err)
	rows = runPlan(t, plan, s)
	if len(rows) != 2 { // depts 1 (2 rows) and 2 (3 rows)
		t.Errorf("HAVING kept %d groups, want 2: %v", len(rows), rows)
	}

	// Aggregate mixed with arithmetic and group column arithmetic.
	plan, err = p.PlanQuery(parse(t, `
		SELECT E.DeptID + 100, COUNT(*) * 2 FROM Employee E GROUP BY E.DeptID`))
	must(t, err)
	rows = runPlan(t, plan, s)
	if len(rows) != 4 {
		t.Errorf("grouped arithmetic: %d rows", len(rows))
	}

	// Errors.
	if _, err := p.PlanQuery(parse(t, `SELECT E.Bogus FROM Employee E`)); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := p.PlanQuery(parse(t, `SELECT LastName, COUNT(*) FROM Employee E GROUP BY E.DeptID`)); err == nil {
		t.Error("non-grouped column accepted")
	}
	if _, err := p.PlanQuery(parse(t, `SELECT DeptID FROM Employee E, Department D`)); err == nil {
		t.Error("ambiguous column accepted")
	}
	if _, err := p.PlanQuery(parse(t, `SELECT X.a FROM NoSuchTable X`)); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := p.PlanQuery(parse(t, `SELECT E.EmpID FROM Employee E, Employee E`)); err == nil {
		t.Error("duplicate alias accepted")
	}
	if _, err := p.PlanQuery(parse(t, `SELECT E.EmpID FROM Employee E ORDER BY E.DeptID`)); err == nil {
		t.Error("ORDER BY on a non-output column accepted")
	}
	if _, err := p.PlanQuery(parse(t, `SELECT E.EmpID FROM Employee E HAVING COUNT(*) > 0`)); err == nil {
		// HAVING without GROUP BY turns the query into a scalar
		// aggregate — our subset requires grouping or aggregation in
		// the select list. Accept either behavior but do not crash.
		_ = err
	}
}

// TestPredicateExpansionExample3 reproduces the paper's closing remark of
// Section 6.3: from C0's U.Machine = A.Machine and C2's U.Machine =
// 'dragon', expansion derives A.Machine = 'dragon' into C1, and the
// transformed plan still matches the standard one.
func TestPredicateExpansionExample3(t *testing.T) {
	s := printerStore(t)
	o := NewOptimizer(s)
	b, err := o.Planner().Bind(parse(t, example3SQL))
	must(t, err)
	shape, err := Normalize(b, nil)
	must(t, err)
	before := len(shape.C1)
	added := ExpandPredicates(shape)
	if len(added) != 1 {
		t.Fatalf("expansion added %d predicates, want 1: %v", len(added), added)
	}
	if got := added[0].String(); got != "A.Machine = 'dragon'" {
		t.Errorf("derived predicate = %q, want A.Machine = 'dragon'", got)
	}
	if len(shape.C1) != before+1 {
		t.Error("shape.C1 not extended")
	}
	// Idempotent: a second call adds nothing.
	if again := ExpandPredicates(shape); len(again) != 0 {
		t.Errorf("second expansion added %v", again)
	}
	// Equivalence still holds with the expanded C1.
	p := o.Planner()
	standard, err := p.PlanStandard(b)
	must(t, err)
	transformed, err := p.PlanTransformed(shape)
	must(t, err)
	if !sameMultiset(runPlan(t, standard, s), runPlan(t, transformed, s)) {
		t.Fatal("expansion changed the result")
	}
}

// TestPredicateExpansionTransitiveChain: the derivation follows equality
// chains of length > 1 (R1.x = R2.y, R2.y = R2.z, R2.z = const).
func TestPredicateExpansionTransitiveChain(t *testing.T) {
	s := storage.NewStore(schema.NewCatalog())
	must(t, s.CreateTable(&schema.Table{
		Name: "R2",
		Columns: []schema.Column{
			{Name: "id", Type: value.KindInt},
			{Name: "y", Type: value.KindInt},
			{Name: "z", Type: value.KindInt},
		},
		Keys: []schema.Key{{Columns: []string{"id"}, Primary: true}},
	}))
	must(t, s.CreateTable(&schema.Table{
		Name: "R1",
		Columns: []schema.Column{
			{Name: "x", Type: value.KindInt},
			{Name: "v", Type: value.KindInt},
		},
	}))
	o := NewOptimizer(s)
	q := parse(t, `
		SELECT R2.id, SUM(R1.v)
		FROM R1, R2
		WHERE R1.x = R2.y AND R2.y = R2.z AND R2.z = 7
		GROUP BY R2.id`)
	b, err := o.Planner().Bind(q)
	must(t, err)
	shape, err := Normalize(b, nil)
	must(t, err)
	added := ExpandPredicates(shape)
	if len(added) != 1 || added[0].String() != "R1.x = 7" {
		t.Errorf("derived %v, want [R1.x = 7]", added)
	}
}

// TestPredicateExpansionNoFalseDerivation: no constant in the equivalence
// class → nothing derived; constants on unrelated classes → nothing.
func TestPredicateExpansionNoFalseDerivation(t *testing.T) {
	s := example1Store(t)
	o := NewOptimizer(s)
	b, err := o.Planner().Bind(parse(t, example1SQL))
	must(t, err)
	shape, err := Normalize(b, nil)
	must(t, err)
	if added := ExpandPredicates(shape); len(added) != 0 {
		t.Errorf("expansion invented predicates: %v", added)
	}
}

// TestSubqueriesMaterialize: uncorrelated IN/EXISTS subqueries are planned
// and executed at bind time ("subqueries are allowed", Section 3), and the
// resulting query still transforms when TestFD holds.
func TestSubqueriesMaterialize(t *testing.T) {
	s := example1Store(t)
	o := NewOptimizer(s)

	// IN subquery restricting departments.
	q := parse(t, `
		SELECT D.DeptID, D.Name, COUNT(E.EmpID)
		FROM Employee E, Department D
		WHERE E.DeptID = D.DeptID
		  AND D.DeptID IN (SELECT D2.DeptID FROM Department D2 WHERE D2.Name = 'Eng')
		GROUP BY D.DeptID, D.Name`)
	r, err := o.Optimize(q)
	must(t, err)
	if !r.Applicable || !r.Decision.OK {
		t.Fatalf("IN-subquery query not transformable: %s", r.WhyNot)
	}
	rows1 := runPlan(t, r.Standard, s)
	rows2 := runPlan(t, r.Alternative, s)
	if !sameMultiset(rows1, rows2) {
		t.Fatalf("plans disagree:\nstandard:    %v\ntransformed: %v", rows1, rows2)
	}
	if len(rows1) != 1 || rows1[0][1].Str() != "Eng" {
		t.Fatalf("result = %v, want the Eng group only", rows1)
	}

	// EXISTS subquery: Department is non-empty, so the predicate is a
	// constant TRUE and every group survives.
	q2 := parse(t, `
		SELECT D.DeptID, COUNT(E.EmpID)
		FROM Employee E, Department D
		WHERE E.DeptID = D.DeptID
		  AND EXISTS (SELECT D2.DeptID FROM Department D2)
		GROUP BY D.DeptID`)
	b2, err := o.Planner().Bind(q2)
	must(t, err)
	plan2, err := o.Planner().PlanStandard(b2)
	must(t, err)
	if n := len(runPlan(t, plan2, s)); n != 3 {
		t.Errorf("EXISTS TRUE query returned %d groups, want 3", n)
	}

	// NOT EXISTS over a non-empty table: constant FALSE, empty result.
	q3 := parse(t, `
		SELECT E.EmpID FROM Employee E
		WHERE NOT EXISTS (SELECT D.DeptID FROM Department D)`)
	b3, err := o.Planner().Bind(q3)
	must(t, err)
	plan3, err := o.Planner().PlanStandard(b3)
	must(t, err)
	if n := len(runPlan(t, plan3, s)); n != 0 {
		t.Errorf("NOT EXISTS FALSE query returned %d rows, want 0", n)
	}
}

// TestDegenerateCase1Rejected documents a soundness gap in the paper's Main
// Theorem case 1 (GA1+ empty): on an empty R1 side the standard plan
// produces zero groups while the transformed plan's scalar aggregation
// produces one row per R2 row. TestFD must refuse such queries, and the
// counterexample instance must demonstrate why.
func TestDegenerateCase1Rejected(t *testing.T) {
	s := storage.NewStore(schema.NewCatalog())
	must(t, s.CreateTable(&schema.Table{
		Name:    "R2",
		Columns: []schema.Column{{Name: "id", Type: value.KindInt}},
		Keys:    []schema.Key{{Columns: []string{"id"}, Primary: true}},
	}))
	must(t, s.CreateTable(&schema.Table{
		Name:    "R1",
		Columns: []schema.Column{{Name: "c", Type: value.KindInt}},
	}))
	s.MustInsert("R2", value.Row{value.NewInt(1)})
	s.MustInsert("R2", value.Row{value.NewInt(2)})
	// R1 stays EMPTY.

	o := NewOptimizer(s)
	q := parse(t, `SELECT R2.id, SUM(R1.c) FROM R1, R2 GROUP BY R2.id`)
	b, err := o.Planner().Bind(q)
	must(t, err)
	shape, err := Normalize(b, nil)
	must(t, err)
	if len(shape.GA1Plus) != 0 {
		t.Fatalf("GA1+ = %v, want empty (pure Cartesian, no R1 grouping columns)", shape.GA1Plus)
	}
	dec := TestFD(shape)
	if dec.OK {
		t.Fatal("TestFD accepted the unsound degenerate case 1")
	}
	if !strings.Contains(dec.Reason, "GA1+ is empty") {
		t.Errorf("rejection reason = %q", dec.Reason)
	}

	// The counterexample: the plans genuinely differ on this instance.
	standard, err := o.Planner().PlanStandard(b)
	must(t, err)
	transformed, err := o.Planner().PlanTransformed(shape)
	must(t, err)
	rows1 := runPlan(t, standard, s)
	rows2 := runPlan(t, transformed, s)
	if len(rows1) != 0 || len(rows2) != 2 {
		t.Fatalf("counterexample shape wrong: standard %v, transformed %v", rows1, rows2)
	}
}

// TestDegenerateCase2Transforms: the Main Theorem's case 2 (GA2+ empty —
// R2 contributes nothing but a cardinality check) IS sound: FD2 demands
// σ[C2]R2 hold at most one row, which constant-pinned keys guarantee.
func TestDegenerateCase2Transforms(t *testing.T) {
	s := storage.NewStore(schema.NewCatalog())
	must(t, s.CreateTable(&schema.Table{
		Name:    "R2",
		Columns: []schema.Column{{Name: "id", Type: value.KindInt}},
		Keys:    []schema.Key{{Columns: []string{"id"}, Primary: true}},
	}))
	must(t, s.CreateTable(&schema.Table{
		Name: "R1",
		Columns: []schema.Column{
			{Name: "a", Type: value.KindInt},
			{Name: "c", Type: value.KindInt},
		},
	}))
	s.MustInsert("R2", value.Row{value.NewInt(1)})
	s.MustInsert("R2", value.Row{value.NewInt(2)})
	for i := 0; i < 6; i++ {
		s.MustInsert("R1", value.Row{value.NewInt(int64(i % 2)), value.NewInt(int64(i))})
	}
	o := NewOptimizer(s)
	// R2 pinned to one row by its key: the join is a product with a
	// single R2 row, and grouping R1 early is valid.
	q := parse(t, `
		SELECT R1.a, SUM(R1.c)
		FROM R1, R2
		WHERE R2.id = 1
		GROUP BY R1.a`)
	b, err := o.Planner().Bind(q)
	must(t, err)
	shape, err := Normalize(b, nil)
	must(t, err)
	if len(shape.GA2Plus) != 0 {
		t.Fatalf("GA2+ = %v, want empty", shape.GA2Plus)
	}
	dec := TestFD(shape)
	if !dec.OK {
		t.Fatalf("TestFD rejected sound case 2: %s\n%s", dec.Reason, dec.TraceString())
	}
	standard, err := o.Planner().PlanStandard(b)
	must(t, err)
	transformed, err := o.Planner().PlanTransformed(shape)
	must(t, err)
	if !sameMultiset(runPlan(t, standard, s), runPlan(t, transformed, s)) {
		t.Fatal("case 2 plans disagree")
	}

	// Without the pin, σ[C2]R2 has two rows: TestFD must refuse.
	q2 := parse(t, `SELECT R1.a, SUM(R1.c) FROM R1, R2 GROUP BY R1.a`)
	b2, err := o.Planner().Bind(q2)
	must(t, err)
	shape2, err := Normalize(b2, nil)
	must(t, err)
	if dec := TestFD(shape2); dec.OK {
		t.Fatal("TestFD accepted an unpinned Cartesian case 2")
	}
}

// TestDerivedEqualities: range conjuncts that pin a column to a single
// value act as Type 1 atoms (Section 6.2's condition strengthening):
// matching inclusive bounds, degenerate BETWEEN, singleton IN.
func TestDerivedEqualities(t *testing.T) {
	s := example1Store(t)
	o := NewOptimizer(s)
	// Without the pin, grouping by D.Name alone fails FD2.
	baseline := parse(t, `
		SELECT D.Name, COUNT(E.EmpID)
		FROM Employee E, Department D
		WHERE E.DeptID = D.DeptID
		GROUP BY D.Name`)
	b0, err := o.Planner().Bind(baseline)
	must(t, err)
	shape0, err := Normalize(b0, nil)
	must(t, err)
	if TestFD(shape0).OK {
		t.Fatal("baseline unexpectedly transformable")
	}

	pinnings := []string{
		"D.DeptID >= 2 AND D.DeptID <= 2",
		"D.DeptID BETWEEN 2 AND 2",
		"D.DeptID IN (2)",
		"2 <= D.DeptID AND 2 >= D.DeptID", // reversed orientations
	}
	for _, pin := range pinnings {
		q := parse(t, `
			SELECT D.Name, COUNT(E.EmpID)
			FROM Employee E, Department D
			WHERE E.DeptID = D.DeptID AND `+pin+`
			GROUP BY D.Name`)
		b, err := o.Planner().Bind(q)
		must(t, err)
		shape, err := Normalize(b, nil)
		must(t, err)
		dec := TestFD(shape)
		if !dec.OK {
			t.Errorf("pin %q: TestFD answered NO: %s\n%s", pin, dec.Reason, dec.TraceString())
			continue
		}
		standard, err := o.Planner().PlanStandard(b)
		must(t, err)
		transformed, err := o.Planner().PlanTransformed(shape)
		must(t, err)
		if !sameMultiset(runPlan(t, standard, s), runPlan(t, transformed, s)) {
			t.Errorf("pin %q: plans disagree", pin)
		}
	}

	// Bounds that do NOT meet must not derive an equality.
	loose := parse(t, `
		SELECT D.Name, COUNT(E.EmpID)
		FROM Employee E, Department D
		WHERE E.DeptID = D.DeptID AND D.DeptID >= 1 AND D.DeptID <= 2
		GROUP BY D.Name`)
	bl, err := o.Planner().Bind(loose)
	must(t, err)
	shapeL, err := Normalize(bl, nil)
	must(t, err)
	if TestFD(shapeL).OK {
		t.Error("loose bounds unexpectedly proved the FDs")
	}
}

// TestGreedyJoinOrdering: a FROM list interleaving unconnected tables must
// not produce a Cartesian product in the join tree — the planner reorders
// greedily along the predicate graph.
func TestGreedyJoinOrdering(t *testing.T) {
	s := printerStore(t)
	p := NewPlanner(s)
	// FROM order U, P, A puts the unconnected U and P adjacent; the
	// predicates connect U-A and A-P only.
	q := parse(t, `
		SELECT U.UserId, SUM(A.Usage)
		FROM UserAccount U, Printer P, PrinterAuth A
		WHERE U.UserId = A.UserId AND U.Machine = A.Machine AND A.PNo = P.PNo
		GROUP BY U.UserId`)
	b, err := p.Bind(q)
	must(t, err)
	plan, err := p.PlanStandard(b)
	must(t, err)
	// Every Join in the tree must carry a predicate (no bare products).
	algebra.Walk(plan, func(n algebra.Node) {
		if j, ok := n.(*algebra.Join); ok && j.Cond == nil {
			t.Errorf("join tree contains a Cartesian product:\n%s", algebra.Format(plan, nil))
		}
	})
	// And the result matches the well-ordered formulation.
	q2 := parse(t, `
		SELECT U.UserId, SUM(A.Usage)
		FROM UserAccount U, PrinterAuth A, Printer P
		WHERE U.UserId = A.UserId AND U.Machine = A.Machine AND A.PNo = P.PNo
		GROUP BY U.UserId`)
	plan2, err := p.PlanQuery(q2)
	must(t, err)
	if !sameMultiset(runPlan(t, plan, s), runPlan(t, plan2, s)) {
		t.Error("reordered plan disagrees with the well-ordered plan")
	}
}

// TestScalarSubquery: a parenthesized SELECT used as a value materializes
// to a single literal (NULL for empty results; >1 row is an error).
func TestScalarSubquery(t *testing.T) {
	s := example1Store(t)
	p := NewPlanner(s)

	// Employees in the department with the highest DeptID (3).
	q := parse(t, `
		SELECT E.EmpID FROM Employee E
		WHERE E.DeptID = (SELECT MAX(E2.DeptID) FROM Employee E2)`)
	b, err := p.Bind(q)
	must(t, err)
	plan, err := p.PlanStandard(b)
	must(t, err)
	if rows := runPlan(t, plan, s); len(rows) != 1 || rows[0][0].Int() != 6 {
		t.Errorf("scalar subquery result = %v, want [EmpID 6]", rows)
	}

	// Empty scalar subquery → NULL → comparison unknown → no rows.
	q2 := parse(t, `
		SELECT E.EmpID FROM Employee E
		WHERE E.DeptID = (SELECT D.DeptID FROM Department D WHERE D.Name = 'NoSuch')`)
	b2, err := p.Bind(q2)
	must(t, err)
	plan2, err := p.PlanStandard(b2)
	must(t, err)
	if rows := runPlan(t, plan2, s); len(rows) != 0 {
		t.Errorf("NULL scalar comparison returned %v", rows)
	}

	// Multi-row scalar subquery is an error.
	q3 := parse(t, `
		SELECT E.EmpID FROM Employee E
		WHERE E.DeptID = (SELECT D.DeptID FROM Department D)`)
	if _, err := p.Bind(q3); err == nil || !strings.Contains(err.Error(), "at most one") {
		t.Errorf("multi-row scalar subquery error = %v", err)
	}
}

// TestSubqueryErrors: correlated and multi-column subqueries are rejected
// with a useful message.
func TestSubqueryErrors(t *testing.T) {
	s := example1Store(t)
	p := NewPlanner(s)

	// Correlated: the subquery references the outer alias E.
	correlated := parse(t, `
		SELECT E.EmpID FROM Employee E
		WHERE E.DeptID IN (SELECT D.DeptID FROM Department D WHERE D.DeptID = E.DeptID)`)
	if _, err := p.Bind(correlated); err == nil ||
		!strings.Contains(err.Error(), "correlated") {
		t.Errorf("correlated subquery error = %v", err)
	}

	// Multi-column IN subquery.
	wide := parse(t, `
		SELECT E.EmpID FROM Employee E
		WHERE E.DeptID IN (SELECT D.DeptID, D.Name FROM Department D)`)
	if _, err := p.Bind(wide); err == nil ||
		!strings.Contains(err.Error(), "one column") {
		t.Errorf("multi-column subquery error = %v", err)
	}
}

// TestInSubqueryNullSemantics: NOT IN over a list containing NULL is
// unknown for non-matching rows — the materialized list must preserve the
// subquery's NULLs.
func TestInSubqueryNullSemantics(t *testing.T) {
	s := example1Store(t)
	// NULL DeptID exists in Employee (EmpID 7). Subquery of employee
	// DeptIDs includes NULL.
	p := NewPlanner(s)
	q := parse(t, `
		SELECT D.DeptID FROM Department D
		WHERE D.DeptID NOT IN (SELECT E.DeptID FROM Employee E)`)
	b, err := p.Bind(q)
	must(t, err)
	plan, err := p.PlanStandard(b)
	must(t, err)
	// Departments 1,2,3 are IN → false; department 4 is not equal to any
	// non-null entry but compares unknown against the NULL → NOT IN is
	// unknown → row dropped. Result must be empty.
	if rows := runPlan(t, plan, s); len(rows) != 0 {
		t.Errorf("NOT IN with NULL in the list returned %v, want empty", rows)
	}
}

// TestHavingAggregateTransforms: HAVING over aggregates (the paper's
// Section 9 future work) is handled by filtering the transformed plan
// after the join; both plans must agree.
func TestHavingAggregateTransforms(t *testing.T) {
	s := example1Store(t)
	o := NewOptimizer(s)
	q := parse(t, `
		SELECT D.DeptID, D.Name, COUNT(E.EmpID)
		FROM Employee E, Department D
		WHERE E.DeptID = D.DeptID
		GROUP BY D.DeptID, D.Name
		HAVING COUNT(E.EmpID) > 1`)
	r, err := o.Optimize(q)
	must(t, err)
	if !r.Applicable || !r.Decision.OK {
		t.Fatalf("HAVING query not transformable: %s", r.WhyNot)
	}
	if len(r.Shape.HavingAgg) != 1 {
		t.Fatalf("HavingAgg = %v, want one conjunct", r.Shape.HavingAgg)
	}
	rows1 := runPlan(t, r.Standard, s)
	rows2 := runPlan(t, r.Alternative, s)
	if !sameMultiset(rows1, rows2) {
		t.Fatalf("plans disagree:\nstandard:    %v\ntransformed: %v", rows1, rows2)
	}
	// Only departments 1 (count 2) and 2 (count 3) survive.
	if len(rows1) != 2 {
		t.Fatalf("%d groups, want 2: %v", len(rows1), rows1)
	}
}

// TestHavingGroupColumnMigratesToWhere: HAVING conjuncts over grouping
// columns fold into the WHERE decomposition and can even feed TestFD (an
// equality on a grouping column participates in the closure).
func TestHavingGroupColumnMigratesToWhere(t *testing.T) {
	s := example1Store(t)
	o := NewOptimizer(s)
	q := parse(t, `
		SELECT D.DeptID, D.Name, COUNT(E.EmpID)
		FROM Employee E, Department D
		WHERE E.DeptID = D.DeptID
		GROUP BY D.DeptID, D.Name
		HAVING D.Name = 'Eng' AND COUNT(E.EmpID) > 0`)
	b, err := o.Planner().Bind(q)
	must(t, err)
	shape, err := Normalize(b, nil)
	must(t, err)
	// D.Name = 'Eng' lands in C2; the aggregate conjunct stays in
	// HavingAgg.
	foundInC2 := false
	for _, c := range shape.C2 {
		if strings.Contains(c.String(), "Eng") {
			foundInC2 = true
		}
	}
	if !foundInC2 {
		t.Errorf("group-column HAVING conjunct not in C2: %v", shape.C2)
	}
	if len(shape.HavingAgg) != 1 {
		t.Errorf("HavingAgg = %v", shape.HavingAgg)
	}
	dec := TestFD(shape)
	if !dec.OK {
		t.Fatalf("TestFD rejected: %s", dec.Reason)
	}
	p := o.Planner()
	standard, err := p.PlanStandard(b)
	must(t, err)
	transformed, err := p.PlanTransformed(shape)
	must(t, err)
	rows1 := runPlan(t, standard, s)
	rows2 := runPlan(t, transformed, s)
	if !sameMultiset(rows1, rows2) {
		t.Fatalf("plans disagree:\nstandard:    %v\ntransformed: %v", rows1, rows2)
	}
	if len(rows1) != 1 || rows1[0][1].Str() != "Eng" {
		t.Fatalf("result = %v, want the Eng group only", rows1)
	}
}

// TestSubstitutionRescueCountStar: a COUNT(*)-only query has no aggregation
// columns to pin the partition; the Section 9 enumeration must find
// R1 = {E} and transform anyway.
func TestSubstitutionRescueCountStar(t *testing.T) {
	s := example1Store(t)
	o := NewOptimizer(s)
	q := parse(t, `
		SELECT D.DeptID, D.Name, COUNT(*)
		FROM Employee E, Department D
		WHERE E.DeptID = D.DeptID
		GROUP BY D.DeptID, D.Name`)
	r, err := o.Optimize(q)
	must(t, err)
	if !r.Applicable || !r.Decision.OK {
		t.Fatalf("substitution rescue failed: %s", r.WhyNot)
	}
	if r.SubstitutionNote == "" || !strings.Contains(r.SubstitutionNote, "R1 = {E}") {
		t.Errorf("SubstitutionNote = %q", r.SubstitutionNote)
	}
	rows1 := runPlan(t, r.Standard, s)
	rows2 := runPlan(t, r.Alternative, s)
	if !sameMultiset(rows1, rows2) {
		t.Fatalf("plans disagree:\nstandard:    %v\ntransformed: %v", rows1, rows2)
	}
	// COUNT(*) counts join rows per department: 2, 3, 1.
	if len(rows1) != 3 {
		t.Fatalf("%d groups, want 3", len(rows1))
	}
}

// TestSubstitutionRescueAggArg: COUNT(D.DeptID) puts D in R1, making the
// partition untransformable; substituting the equivalent E.DeptID flips the
// partition and TestFD accepts.
func TestSubstitutionRescueAggArg(t *testing.T) {
	s := example1Store(t)
	o := NewOptimizer(s)
	q := parse(t, `
		SELECT D.DeptID, D.Name, COUNT(D.DeptID)
		FROM Employee E, Department D
		WHERE E.DeptID = D.DeptID
		GROUP BY D.DeptID, D.Name`)
	r, err := o.Optimize(q)
	must(t, err)
	if !r.Applicable || !r.Decision.OK {
		t.Fatalf("substitution rescue failed: %s", r.WhyNot)
	}
	if !strings.Contains(r.SubstitutionNote, "D.DeptID -> E.DeptID") {
		t.Errorf("SubstitutionNote = %q, want the column substitution recorded", r.SubstitutionNote)
	}
	rows1 := runPlan(t, r.Standard, s)
	rows2 := runPlan(t, r.Alternative, s)
	if !sameMultiset(rows1, rows2) {
		t.Fatalf("plans disagree after substitution:\nstandard:    %v\ntransformed: %v", rows1, rows2)
	}
	// In the join result D.DeptID and E.DeptID are equal and non-null,
	// so the counts are the plain per-department join counts.
	counts := map[int64]int64{}
	for _, row := range rows1 {
		counts[row[0].Int()] = row[2].Int()
	}
	if counts[1] != 2 || counts[2] != 3 || counts[3] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

// TestSubstitutionDoesNotFireWhenBlocked: aggregation columns with no
// equivalent in any alternative partition stay untransformable.
func TestSubstitutionDoesNotFireWhenBlocked(t *testing.T) {
	s := example1Store(t)
	o := NewOptimizer(s)
	// MIN(D.Name) has no equivalent column in E, and COUNT(E.EmpID) has
	// none in D: no partition works.
	q := parse(t, `
		SELECT E.DeptID, COUNT(E.EmpID), MIN(D.Name)
		FROM Employee E, Department D
		WHERE E.DeptID = D.DeptID
		GROUP BY E.DeptID`)
	r, err := o.Optimize(q)
	must(t, err)
	if r.Applicable {
		t.Fatalf("blocked substitution reported applicable: %s", r.SubstitutionNote)
	}
}

// registerUserInfoView adds the paper's Example 5 aggregated view to the
// printer store's catalog.
func registerUserInfoView(t *testing.T, s *storage.Store) {
	t.Helper()
	const viewSQL = `
		SELECT A.UserId, A.Machine, SUM(A.Usage), MAX(P.Speed), MIN(P.Speed)
		FROM PrinterAuth A, Printer P
		WHERE A.PNo = P.PNo
		GROUP BY A.UserId, A.Machine`
	def, err := sql.ParseQuery(viewSQL)
	must(t, err)
	must(t, s.Catalog().AddView(&schema.View{
		Name:    "UserInfo",
		Text:    viewSQL,
		Def:     def,
		Columns: []string{"UserId", "Machine", "TotUsage", "MaxSpeed", "MinSpeed"},
	}))
}

// reverseOf binds q and runs the Section 8 analysis on it, as Choose does
// for a query over a view.
func reverseOf(o *Optimizer, q *sql.SelectStmt) (*ReverseReport, error) {
	b, err := o.planner.Bind(q)
	if err != nil {
		return nil, err
	}
	return o.reverse(b)
}

// TestExample5ReverseTransformation reproduces the paper's Section 8
// example: a query over the aggregated view UserInfo merges into the flat
// Example 3 query, TestFD validates it, and both evaluations agree.
func TestExample5ReverseTransformation(t *testing.T) {
	s := printerStore(t)
	registerUserInfoView(t, s)
	o := NewOptimizer(s)
	q := parse(t, `
		SELECT U.UserId, U.UserName, I.TotUsage, I.MaxSpeed, I.MinSpeed
		FROM UserInfo I, UserAccount U
		WHERE I.UserId = U.UserId AND I.Machine = U.Machine AND U.Machine = 'dragon'`)
	r, err := reverseOf(o, q)
	must(t, err)
	if !r.Applicable {
		t.Fatalf("reverse not applicable: %s", r.WhyNot)
	}
	if !r.Decision.OK {
		t.Fatalf("TestFD rejected the merged query: %s\n%s", r.Decision.Reason, r.Decision.TraceString())
	}
	if r.Flat == nil || len(r.Flat.GroupBy) != 2 {
		t.Fatalf("flat query shape wrong: %+v", r.Flat)
	}
	nested := runPlan(t, r.Nested, s)
	flat := runPlan(t, r.FlatPlan, s)
	if !sameMultiset(nested, flat) {
		t.Fatalf("nested and flat plans disagree:\nnested: %v\nflat:   %v", nested, flat)
	}
	// Same answer as Example 3: alice and bob on dragon.
	if len(nested) != 2 {
		t.Fatalf("result has %d rows, want 2: %v", len(nested), nested)
	}
}

// TestExample5FlatQueryIsTheMerge pins the flat form gbj-bench's E4 runs to
// the query the optimizer's Section 8 merge builds from Example 5.
func TestExample5FlatQueryIsTheMerge(t *testing.T) {
	store, err := workload.Printers(workload.PrinterParams{Users: 20, Machines: 2, Printers: 4, AuthsPerUser: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.RegisterUserInfoView(store); err != nil {
		t.Fatal(err)
	}
	nested, err := sql.ParseQuery(workload.Example5Query)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := sql.ParseQuery(workload.Example5FlatQuery)
	if err != nil {
		t.Fatal(err)
	}
	r, err := reverseOf(NewOptimizer(store), nested)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Applicable || !r.Decision.OK {
		t.Fatalf("reverse transformation not available: %s", r.WhyNot)
	}
	if got, want := sql.Canonical(flat), sql.Canonical(r.Flat); got != want {
		t.Fatalf("Example5FlatQuery is\n  %s\nthe merge builds\n  %s", got, want)
	}
}

// TestReverseChoicePricesTheCluster: the nested-vs-flat choice of Section 8
// prices the engine the plans run on, cluster size included — on four nodes
// both plans carry the communication term the forward choice has.
func TestReverseChoicePricesTheCluster(t *testing.T) {
	s := printerStore(t)
	registerUserInfoView(t, s)
	o := NewOptimizer(s)
	o.Nodes = 4
	r, err := reverseOf(o, parse(t, `
		SELECT U.UserId, U.UserName, I.TotUsage, I.MaxSpeed, I.MinSpeed
		FROM UserInfo I, UserAccount U
		WHERE I.UserId = U.UserId AND I.Machine = U.Machine AND U.Machine = 'dragon'`))
	must(t, err)
	if !r.Applicable || !r.Decision.OK {
		t.Fatalf("reverse not applicable: %s", r.WhyNot)
	}
	if r.NestedCost.CommBytes <= 0 || r.FlatCost.CommBytes <= 0 {
		t.Fatalf("a 4-node choice priced no communication: nested %.0f bytes, flat %.0f bytes",
			r.NestedCost.CommBytes, r.FlatCost.CommBytes)
	}
}

// TestReverseNotApplicable covers the Section 8 guards.
func TestReverseNotApplicable(t *testing.T) {
	s := printerStore(t)
	registerUserInfoView(t, s)
	o := NewOptimizer(s)
	cases := []struct {
		name string
		q    string
	}{
		{"no view", `SELECT U.UserId FROM UserAccount U WHERE U.Machine = 'dragon'`},
		{"outer aggregates", `SELECT COUNT(*) FROM UserInfo I, UserAccount U
			WHERE I.UserId = U.UserId AND I.Machine = U.Machine`},
		{"aggregate column in WHERE", `SELECT U.UserId FROM UserInfo I, UserAccount U
			WHERE I.UserId = U.UserId AND I.Machine = U.Machine AND I.TotUsage > 10`},
	}
	for _, c := range cases {
		r, err := reverseOf(o, parse(t, c.q))
		must(t, err)
		if r.Applicable {
			t.Errorf("%s: reported applicable", c.name)
		}
		// The nested plan must still execute.
		_ = runPlan(t, r.Nested, s)
	}
}

// TestDerivedTableInFrom: a FROM-subquery plans and executes like an inline
// view, and an AGGREGATED derived table gets the Section 8 reverse analysis.
func TestDerivedTableInFrom(t *testing.T) {
	s := printerStore(t)
	o := NewOptimizer(s)

	// Plain derived table.
	q := parse(t, `
		SELECT X.UserId, X.UserName
		FROM (SELECT U.UserId, U.UserName FROM UserAccount U WHERE U.Machine = 'dragon') X`)
	plan, err := o.Planner().PlanQuery(q)
	must(t, err)
	if n := len(runPlan(t, plan, s)); n != 2 {
		t.Fatalf("derived table returned %d rows, want 2", n)
	}

	// Aggregated derived table joined with a base table: the exact
	// Example 5 shape, inline.
	q2 := parse(t, `
		SELECT U.UserId, U.UserName, I.TotUsage
		FROM (SELECT A.UserId AS UserId, A.Machine AS Machine, SUM(A.Usage) AS TotUsage
		      FROM PrinterAuth A, Printer P
		      WHERE A.PNo = P.PNo
		      GROUP BY A.UserId, A.Machine) I,
		     UserAccount U
		WHERE I.UserId = U.UserId AND I.Machine = U.Machine AND U.Machine = 'dragon'`)
	rr, err := reverseOf(o, q2)
	must(t, err)
	if !rr.Applicable || !rr.Decision.OK {
		t.Fatalf("reverse analysis on derived table failed: %s", rr.WhyNot)
	}
	nested := runPlan(t, rr.Nested, s)
	flat := runPlan(t, rr.FlatPlan, s)
	if !sameMultiset(nested, flat) {
		t.Fatal("nested and flat plans disagree on the derived table")
	}
	if len(nested) != 2 {
		t.Fatalf("result has %d rows, want 2", len(nested))
	}
}

// TestForwardTransformOverDerivedR1: the outer GROUP BY pushes below a join
// whose R1 side is itself an aggregated derived table (two-level
// aggregation). The derived table contributes the aggregation column, and
// the equality closure plus R2's key prove the FDs as usual.
func TestForwardTransformOverDerivedR1(t *testing.T) {
	s := printerStore(t)
	o := NewOptimizer(s)
	q := parse(t, `
		SELECT U.UserId, U.Machine, U.UserName, SUM(I.Tot)
		FROM (SELECT A.UserId AS UserId, A.Machine AS Machine, SUM(A.Usage) AS Tot
		      FROM PrinterAuth A GROUP BY A.UserId, A.Machine) I,
		     UserAccount U
		WHERE I.UserId = U.UserId AND I.Machine = U.Machine
		GROUP BY U.UserId, U.Machine, U.UserName`)
	r, err := o.Optimize(q)
	must(t, err)
	if !r.Applicable || !r.Decision.OK {
		t.Fatalf("derived-R1 query not transformable: %s\n%s", r.WhyNot, r.Decision.TraceString())
	}
	rows1 := runPlan(t, r.Standard, s)
	rows2 := runPlan(t, r.Alternative, s)
	if !sameMultiset(rows1, rows2) {
		t.Fatalf("plans disagree:\nstandard:    %v\ntransformed: %v", rows1, rows2)
	}
}

// TestForwardTransformOverDerivedR2: FD2's "key of R2" is a DERIVED key —
// the grouping columns of an aggregated derived table (Example 2's derived
// key dependency, null-safe under =ⁿ).
func TestForwardTransformOverDerivedR2(t *testing.T) {
	s := printerStore(t)
	o := NewOptimizer(s)
	// R2 = per-(UserId, Machine) aggregate; its GROUP BY columns are its
	// key. Group the outer query by them and aggregate PrinterAuth rows.
	q := parse(t, `
		SELECT I.UserId, I.Machine, I.Tot, COUNT(A.PNo)
		FROM PrinterAuth A,
		     (SELECT A2.UserId AS UserId, A2.Machine AS Machine, SUM(A2.Usage) AS Tot
		      FROM PrinterAuth A2 GROUP BY A2.UserId, A2.Machine) I
		WHERE A.UserId = I.UserId AND A.Machine = I.Machine
		GROUP BY I.UserId, I.Machine, I.Tot`)
	b, err := o.Planner().Bind(q)
	must(t, err)
	shape, err := Normalize(b, nil)
	must(t, err)
	if strings.Join(shape.R2, ",") != "I" {
		t.Fatalf("R2 = %v, want [I]", shape.R2)
	}
	dec := TestFD(shape)
	if !dec.OK {
		t.Fatalf("TestFD rejected the derived-key case: %s\n%s", dec.Reason, dec.TraceString())
	}
	if !strings.Contains(dec.TraceString(), "GROUP BY key") {
		t.Errorf("trace does not credit the derived GROUP BY key:\n%s", dec.TraceString())
	}
	standard, err := o.Planner().PlanStandard(b)
	must(t, err)
	transformed, err := o.Planner().PlanTransformed(shape)
	must(t, err)
	if !sameMultiset(runPlan(t, standard, s), runPlan(t, transformed, s)) {
		t.Fatal("plans disagree")
	}
}

// TestDerivedKeyInheritedFromBaseTable: a simple selection/projection
// derived table inherits its base table's keys (Example 2: "PartNo remains
// a key of the joined table").
func TestDerivedKeyInheritedFromBaseTable(t *testing.T) {
	s := example1Store(t)
	o := NewOptimizer(s)
	q := parse(t, `
		SELECT D2.DeptID, D2.Name, COUNT(E.EmpID)
		FROM Employee E,
		     (SELECT D.DeptID AS DeptID, D.Name AS Name FROM Department D WHERE D.DeptID > 0) D2
		WHERE E.DeptID = D2.DeptID
		GROUP BY D2.DeptID, D2.Name`)
	r, err := o.Optimize(q)
	must(t, err)
	if !r.Applicable || !r.Decision.OK {
		t.Fatalf("inherited-key case not transformable: %s\n%s", r.WhyNot, r.Decision.TraceString())
	}
	if !strings.Contains(r.Decision.TraceString(), "inherited") {
		t.Errorf("trace does not credit the inherited key:\n%s", r.Decision.TraceString())
	}
	rows1 := runPlan(t, r.Standard, s)
	rows2 := runPlan(t, r.Alternative, s)
	if !sameMultiset(rows1, rows2) {
		t.Fatal("plans disagree")
	}
}

// TestViewExpansionInStandardPlanner: a view in FROM plans and executes as
// its definition (materialization semantics).
func TestViewExpansionInStandardPlanner(t *testing.T) {
	s := printerStore(t)
	registerUserInfoView(t, s)
	p := NewPlanner(s)
	plan, err := p.PlanQuery(parse(t, `SELECT I.UserId, I.TotUsage FROM UserInfo I`))
	must(t, err)
	rows := runPlan(t, plan, s)
	// Groups: (1,dragon), (2,dragon), (3,tiger), (1,tiger).
	if len(rows) != 4 {
		t.Fatalf("view produced %d rows, want 4: %v", len(rows), rows)
	}
}

// TestCostModelPrefersTransformOnExample1: with 10000 employees over 100
// departments (the paper's Figure 1 cardinalities), the cost model must
// prefer the transformed plan.
func TestCostModelPrefersTransformOnExample1(t *testing.T) {
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
			{Name: "LastName", Type: value.KindString},
			{Name: "FirstName", Type: value.KindString},
			{Name: "DeptID", Type: value.KindInt},
		},
		Keys: []schema.Key{{Columns: []string{"EmpID"}, Primary: true}},
	}))
	for i := 0; i < 100; i++ {
		s.MustInsert("Department", value.Row{value.NewInt(int64(i)), value.NewString("D")})
	}
	for i := 0; i < 10000; i++ {
		s.MustInsert("Employee", value.Row{
			value.NewInt(int64(i)), value.NewString("L"), value.NewString("F"),
			value.NewInt(int64(i % 100)),
		})
	}
	o := NewOptimizer(s)
	r, err := o.Optimize(parse(t, example1SQL))
	must(t, err)
	if !r.Transformed {
		t.Fatalf("cost model did not choose the transformed plan: %s\nstandard=%.0f transformed=%.0f",
			r.WhyNot, r.StandardCost.Total, r.TransformedCost.Total)
	}
}
