package gbj

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/value"
)

// newExample1Engine builds the paper's Example 1 database via the SQL API.
func newExample1Engine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	if err := e.Exec(`
		CREATE TABLE Department (
			DeptID INTEGER PRIMARY KEY,
			Name CHARACTER(30));
		CREATE TABLE Employee (
			EmpID INTEGER PRIMARY KEY,
			LastName CHARACTER(30),
			FirstName CHARACTER(30),
			DeptID INTEGER,
			FOREIGN KEY (DeptID) REFERENCES Department);
		INSERT INTO Department VALUES (1, 'Sales'), (2, 'Eng'), (3, 'Ops');
		INSERT INTO Employee VALUES
			(1, 'Yan', 'W', 1), (2, 'Larson', 'P', 1),
			(3, 'A', 'A', 2), (4, 'B', 'B', 2), (5, 'C', 'C', 2),
			(6, 'D', 'D', 3);
		INSERT INTO Employee (EmpID, LastName, FirstName) VALUES (7, 'E', 'E')`); err != nil {
		t.Fatal(err)
	}
	return e
}

const example1Query = `
	SELECT D.DeptID, D.Name, COUNT(E.EmpID)
	FROM Employee E, Department D
	WHERE E.DeptID = D.DeptID
	GROUP BY D.DeptID, D.Name`

func TestEngineExample1(t *testing.T) {
	e := newExample1Engine(t)
	for _, mode := range []Mode{ModeCost, ModeAlways, ModeNever} {
		e.SetMode(mode)
		res, err := e.Query(example1Query)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if len(res.Rows) != 3 {
			t.Fatalf("mode %v: %d rows, want 3\n%s", mode, len(res.Rows), res)
		}
		counts := map[int64]int64{}
		for _, row := range res.Rows {
			counts[row[0].(int64)] = row[2].(int64)
		}
		if counts[1] != 2 || counts[2] != 3 || counts[3] != 1 {
			t.Errorf("mode %v: counts = %v", mode, counts)
		}
	}
	if e.Mode() != ModeNever {
		t.Errorf("Mode() = %v after SetMode(ModeNever)", e.Mode())
	}
}

// TestEngineRefusesUnprovenRewrite: every plan the engine runs is verified
// when it is chosen. With the optimizer forced to push the group-by past a
// join TestFD rejects — R2 has no key, so the R1 row joins two R2 rows, which
// the lazy plan sums twice and the eager plan would not — the query fails
// with the certifier's error instead of returning the eager plan's rows, on
// one site and on a cluster.
func TestEngineRefusesUnprovenRewrite(t *testing.T) {
	core.TestHooks.ForceTransform = true
	defer func() { core.TestHooks.ForceTransform = false }()
	e := New()
	e.MustExec(`
		CREATE TABLE R1 (a INTEGER, c INTEGER);
		CREATE TABLE R2 (d INTEGER, e INTEGER);
		INSERT INTO R1 VALUES (1, 10);
		INSERT INTO R2 VALUES (1, 1), (1, 2)`)
	e.SetMode(ModeAlways)
	for _, nodes := range []int{1, 2} {
		if err := e.SetNodes(nodes); err != nil {
			t.Fatal(err)
		}
		res, err := e.Query(`SELECT R1.a, SUM(R1.c) FROM R1, R2 WHERE R1.a = R2.d GROUP BY R1.a`)
		if err == nil {
			t.Fatalf("nodes=%d: the unproven rewrite ran and returned %v", nodes, res.Rows)
		}
		if !strings.Contains(err.Error(), "cert-derive") {
			t.Fatalf("nodes=%d: want the certifier's verification error, got: %v", nodes, err)
		}
	}
}

func TestEngineExplainForward(t *testing.T) {
	e := newExample1Engine(t)
	text, err := e.Explain(example1Query)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Standard plan", "TestFD", "answer: YES", "Transformed plan", "GroupBy",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Explain missing %q:\n%s", want, text)
		}
	}
	// EXPLAIN prefix accepted too.
	if _, err := e.Explain("EXPLAIN " + example1Query); err != nil {
		t.Errorf("EXPLAIN prefix rejected: %v", err)
	}
}

func TestEngineParams(t *testing.T) {
	e := newExample1Engine(t)
	res, err := e.QueryParams(`
		SELECT E.EmpID FROM Employee E WHERE E.DeptID = :dept`,
		map[string]any{"dept": 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("parameterized query returned %d rows, want 3", len(res.Rows))
	}
	// All supported parameter kinds.
	_, err = e.QueryParams(`SELECT E.EmpID FROM Employee E WHERE E.LastName = :s`,
		map[string]any{"s": "Yan"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryParams(`SELECT E.EmpID FROM Employee E WHERE E.DeptID = :x`,
		map[string]any{"x": []int{1}}); err == nil {
		t.Error("unsupported parameter type accepted")
	}
}

func TestEngineViewsAndReverse(t *testing.T) {
	e := New()
	e.MustExec(`
		CREATE TABLE UserAccount (
			UserId INTEGER, Machine CHARACTER(20), UserName CHARACTER(30),
			PRIMARY KEY (UserId, Machine));
		CREATE TABLE Printer (
			PNo INTEGER PRIMARY KEY, Speed INTEGER, Make CHARACTER(20));
		CREATE TABLE PrinterAuth (
			UserId INTEGER, Machine CHARACTER(20), PNo INTEGER, Usage INTEGER,
			PRIMARY KEY (UserId, Machine, PNo));
		INSERT INTO UserAccount VALUES
			(1, 'dragon', 'alice'), (2, 'dragon', 'bob'), (3, 'tiger', 'carol');
		INSERT INTO Printer VALUES (1, 10, 'ACME'), (2, 20, 'ACME'), (3, 5, 'ACME');
		INSERT INTO PrinterAuth VALUES
			(1, 'dragon', 1, 100), (1, 'dragon', 2, 50),
			(2, 'dragon', 3, 75), (3, 'tiger', 1, 10);
		CREATE VIEW UserInfo (UserId, Machine, TotUsage, MaxSpeed, MinSpeed) AS
			SELECT A.UserId, A.Machine, SUM(A.Usage), MAX(P.Speed), MIN(P.Speed)
			FROM PrinterAuth A, Printer P
			WHERE A.PNo = P.PNo
			GROUP BY A.UserId, A.Machine`)

	const q = `
		SELECT U.UserId, U.UserName, I.TotUsage, I.MaxSpeed, I.MinSpeed
		FROM UserInfo I, UserAccount U
		WHERE I.UserId = U.UserId AND I.Machine = U.Machine AND U.Machine = 'dragon'`
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows, want 2\n%s", len(res.Rows), res)
	}
	for _, row := range res.Rows {
		switch row[1].(string) {
		case "alice":
			if row[2].(int64) != 150 || row[3].(int64) != 20 || row[4].(int64) != 10 {
				t.Errorf("alice row wrong: %v", row)
			}
		case "bob":
			if row[2].(int64) != 75 {
				t.Errorf("bob row wrong: %v", row)
			}
		default:
			t.Errorf("unexpected user %v", row[1])
		}
	}

	text, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Nested plan", "Section 8", "Flat plan"} {
		if !strings.Contains(text, want) {
			t.Errorf("reverse Explain missing %q:\n%s", want, text)
		}
	}

	// ModeNever skips the reverse analysis too (pure materialization).
	e.SetMode(ModeNever)
	res2, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 2 {
		t.Errorf("ModeNever result has %d rows", len(res2.Rows))
	}
}

func TestEngineDDLAndConstraints(t *testing.T) {
	e := New()
	// Figure 5's domain + constraints.
	e.MustExec(`CREATE DOMAIN DepIdType SMALLINT CHECK VALUE > 0 AND VALUE < 100`)
	e.MustExec(`
		CREATE TABLE Emp (
			EmpID INTEGER CHECK (EmpID > 0),
			EmpSID INTEGER UNIQUE,
			LastName CHARACTER(30) NOT NULL,
			DeptID DepIdType,
			PRIMARY KEY (EmpID))`)
	if err := e.Exec(`INSERT INTO Emp VALUES (1, 10, 'Yan', 5)`); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		stmt string
	}{
		{"check violation", `INSERT INTO Emp VALUES (-1, 11, 'X', 5)`},
		{"domain violation", `INSERT INTO Emp VALUES (2, 12, 'X', 500)`},
		{"not null violation", `INSERT INTO Emp VALUES (3, 13, NULL, 5)`},
		{"pk violation", `INSERT INTO Emp VALUES (1, 14, 'X', 5)`},
		{"unique violation", `INSERT INTO Emp VALUES (4, 10, 'X', 5)`},
	}
	for _, c := range cases {
		if err := e.Exec(c.stmt); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// NULL candidate keys coexist.
	if err := e.Exec(`INSERT INTO Emp (EmpID, LastName) VALUES (5, 'A'), (6, 'B')`); err != nil {
		t.Errorf("NULL candidate keys rejected: %v", err)
	}
}

func TestEngineErrors(t *testing.T) {
	e := New()
	if err := e.Exec(`SELECT 1 FROM T`); err == nil {
		t.Error("Exec accepted a SELECT")
	}
	if err := e.Exec(`CREATE TABLE T (a INTEGER`); err == nil {
		t.Error("Exec accepted a syntax error")
	}
	if _, err := e.Query(`INSERT INTO T VALUES (1)`); err == nil {
		t.Error("Query accepted an INSERT")
	}
	if err := e.Exec(`INSERT INTO NoSuch VALUES (1)`); err == nil {
		t.Error("insert into unknown table accepted")
	}
	e.MustExec(`CREATE TABLE T (a INTEGER)`)
	if err := e.Exec(`INSERT INTO T (bogus) VALUES (1)`); err == nil {
		t.Error("insert into unknown column accepted")
	}
	if err := e.Exec(`INSERT INTO T (a) VALUES (1, 2)`); err == nil {
		t.Error("mismatched VALUES width accepted")
	}
	if err := e.Exec(`CREATE VIEW V AS SELECT X.a FROM NoSuch X`); err == nil {
		t.Error("invalid view definition accepted")
	}
}

func TestResultString(t *testing.T) {
	e := newExample1Engine(t)
	res, err := e.Query(`SELECT D.DeptID, D.Name FROM Department D ORDER BY DeptID`)
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if !strings.Contains(s, "DeptID") || !strings.Contains(s, "Sales") {
		t.Errorf("Result.String() = %q", s)
	}
}

// TestQueryRowsIsQueryUnboxed: QueryRowsContext returns the rows Query
// boxes, and an empty result keeps Result.Rows nil.
func TestQueryRowsIsQueryUnboxed(t *testing.T) {
	e := newExample1Engine(t)
	ctx := context.Background()
	for _, q := range []string{example1Query, `SELECT D.DeptID, D.Name FROM Department D WHERE D.DeptID > 99`} {
		boxed, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		typed, err := e.QueryRowsContext(ctx, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		again := convertResult(&exec.Result{Rows: typed.Rows})
		if !reflect.DeepEqual(typed.Columns, boxed.Columns) || !reflect.DeepEqual(again.Rows, boxed.Rows) {
			t.Errorf("%s:\ntyped %v %v\nboxed %v %v", q, typed.Columns, typed.Rows, boxed.Columns, boxed.Rows)
		}
		if len(boxed.Rows) == 0 && boxed.Rows != nil {
			t.Errorf("%s: empty result has non-nil Rows", q)
		}
	}
	if _, err := e.QueryRowsContext(ctx, `SELEC nonsense`, nil); err == nil {
		t.Error("parse error not reported")
	}
}

// TestConvertResultAllocatesPerResult: boxing a result costs the same
// number of allocations at ten rows and at a thousand — the cells share one
// slab. (Cells that need a box of their own — strings, integers past a
// byte — are left out of the rows.)
func TestConvertResultAllocatesPerResult(t *testing.T) {
	allocs := func(n int) float64 {
		res := &exec.Result{Rows: make([]value.Row, n)}
		for i := range res.Rows {
			res.Rows[i] = value.Row{value.NewInt(int64(i % 200)), value.NewBool(i%2 == 0), value.Null}
		}
		return testing.AllocsPerRun(10, func() { convertResult(res) })
	}
	if small, large := allocs(10), allocs(1000); small != large || large > 3 {
		t.Errorf("convertResult: %v allocations for 10 rows, %v for 1000; want the same, at most 3", small, large)
	}
}

// BenchmarkConvertResult is the boxing layer alone, at the shape of
// serve_wide's widest result (24 000 rows of int, string, int).
func BenchmarkConvertResult(b *testing.B) {
	res := &exec.Result{Rows: make([]value.Row, 24000)}
	for i := range res.Rows {
		res.Rows[i] = value.Row{value.NewInt(int64(1000 + i)), value.NewString(fmt.Sprintf("label-%04d", i%997)), value.NewInt(int64(i % 50))}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := convertResult(res); len(out.Rows) != len(res.Rows) {
			b.Fatal("rows lost")
		}
	}
}

// TestOrderByOnGroupColumns: ORDER BY on the grouping columns picks
// sort-based grouping (the final sort is elided) and the output is still
// correctly ordered.
func TestOrderByOnGroupColumns(t *testing.T) {
	e := newExample1Engine(t)
	res, err := e.Query(`
		SELECT E.DeptID, COUNT(*) AS n
		FROM Employee E, Department D
		WHERE E.DeptID = D.DeptID
		GROUP BY E.DeptID
		ORDER BY DeptID`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][0].(int64) > res.Rows[i][0].(int64) {
			t.Fatalf("output not ordered: %v", res.Rows)
		}
	}
	// The heuristic itself: ascending prefix → sort grouping; DESC or
	// non-group keys → hash.
	q, err := e.Explain(`
		SELECT E.DeptID, COUNT(*) FROM Employee E, Department D
		WHERE E.DeptID = D.DeptID GROUP BY E.DeptID ORDER BY DeptID`)
	if err != nil || q == "" {
		t.Fatal(err)
	}
}

// TestConcurrentQueries: the engine serves parallel queries while DDL/DML
// runs; meaningful under -race.
func TestConcurrentQueries(t *testing.T) {
	e := newExample1Engine(t)
	done := make(chan error, 8)
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 20; i++ {
				res, err := e.Query(example1Query)
				if err != nil {
					done <- err
					return
				}
				if len(res.Rows) != 3 {
					done <- errRows(len(res.Rows))
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 2; g++ {
		id := 1000 + g*100
		go func(base int) {
			for i := 0; i < 10; i++ {
				stmt := fmt.Sprintf(
					"INSERT INTO Employee (EmpID, LastName, FirstName) VALUES (%d, 'X', 'Y')",
					base+i)
				if err := e.Exec(stmt); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(id)
	}
	for i := 0; i < 6; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type errRows int

func (e errRows) Error() string { return "unexpected row count" }

func TestMustExecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustExec must panic on error")
		}
	}()
	New().MustExec(`BOGUS`)
}

// TestExplainPrefixSpellings: EXPLAIN is a keyword like any other — any
// case, and only as a word of its own — on both surfaces that accept it.
func TestExplainPrefixSpellings(t *testing.T) {
	e := newExample1Engine(t)
	const sel = `SELECT D.DeptID FROM Department D`
	for _, tc := range []struct {
		text string
		ok   bool
	}{
		{sel, true},
		{"EXPLAIN " + sel, true},
		{"explain " + sel, true},
		{"  Explain\n" + sel, true},
		{"EXPLAIN" + sel, false}, // glued: EXPLAINSELECT is an identifier
		{"EXPLAIN EXPLAIN " + sel, false},
		{"EXPLAIN INSERT INTO Department VALUES (9, 'X')", false},
	} {
		a, err := e.QueryAnalyzed(tc.text)
		if (err == nil) != tc.ok {
			t.Errorf("QueryAnalyzed(%q): err = %v, want ok=%t", tc.text, err, tc.ok)
		}
		if err == nil && len(a.Result.Rows) != 3 {
			t.Errorf("QueryAnalyzed(%q) returned %d rows, want 3", tc.text, len(a.Result.Rows))
		}
		if _, err := e.Explain(tc.text); (err == nil) != tc.ok {
			t.Errorf("Explain(%q): err = %v, want ok=%t", tc.text, err, tc.ok)
		}
	}
}
