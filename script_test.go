package gbj

import (
	"context"
	"strings"
	"testing"
)

func TestRunScript(t *testing.T) {
	e := New()
	var out strings.Builder
	err := e.RunScriptContext(context.Background(), `
		CREATE TABLE T (a INTEGER PRIMARY KEY, b CHARACTER(10));
		INSERT INTO T VALUES (1, 'x'), (2, 'y');
		SELECT a, b FROM T ORDER BY a;
	`, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "x") || !strings.Contains(s, "(2 rows)") {
		t.Errorf("script output wrong:\n%s", s)
	}
}

func TestRunScriptExplain(t *testing.T) {
	e := newExample1Engine(t)
	var out strings.Builder
	err := e.RunScriptContext(context.Background(), `EXPLAIN `+example1Query+`;`, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "TestFD") {
		t.Errorf("EXPLAIN output missing TestFD:\n%s", out.String())
	}
}

func TestRunScriptErrors(t *testing.T) {
	e := New()
	var out strings.Builder
	if err := e.RunScriptContext(context.Background(), `SELECT a FROM NoSuch;`, &out); err == nil {
		t.Error("script over unknown table succeeded")
	}
	if err := e.RunScriptContext(context.Background(), `NOT SQL AT ALL`, &out); err == nil {
		t.Error("garbage script succeeded")
	}
	// Error stops execution: the table from the first statement exists,
	// the second fails, the third never runs.
	err := e.RunScriptContext(context.Background(), `
		CREATE TABLE U (a INTEGER);
		INSERT INTO U VALUES ('not an int');
		INSERT INTO U VALUES (1);
	`, &out)
	if err == nil {
		t.Fatal("type error not surfaced")
	}
	res, qerr := e.QueryOptionsContext(context.Background(), `SELECT U.a FROM U`, nil)
	if qerr != nil {
		t.Fatal(qerr)
	}
	if len(res.Rows) != 0 {
		t.Errorf("statements after an error ran: %v", res.Rows)
	}
}

func TestListObjects(t *testing.T) {
	e := New()
	lines := e.ListObjects()
	if len(lines) != 1 || lines[0] != "(no tables)" {
		t.Errorf("empty catalog listing = %v", lines)
	}
	e.MustExec(`
		CREATE TABLE T (a INTEGER);
		INSERT INTO T VALUES (1), (2);
		CREATE VIEW V AS SELECT T.a FROM T`)
	lines = e.ListObjects()
	if len(lines) != 2 {
		t.Fatalf("listing = %v", lines)
	}
	if !strings.Contains(lines[0], "table T") || !strings.Contains(lines[0], "2 rows") {
		t.Errorf("table line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "view  V") {
		t.Errorf("view line = %q", lines[1])
	}
}

// TestEngineSubstitutionEndToEnd: the Section 9 rescue is reachable through
// the public API (COUNT(*) query transforms transparently).
func TestEngineSubstitutionEndToEnd(t *testing.T) {
	e := newExample1Engine(t)
	q := `
		SELECT D.DeptID, COUNT(*)
		FROM Employee E, Department D
		WHERE E.DeptID = D.DeptID
		GROUP BY D.DeptID`
	text, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "Section 9 substitution") {
		t.Errorf("Explain missing substitution note:\n%s", text)
	}
	reconfigure(t, e, func(c *Config) { c.Mode = ModeAlways })
	res, err := e.QueryOptionsContext(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	reconfigure(t, e, func(c *Config) { c.Mode = ModeNever })
	res2, err := e.QueryOptionsContext(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(res2.Rows) {
		t.Errorf("transformed %d rows vs standard %d rows", len(res.Rows), len(res2.Rows))
	}
}
