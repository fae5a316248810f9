package gbj

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// The golden tests lock down the byte-exact output of EXPLAIN ANALYZE: the
// plan tree with actual row counts, the cost model's estimates and per-node
// q-errors, and the calibration summary. Timings are deterministic because
// the engine runs under an injected obs.FakeClock (every clock read advances
// a virtual instant by exactly one millisecond) and executes serially, so a
// run on any host produces the same bytes.
//
// Regenerate with:
//
//	go test . -run TestExplainAnalyzeGolden -update

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files")

// analyzeGolden renders query's analysis under a fake clock, as EXPLAIN
// ANALYZE displays it, and compares it byte-for-byte against
// testdata/<name>.golden.
func analyzeGolden(t *testing.T, e *Engine, name, query string) {
	t.Helper()
	reconfigure(t, e, func(c *Config) { c.Clock = obs.NewFakeClock(time.Unix(0, 0), time.Millisecond) })
	a, err := e.QueryAnalyzedContext(context.Background(), query, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, name, []byte(a.String()))
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test . -run %s -update` to create it)", err, t.Name())
	}
	if string(got) != string(want) {
		t.Errorf("output differs from %s (rerun with -update after verifying):\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}

// TestExplainAnalyzeGoldenEager pins the analyze output of the paper's
// Example 1 with the group-by pushed below the join (Figure 1, Plan 2).
func TestExplainAnalyzeGoldenEager(t *testing.T) {
	e := newExample1Engine(t)
	reconfigure(t, e, func(c *Config) { c.Mode = ModeAlways })
	analyzeGolden(t, e, "analyze_eager", example1Query)
}

// TestExplainAnalyzeGoldenLazy pins the standard plan for the same query
// (Figure 1, Plan 1): join first, group once at the top.
func TestExplainAnalyzeGoldenLazy(t *testing.T) {
	e := newExample1Engine(t)
	reconfigure(t, e, func(c *Config) { c.Mode = ModeNever })
	analyzeGolden(t, e, "analyze_lazy", example1Query)
}

// TestExplainAnalyzeGoldenEagerVectorized pins the analyze output of the
// eager plan executed by the columnar engine: identical rows, estimates and
// q-errors to the row run, plus per-operator batch counters (morsels=N) the
// row path's serial run never shows.
func TestExplainAnalyzeGoldenEagerVectorized(t *testing.T) {
	e := newExample1Engine(t)
	reconfigure(t, e, func(c *Config) {
		c.Mode = ModeAlways
		c.Vectorize = true
	})
	analyzeGolden(t, e, "analyze_eager_vectorized", example1Query)
}

// TestExplainAnalyzeGoldenThreeTable pins a three-table plan: the paper's
// Example 3 printer query, where TestFD pushes the group-by below both
// joins.
func TestExplainAnalyzeGoldenThreeTable(t *testing.T) {
	e := newPrinterEngine(t)
	analyzeGolden(t, e, "analyze_three_table", printerQuery)
}

// TestExplainAnalyzeGoldenTrace pins the hierarchical span trace of the
// eager plan's execution: span structure mirrors the plan tree, and the
// fake clock makes every begin/end timestamp reproducible.
func TestExplainAnalyzeGoldenTrace(t *testing.T) {
	e := newExample1Engine(t)
	reconfigure(t, e, func(c *Config) {
		c.Mode = ModeAlways
		c.Clock = obs.NewFakeClock(time.Unix(0, 0), time.Millisecond)
	})
	a, err := e.QueryAnalyzedContext(context.Background(), example1Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "analyze_trace", a.TraceJSON)
}

// TestExplainAnalyzeKeylessJoin: a join without an equi-key runs as the hash
// join over the empty key, so EXPLAIN ANALYZE reports its build — every
// Department row, under the one key — and its probe hits on the join's line,
// as it does for an equi-join.
func TestExplainAnalyzeKeylessJoin(t *testing.T) {
	e := newExample1Engine(t)
	a, err := e.QueryAnalyzedContext(context.Background(),
		`SELECT E.EmpID, D.DeptID FROM Employee E, Department D WHERE E.DeptID < D.DeptID`, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(a.String(), "\n") {
		if strings.Contains(line, "Join ") {
			if !strings.Contains(line, "build=3 ") || !strings.Contains(line, "hits=") {
				t.Fatalf("the join's line reports no build=3 and hits=:\n%s", a)
			}
			return
		}
	}
	t.Fatalf("no join line:\n%s", a)
}

// newPrinterEngine builds the paper's Example 3 database (Section 6.3): user
// accounts, printers, and a printer-authorization fact table.
func newPrinterEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	if err := e.Exec(`
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
			(2, 'dragon', 3, 75), (3, 'tiger', 1, 10)`); err != nil {
		t.Fatal(err)
	}
	return e
}

const printerQuery = `
	SELECT U.UserId, U.UserName, SUM(A.Usage), MAX(P.Speed)
	FROM PrinterAuth A, Printer P, UserAccount U
	WHERE A.PNo = P.PNo AND A.UserId = U.UserId AND A.Machine = U.Machine
	GROUP BY U.UserId, U.UserName`
