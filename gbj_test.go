package gbj

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/value"
	"repro/internal/workload"
)

// newExample1Engine builds the paper's Example 1 database via the SQL API.
func newExample1Engine(t testing.TB) *Engine {
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
		res, err := e.QueryOptionsContext(context.Background(), example1Query, nil)
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
		res, err := e.QueryOptionsContext(context.Background(), `SELECT R1.a, SUM(R1.c) FROM R1, R2 WHERE R1.a = R2.d GROUP BY R1.a`, nil)
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
	explainIsWhatRuns(t, e, example1Query)
}

// explainIsWhatRuns checks, under each optimizer mode, that the plan EXPLAIN
// marks as chosen is the plan QueryAnalyzedContext runs. It leaves the
// engine in ModeCost.
func explainIsWhatRuns(t *testing.T, e *Engine, q string) {
	t.Helper()
	defer e.SetMode(ModeCost)
	for _, mode := range []Mode{ModeCost, ModeAlways, ModeNever} {
		e.SetMode(mode)
		text, err := e.Explain(q)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		a, err := e.QueryAnalyzedContext(context.Background(), q, nil)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		shown, ran := explainedPlan(text), algebra.Format(a.Plan, nil)
		if shown != ran {
			t.Errorf("mode %v: EXPLAIN chose\n%sbut the query ran\n%sEXPLAIN:\n%s", mode, shown, ran, text)
		}
	}
}

// explainedPlan returns the plan an EXPLAIN text marks as chosen, without
// its estimates: the plan its "chosen:" line names, else its first plan —
// the standard or nested plan, when no alternative was proven.
func explainedPlan(text string) string {
	plans := map[string]string{}
	var chosen, cur string
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "=== ") && strings.Contains(line, " plan "):
			cur = strings.ToLower(strings.Fields(line)[1])
			if chosen == "" {
				chosen = cur
			}
		case strings.HasPrefix(line, "estimated cost:"):
			cur = ""
		case cur != "":
			line, _, _ = strings.Cut(line, "  -- ")
			plans[cur] += line + "\n"
		case strings.HasPrefix(line, "chosen: "):
			chosen = strings.Fields(line)[1]
		}
	}
	return plans[chosen]
}

func TestEngineParams(t *testing.T) {
	e := newExample1Engine(t)
	res, err := e.QueryOptionsContext(context.Background(), `
		SELECT E.EmpID FROM Employee E WHERE E.DeptID = :dept`,
		&QueryOptions{Params: map[string]any{"dept": 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("parameterized query returned %d rows, want 3", len(res.Rows))
	}
	// The analyzed run binds the same parameters.
	a, err := e.QueryAnalyzedContext(context.Background(), `
		SELECT E.EmpID FROM Employee E WHERE E.DeptID = :dept`,
		&QueryOptions{Params: map[string]any{"dept": 2}})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Result.Rows) != fmt.Sprint(res.Rows) {
		t.Fatalf("analyzed parameterized query returned %v, want %v", a.Result.Rows, res.Rows)
	}
	// All supported parameter kinds.
	_, err = e.QueryOptionsContext(context.Background(), `SELECT E.EmpID FROM Employee E WHERE E.LastName = :s`,
		&QueryOptions{Params: map[string]any{"s": "Yan"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryOptionsContext(context.Background(), `SELECT E.EmpID FROM Employee E WHERE E.DeptID = :x`,
		&QueryOptions{Params: map[string]any{"x": []int{1}}}); err == nil {
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
	res, err := e.QueryOptionsContext(context.Background(), q, nil)
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
	res2, err := e.QueryOptionsContext(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 2 {
		t.Errorf("ModeNever result has %d rows", len(res2.Rows))
	}
	explainIsWhatRuns(t, e, q)
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
	if _, err := e.QueryOptionsContext(context.Background(), `INSERT INTO T VALUES (1)`, nil); err == nil {
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
	res, err := e.QueryOptionsContext(context.Background(), `SELECT D.DeptID, D.Name FROM Department D ORDER BY DeptID`, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if !strings.Contains(s, "DeptID") || !strings.Contains(s, "Sales") {
		t.Errorf("Result.String() = %q", s)
	}
}

// collectSink is a RowSink that keeps a copy of every row it is handed, by
// chunk, counts the rungs that started and the rows a later start voided.
type collectSink struct {
	columns []string
	starts  int
	voided  int
	chunks  [][]value.Row
}

func (s *collectSink) Start(cols []string) {
	s.voided += len(s.rows())
	s.columns, s.chunks = cols, nil
	s.starts++
}

func (s *collectSink) Begin(n int) { s.chunks = make([][]value.Row, n) }

func (s *collectSink) Chunk(c int) func(value.Row) error {
	return func(row value.Row) error {
		s.chunks[c] = append(s.chunks[c], slices.Clone(row))
		return nil
	}
}

func (s *collectSink) rows() []value.Row { return slices.Concat(s.chunks...) }

// sameCells reports whether the engine's rows and the boxed rows hold the
// same cells: an integer as int64, a float as float64, a string, a bool, NULL
// as nil.
func sameCells(rows []value.Row, boxed [][]any) bool {
	return slices.EqualFunc(rows, boxed, func(row value.Row, cells []any) bool {
		return slices.EqualFunc(row, cells, func(v value.Value, cell any) bool {
			switch v.Kind() {
			case value.KindInt:
				return cell == any(v.Int())
			case value.KindFloat:
				return cell == any(v.Float())
			case value.KindString:
				return cell == any(v.Str())
			case value.KindBool:
				return cell == any(v.Bool())
			}
			return v.IsNull() && cell == nil
		})
	})
}

// TestQueryStreamIsQueryUnboxed: QueryStreamContext hands its sink the rows
// Query boxes, in Query's order — at one worker and at four, where the wide
// join arrives in several chunks, in the columnar source form and on a
// four-node cluster —, an empty result still starts with its columns, an
// empty result keeps Result.Rows nil, and a nil sink is refused.
func TestQueryStreamIsQueryUnboxed(t *testing.T) {
	store, err := workload.Sweep(workload.SweepParams{FactRows: 6000, DimRows: 50, Groups: 40, MatchFraction: 0.9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	queries := []string{
		`SELECT F.FID, D.Label, F.V FROM Fact F, Dim D WHERE F.DimID = D.DimID AND F.V < 50`,
		workload.SweepQueryGroupByDim,
		workload.SweepQueryGroupByFact + ` ORDER BY GroupID`,
		`SELECT D.DimID, D.Label FROM Dim D WHERE D.DimID > 99`,
	}
	for _, set := range []struct {
		name string
		set  func(e *Engine)
	}{
		{"par1", func(e *Engine) {}},
		{"par4", func(e *Engine) { e.SetParallelism(4) }},
		{"vectorized-par4", func(e *Engine) { e.SetVectorize(true); e.SetParallelism(4) }},
		{"nodes4", func(e *Engine) {
			if err := e.SetNodes(4); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		e := NewWithStore(store)
		set.set(e)
		for i, q := range queries {
			boxed, err := e.QueryOptionsContext(context.Background(), q, nil)
			if err != nil {
				t.Fatal(err)
			}
			var sink collectSink
			if err := e.QueryStreamContext(ctx, q, nil, &sink); err != nil {
				t.Fatal(err)
			}
			if sink.starts != 1 || !reflect.DeepEqual(sink.columns, boxed.Columns) || !sameCells(sink.rows(), boxed.Rows) {
				t.Errorf("%s, query %d: %d starts, columns %v, %d rows; Query: columns %v, %d rows",
					set.name, i, sink.starts, sink.columns, len(sink.rows()), boxed.Columns, len(boxed.Rows))
			}
			if i == 0 && set.name == "par4" && len(sink.chunks) < 2 {
				t.Errorf("%s: the wide join arrived in %d chunk(s), want several", set.name, len(sink.chunks))
			}
			if len(boxed.Rows) == 0 && boxed.Rows != nil {
				t.Errorf("%s, query %d: empty result has non-nil Rows", set.name, i)
			}
		}
	}
	e := NewWithStore(store)
	if err := e.QueryStreamContext(ctx, `SELEC nonsense`, nil, &collectSink{}); err == nil {
		t.Error("parse error not reported")
	}
	if err := e.QueryStreamContext(ctx, queries[0], nil, nil); err == nil {
		t.Error("a nil sink is not an error: the rows went nowhere")
	}
}

// TestStreamRestartsPerRung: a rung that fails after it has handed its sink
// rows is followed by the next rung's Start, and the sink ends with exactly
// that rung's rows. The eager plan's ORDER BY is the only operator a 500 kB
// budget sends to disk, and its merge — pulled row by row into the sink —
// fails a read near its end: a *SpillError, then the lazy plan in memory.
func TestStreamRestartsPerRung(t *testing.T) {
	store, err := workload.Sweep(workload.SweepParams{FactRows: 6000, DimRows: 1500, Groups: 10, MatchFraction: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := workload.SweepQueryGroupByDim + ` ORDER BY Label DESC`
	e := NewWithStore(store)
	e.SetMode(ModeNever)
	want, err := e.QueryOptionsContext(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetMode(ModeAlways)
	e.SetMemoryBudget(500_000)
	e.SetSpillDir(t.TempDir())
	stream := func(inj *fault.Injector) *collectSink {
		t.Helper()
		e.SetFaultInjector(inj)
		var sink collectSink
		if err := e.QueryStreamContext(ctx, q, nil, &sink); err != nil {
			t.Fatal(err)
		}
		if got := sink.rows(); !sameCells(got, want.Rows) {
			t.Fatalf("streamed %d rows, want the lazy plan's %d", len(got), len(want.Rows))
		}
		return &sink
	}
	// A fault-free run counts the ticks; the merge is its last phase.
	clean := fault.New(nil)
	if sink := stream(clean); sink.starts != 1 || e.Fallbacks() != 0 {
		t.Fatalf("fault-free run: %d starts, %d fallbacks", sink.starts, e.Fallbacks())
	}
	var events []fault.Event
	for tick := clean.Ticks() - 100; tick <= clean.Ticks(); tick++ {
		events = append(events, fault.Event{Tick: tick, Kind: fault.DiskReadFail})
	}
	sink := stream(fault.New(events))
	if sink.starts != 2 || sink.voided == 0 || e.Fallbacks() != 1 {
		t.Fatalf("faulted merge: %d starts, %d rows voided, %d fallbacks; want 2 starts after some rows, 1 fallback",
			sink.starts, sink.voided, e.Fallbacks())
	}
	t.Logf("the failed rung handed over %d of %d rows", sink.voided, len(want.Rows))
}

// boxRows hands rows to a boxSink as a run at the given worker count does —
// one chunk at one worker, runs of MorselSize rows above — and returns what
// it boxed.
func boxRows(rows []value.Row, workers int) *Result {
	var sink boxSink
	sink.Start([]string{"a", "b", "c"})
	chunks := 1
	if workers > 1 {
		chunks = (len(rows) + exec.MorselSize - 1) / exec.MorselSize
	}
	sink.Begin(chunks)
	for c := 0; c < chunks; c++ {
		emit, lo, hi := sink.Chunk(c), 0, len(rows)
		if workers > 1 {
			lo, hi = c*exec.MorselSize, min((c+1)*exec.MorselSize, len(rows))
		}
		for _, row := range rows[lo:hi] {
			if err := emit(row); err != nil {
				panic(err)
			}
		}
	}
	return sink.result()
}

// TestBoxSinkAllocatesPerPage: boxing a result allocates per page of cells,
// never per row — a few allocations for the result, then a page per doubling
// of a chunk's rows up to 1 024 and one per 1 024 rows after —, at one worker
// and at two, and the rows come out in order, cell for cell. (Cells that need
// a box of their own — strings, integers past a byte — are left out of the
// rows.)
func TestBoxSinkAllocatesPerPage(t *testing.T) {
	rows := make([]value.Row, 100_000)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i % 200)), value.NewBool(i%2 == 0), value.Null}
	}
	for _, workers := range []int{1, 2} {
		allocs := func(n int) float64 {
			if got := boxRows(rows[:n], workers); !sameCells(rows[:n], got.Rows) {
				t.Fatalf("workers=%d: %d rows boxed as %d, or not cell for cell", workers, n, len(got.Rows))
			}
			return testing.AllocsPerRun(10, func() { boxRows(rows[:n], workers) })
		}
		// 1 000 rows take one chunk's pages of 8, 8, 16, …, 512 rows: six more than 10 rows' two.
		if small, large := allocs(10), allocs(1000); small > 8 || large != small+6 {
			t.Errorf("workers=%d: %v allocations for 10 rows, %v for 1000; want at most 8, and six pages more", workers, small, large)
		}
		if all := allocs(len(rows)); all > float64(len(rows)/100) {
			t.Errorf("workers=%d: %v allocations for %d rows: want one per page, at most one per 100 rows", workers, all, len(rows))
		}
	}
}

// BenchmarkBoxSink is the boxing layer alone, at the shape of serve_wide's
// widest result (24 000 rows of int, string, int), at one worker and at two.
func BenchmarkBoxSink(b *testing.B) {
	rows := make([]value.Row, 24000)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(1000 + i)), value.NewString(fmt.Sprintf("label-%04d", i%997)), value.NewInt(int64(i % 50))}
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("par%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if out := boxRows(rows, workers); len(out.Rows) != len(rows) {
					b.Fatal("rows lost")
				}
			}
		})
	}
}

// TestOrderByOnGroupColumns: ORDER BY on the grouping columns picks
// sort-based grouping (the final sort is elided) and the output is still
// correctly ordered.
func TestOrderByOnGroupColumns(t *testing.T) {
	e := newExample1Engine(t)
	res, err := e.QueryOptionsContext(context.Background(), `
		SELECT E.DeptID, COUNT(*) AS n
		FROM Employee E, Department D
		WHERE E.DeptID = D.DeptID
		GROUP BY E.DeptID
		ORDER BY DeptID`, nil)
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
				res, err := e.QueryOptionsContext(context.Background(), example1Query, nil)
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
		a, err := e.QueryAnalyzedContext(context.Background(), tc.text, nil)
		if (err == nil) != tc.ok {
			t.Errorf("QueryAnalyzedContext(%q): err = %v, want ok=%t", tc.text, err, tc.ok)
		}
		if err == nil && len(a.Result.Rows) != 3 {
			t.Errorf("QueryAnalyzedContext(%q) returned %d rows, want 3", tc.text, len(a.Result.Rows))
		}
		if _, err := e.Explain(tc.text); (err == nil) != tc.ok {
			t.Errorf("Explain(%q): err = %v, want ok=%t", tc.text, err, tc.ok)
		}
	}
}
