package gbj

// Plan-cache correctness at the engine level: the invalidation matrix
// (every kind of engine write — DDL, DML, a CSV load, a script, a failed
// Exec, each setter — drops the plans over what it changed, the exact-text
// aliases with them, and DDL and setters empty the cache) proving no stale
// plan is ever served, the canonical key keeping distinct
// queries apart and spellings of one query together, the aliases bounded and
// never made by a failure, and the verification gate proving a plan whose
// TestFD certificate does not survive verification is never cached.

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/plancheck"
	"repro/internal/sql"
)

// queryCounts runs example1Query and returns DeptID -> COUNT.
func queryCounts(t *testing.T, e *Engine) map[int64]int64 {
	t.Helper()
	return queryCountsOf(t, e, example1Query)
}

// queryCountsOf runs text, a spelling of example1Query, and returns
// DeptID -> COUNT.
func queryCountsOf(t *testing.T, e *Engine, text string) map[int64]int64 {
	t.Helper()
	res, err := e.QueryOptionsContext(context.Background(), text, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int64{}
	for _, row := range res.Rows {
		counts[row[0].(int64)] = row[2].(int64)
	}
	return counts
}

// A new engine plans through its cache: a repeated query is planned once and
// then hit, an INSERT into a table it does not read keeps its entry, and
// spellings share an entry that different queries do not.
func TestPlanCacheHitsRepeatQueries(t *testing.T) {
	e := newExample1Engine(t)
	e.MustExec(`CREATE TABLE Other (id INTEGER)`)
	base := queryCounts(t, e)
	if s := e.PlanCacheStats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after cold run: %+v", s)
	}
	for i := 0; i < 5; i++ {
		if i == 2 {
			e.MustExec(`INSERT INTO Other VALUES (1)`)
		}
		if got := queryCounts(t, e); fmt.Sprint(got) != fmt.Sprint(base) {
			t.Fatalf("warm run %d: %v != %v", i, got, base)
		}
	}
	s := e.PlanCacheStats()
	if s.Hits != 5 || s.Misses != 1 {
		t.Fatalf("warm stats: %+v", s)
	}
	if e.planCache.Len() != 1 {
		t.Fatalf("cache len %d, want 1", e.planCache.Len())
	}
	// Query spelling differences that parse to the same AST share an
	// entry; semantically different queries do not.
	if _, err := e.QueryOptionsContext(context.Background(), "select d.DeptID, d.Name, count(e.EmpID) from Employee e, Department d where e.DeptID = d.DeptID group by d.DeptID, d.Name", nil); err != nil {
		t.Fatal(err)
	}
	if e.planCache.Len() != 2 { // different correlation names -> different AST
		t.Fatalf("cache len %d, want 2", e.planCache.Len())
	}
}

// SetPlanCacheSize(0) restores the default capacity, it does not turn the
// cache off: queries still hit, and defaultPlanCacheSize distinct ones fit
// before the first eviction.
func TestPlanCacheSizeZeroIsDefault(t *testing.T) {
	e := newExample1Engine(t)
	e.SetPlanCacheSize(4)
	e.SetPlanCacheSize(0)
	text := func(i int) string { return fmt.Sprintf(`SELECT E.EmpID FROM Employee E WHERE E.EmpID = %d`, i) }
	for i := 0; i < defaultPlanCacheSize; i++ {
		if _, err := e.QueryOptionsContext(context.Background(), text(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.QueryOptionsContext(context.Background(), text(0), nil); err != nil {
		t.Fatal(err)
	}
	s := e.PlanCacheStats()
	if s.Misses != defaultPlanCacheSize || s.Hits != 1 || s.Evictions != 0 || e.planCache.Len() != defaultPlanCacheSize {
		t.Fatalf("%+v and %d entries after %d distinct queries and a repeat", s, e.planCache.Len(), defaultPlanCacheSize)
	}
	if _, err := e.QueryOptionsContext(context.Background(), text(defaultPlanCacheSize), nil); err != nil {
		t.Fatal(err)
	}
	if s := e.PlanCacheStats(); s.Evictions != 1 || e.planCache.Len() != defaultPlanCacheSize {
		t.Fatalf("one query past the default capacity: %+v, %d entries", s, e.planCache.Len())
	}
}

// The invalidation matrix: every row is (mutation, expectation). After
// each mutation the next run must be a miss — re-planned against the new
// state — and must return correct rows for that state.
func TestPlanCacheInvalidationMatrix(t *testing.T) {
	dir := t.TempDir()
	e := newExample1Engine(t)

	expectFresh := func(step string, mutate func(), wantDept1 int64) {
		t.Helper()
		mutate()
		missesBefore := e.PlanCacheStats().Misses
		counts := queryCounts(t, e)
		s := e.PlanCacheStats()
		if s.Misses != missesBefore+1 {
			t.Fatalf("%s: run served from cache (misses %d -> %d): a stale plan could have executed", step, missesBefore, s.Misses)
		}
		if counts[1] != wantDept1 {
			t.Fatalf("%s: dept 1 count = %d, want %d", step, counts[1], wantDept1)
		}
		// And the re-planned entry serves hits again.
		hitsBefore := s.Hits
		if got := queryCounts(t, e); got[1] != wantDept1 {
			t.Fatalf("%s: warm rerun: %v", step, got)
		}
		if e.PlanCacheStats().Hits != hitsBefore+1 {
			t.Fatalf("%s: rerun did not hit", step)
		}
	}

	expectFresh("cold", func() {}, 2)
	expectFresh("DML epoch bump", func() {
		e.MustExec(`INSERT INTO Employee VALUES (8, 'F', 'F', 1)`)
	}, 3)
	expectFresh("SetVectorize flip", func() { e.SetVectorize(true) }, 3)
	expectFresh("SetParallelism flip", func() { e.SetParallelism(4) }, 3)
	expectFresh("SetDistStrategy flip", func() { e.SetDistStrategy(DistEager) }, 3)
	expectFresh("spill-dir change", func() {
		e.SetMemoryBudget(1 << 30)
		e.SetSpillDir(dir)
	}, 3)
	expectFresh("SetMode flip", func() { e.SetMode(ModeAlways) }, 3)
	expectFresh("second DML epoch bump", func() {
		e.MustExec(`INSERT INTO Employee VALUES (9, 'G', 'G', 2)`)
	}, 3)
	expectFresh("CREATE DOMAIN", func() {
		e.MustExec(`CREATE DOMAIN Positive INTEGER CHECK VALUE > 0`)
	}, 3)
	expectFresh("CREATE VIEW", func() {
		e.MustExec(`CREATE VIEW Sales AS SELECT E.EmpID FROM Employee E WHERE E.DeptID = 1`)
	}, 3)
	expectFresh("LoadCSV", func() {
		if _, err := e.LoadCSV("Employee", strings.NewReader("10,H,H,1\n"), false); err != nil {
			t.Fatal(err)
		}
	}, 4)
	expectFresh("RunScriptContext INSERT", func() {
		if err := e.RunScriptContext(context.Background(), `INSERT INTO Employee VALUES (11, 'I', 'I', 1)`, io.Discard); err != nil {
			t.Fatal(err)
		}
	}, 5)
	expectFresh("Exec failing after its INSERT landed", func() {
		if err := e.Exec(`INSERT INTO Employee VALUES (12, 'J', 'J', 1); INSERT INTO NoSuch VALUES (1)`); err == nil {
			t.Fatal("Exec into a missing table succeeded")
		}
	}, 6)

	if s := e.PlanCacheStats(); s.Invalidations == 0 {
		t.Fatalf("no whole-cache invalidations recorded: %+v", s)
	}
}

// A plan whose certificate does not survive verification never executes.
// Chosen under the tamper hook, which truncates the certified GA1+ column
// list exactly like a real staleness bug would, the query fails
// verification and nothing is cached — on one node, and on four, where the
// choice would also carry its cluster plans. The engine caches only verified
// plans, so the second half plants a poisoned entry by hand: the next
// write empties the cache, and the query re-plans with a clean
// certificate.
func TestPlanCacheRejectsTamperedCertificate(t *testing.T) {
	for _, nodes := range []int{4, 1} {
		e := newExample1Engine(t)
		e.SetMode(ModeAlways) // guarantee the eager (certified) shape
		if err := e.SetNodes(nodes); err != nil {
			t.Fatal(err)
		}
		core.TestHooks.TamperCertCols = true
		_, err := e.QueryOptionsContext(context.Background(), example1Query, nil)
		core.TestHooks.TamperCertCols = false
		if err == nil || !strings.Contains(err.Error(), "eager-cert") {
			t.Fatalf("%d nodes: a tampered certificate was not refused when chosen: %v", nodes, err)
		}
		if n := e.planCache.Len(); n != 0 {
			t.Fatalf("%d nodes: the refused plan was cached: %d entries", nodes, n)
		}
	}
	e := newExample1Engine(t)
	e.SetMode(ModeAlways)

	// Plant a poisoned entry: the cached certificate licenses the wrong GA1+.
	base := queryCounts(t, e)
	if base[1] != 2 || base[2] != 3 || base[3] != 1 {
		t.Fatalf("cold run returned wrong rows: %v", base)
	}
	q, err := sql.ParseQuery(example1Query)
	if err != nil {
		t.Fatal(err)
	}
	key := sql.Canonical(q)
	cached := func() *core.Choice {
		t.Helper()
		v, ok := e.planCache.Get(key)
		if !ok {
			t.Fatal("no cache entry for the query")
		}
		return v.(*core.Choice)
	}
	c := *cached()
	clean := len(c.Certs[0].GroupCols)
	tampered := *c.Certs[0]
	tampered.GroupCols = tampered.GroupCols[:len(tampered.GroupCols)-1]
	c.Certs = []*plancheck.Certificate{&tampered}
	e.planCache.PutReads(key, &c, c.Tables)

	// A write in between: the poisoned entry is gone, the query misses,
	// re-plans and caches a certificate with the full GA1+ again.
	e.MustExec(`CREATE DOMAIN Positive INTEGER CHECK VALUE > 0`)
	misses := e.PlanCacheStats().Misses
	if got := queryCounts(t, e); got[1] != 2 || got[2] != 3 || got[3] != 1 {
		t.Fatalf("post-write rows wrong: %v", got)
	}
	if s := e.PlanCacheStats(); s.Misses != misses+1 {
		t.Fatalf("the planted entry survived a write: %+v", s)
	}
	if got := len(cached().Certs[0].GroupCols); got != clean {
		t.Fatalf("re-planned certificate has %d GA1+ columns, want %d", got, clean)
	}
}

// Queries that differ only where the canonical key once rendered them
// alike — an embedded quote, a delimited identifier holding a comma, a
// subquery, the nesting of an arithmetic operator, a float literal with no
// fraction — keep separate cache entries and return their own rows.
func TestPlanCacheSeparatesLookalikeQueries(t *testing.T) {
	e := New()
	e.MustExec(`CREATE TABLE t ("a, b" INTEGER, a INTEGER, b INTEGER);
		CREATE TABLE u (c INTEGER);
		INSERT INTO t VALUES (1, 2, 3);
		INSERT INTO u VALUES (2), (9)`)
	pairs := [][2]string{
		{`SELECT 'a', 'b' FROM t`, `SELECT 'a'', ''b' FROM t`},
		{`SELECT a, b FROM t`, `SELECT "a, b" FROM t`},
		{`SELECT a FROM t WHERE a IN (SELECT c FROM u)`, `SELECT a FROM t WHERE a IN (SELECT c + 1 FROM u)`},
		{`SELECT a - b - 1 FROM t`, `SELECT a - (b - 1) FROM t`},
		{`SELECT 1 FROM t`, `SELECT 1.0 FROM t`},
	}
	run := func(q string) string {
		t.Helper()
		res, err := e.QueryOptionsContext(context.Background(), q, nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var b strings.Builder
		for _, row := range res.Rows {
			fmt.Fprintf(&b, "%T%v", row[0], row)
		}
		return b.String()
	}
	for _, p := range pairs {
		// Each query's reference is planned into an empty cache, where no
		// lookalike's entry can answer it.
		var want [2]string
		for i, q := range p {
			e.planCache.Clear()
			want[i] = run(q)
		}
		if want[0] == want[1] {
			t.Fatalf("pair %q does not tell its queries apart: both %s", p, want[0])
		}
		e.planCache.Clear()
		for i, q := range p {
			if got := run(q); got != want[i] {
				t.Errorf("%s after its pair's first query: %s, want %s", q, got, want[i])
			}
		}
		if n := e.planCache.Len(); n != 2 {
			t.Errorf("pair %q: %d cache entries, want 2", p, n)
		}
	}
}

// example1Spellings are texts of example1Query that differ only where the
// canonical key does not look: keyword case, white space and redundant
// parentheses.
var example1Spellings = []string{
	example1Query,
	`select D.DeptID, D.Name, count(E.EmpID) from Employee E, Department D where E.DeptID = D.DeptID group by D.DeptID, D.Name`,
	"SELECT D.DeptID,D.Name,COUNT(E.EmpID)\n\tFROM Employee E,Department D WHERE E.DeptID=D.DeptID GROUP BY D.DeptID,D.Name ",
	`SELECT D.DeptID, D.Name, COUNT(E.EmpID) FROM Employee E, Department D WHERE (E.DeptID = D.DeptID) GROUP BY D.DeptID, D.Name`,
}

// Spellings of one query share one plan: the first is planned, each other is
// answered by the canonical key and becomes an alias, and from then on every
// spelling is answered by its exact text.
func TestPlanCacheSpellingsShareOnePlan(t *testing.T) {
	e := newExample1Engine(t)
	for round := 0; round < 2; round++ {
		for _, text := range example1Spellings {
			if got := queryCountsOf(t, e, text); got[1] != 2 || got[2] != 3 || got[3] != 1 {
				t.Fatalf("%q: %v", text, got)
			}
		}
	}
	n := len(example1Spellings)
	if s := e.PlanCacheStats(); s.Misses != 1 || s.Hits != int64(2*n-1) {
		t.Fatalf("stats %+v, want 1 miss and %d hits", s, 2*n-1)
	}
	if e.planCache.Len() != 1 || e.planCache.Aliases() != n {
		t.Fatalf("%d plans and %d aliases, want 1 and %d", e.planCache.Len(), e.planCache.Aliases(), n)
	}
}

// Every kind of write drops the aliases with the plans of what it changed:
// right after it the text over the written table is no alias, and it is
// re-planned against the new state and returns its rows. A write of rows —
// DML, a CSV load, a script's INSERT, an Exec that failed after its INSERT
// landed — leaves a query over another table its plan and its alias; DDL and
// setters, which change what every plan reads, drop that one too.
func TestPlanCacheWritesDropAliases(t *testing.T) {
	e := newExample1Engine(t)
	text := example1Spellings[1]
	const other = `SELECT D.Name FROM Department D WHERE D.DeptID = 2`
	writes := []struct {
		name   string
		write  func()
		dept1  int64
		scoped bool // the write changes Employee's rows alone
	}{
		{"INSERT", func() { e.MustExec(`INSERT INTO Employee VALUES (8, 'F', 'F', 1)`) }, 3, true},
		{"SetVectorize", func() { e.SetVectorize(true) }, 3, false},
		{"SetParallelism", func() { e.SetParallelism(4) }, 3, false},
		{"SetDistStrategy", func() { e.SetDistStrategy(DistEager) }, 3, false},
		{"SetSpillDir", func() { e.SetMemoryBudget(1 << 30); e.SetSpillDir(t.TempDir()) }, 3, false},
		{"SetMode", func() { e.SetMode(ModeAlways) }, 3, false},
		{"CREATE DOMAIN", func() { e.MustExec(`CREATE DOMAIN Positive INTEGER CHECK VALUE > 0`) }, 3, false},
		{"CREATE VIEW", func() {
			e.MustExec(`CREATE VIEW Sales AS SELECT E.EmpID FROM Employee E WHERE E.DeptID = 1`)
		}, 3, false},
		{"LoadCSV", func() {
			if _, err := e.LoadCSV("Employee", strings.NewReader("10,H,H,1\n"), false); err != nil {
				t.Fatal(err)
			}
		}, 4, true},
		{"RunScriptContext", func() {
			if err := e.RunScriptContext(context.Background(), `INSERT INTO Employee VALUES (11, 'I', 'I', 1)`, io.Discard); err != nil {
				t.Fatal(err)
			}
		}, 5, true},
		{"failed Exec", func() {
			if err := e.Exec(`INSERT INTO Employee VALUES (12, 'J', 'J', 1); INSERT INTO NoSuch VALUES (1)`); err == nil {
				t.Fatal("Exec into a missing table succeeded")
			}
		}, 6, true},
	}
	runOther := func() {
		t.Helper()
		res, err := e.QueryOptionsContext(context.Background(), other, nil)
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "Eng" {
			t.Fatalf("%s: %v, %v", other, res, err)
		}
	}
	queryCountsOf(t, e, text)
	runOther()
	for _, w := range writes {
		if e.planCache.Aliases() != 2 {
			t.Fatalf("before %s: %d aliases, want the two texts'", w.name, e.planCache.Aliases())
		}
		w.write()
		kept := 0
		if w.scoped {
			kept = 1
		}
		if n := e.planCache.Aliases(); n != kept {
			t.Fatalf("%s left %d aliases, want %d", w.name, n, kept)
		}
		misses := e.PlanCacheStats().Misses
		if got := queryCountsOf(t, e, text); got[1] != w.dept1 {
			t.Fatalf("after %s: dept 1 count = %d, want %d", w.name, got[1], w.dept1)
		}
		if s := e.PlanCacheStats(); s.Misses != misses+1 {
			t.Fatalf("after %s: the text was not re-planned (misses %d -> %d)", w.name, misses, s.Misses)
		}
		runOther()
		if s, want := e.PlanCacheStats(), misses+1+int64(1-kept); s.Misses != want {
			t.Fatalf("after %s: the query over Department missed %d times, want %d", w.name, s.Misses-misses-1, 1-kept)
		}
	}
}

// renamingSink overwrites the column names it is started with, as a sink
// may: they are its own.
type renamingSink struct{ collectSink }

func (s *renamingSink) Start(cols []string) {
	for i := range cols {
		cols[i] = "renamed"
	}
	s.collectSink.Start(cols)
}

// A cached plan's column names are not the sink's or the result's to share:
// a sink that renames them, and a caller that edits Result.Columns, leave
// the names of every later hit as they were.
func TestPlanCacheColumnsSurviveWritingCallers(t *testing.T) {
	e := newExample1Engine(t)
	ctx := context.Background()
	first, err := e.QueryOptionsContext(ctx, example1Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(first.Columns)
	first.Columns[0] = "edited"
	if err := e.QueryStreamContext(ctx, example1Query, nil, &renamingSink{}); err != nil {
		t.Fatal(err)
	}
	var sink collectSink
	if err := e.QueryStreamContext(ctx, example1Query, nil, &sink); err != nil {
		t.Fatal(err)
	}
	again, err := e.QueryOptionsContext(ctx, example1Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.PlanCacheStats(); s.Misses != 1 {
		t.Fatalf("%d misses, want the first run's alone", s.Misses)
	}
	if !slices.Equal(sink.columns, want) || !slices.Equal(again.Columns, want) {
		t.Fatalf("a hit's columns: streamed %v, queried %v; want %v", sink.columns, again.Columns, want)
	}
}

// A plan reads the base tables behind a view and behind a subquery, which
// planning ran: a write to one of them re-plans the query, which sees the new
// rows, and a write to a table it does not read keeps its plan.
func TestPlanCacheDropsQueriesOverViewsAndSubqueries(t *testing.T) {
	e := newExample1Engine(t)
	e.MustExec(`CREATE VIEW EmpDept AS SELECT E.EmpID, E.DeptID FROM Employee E;
		CREATE TABLE Bonus (EmpID INTEGER PRIMARY KEY, Amount INTEGER);
		INSERT INTO Department VALUES (4, 'Legal'), (5, 'Audit')`)
	rows := func(q string) int {
		t.Helper()
		res, err := e.QueryOptionsContext(context.Background(), q, nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return len(res.Rows)
	}
	for i, q := range []string{
		`SELECT V.DeptID, COUNT(V.EmpID) FROM EmpDept V GROUP BY V.DeptID`,
		`SELECT D.DeptID FROM Department D WHERE D.DeptID IN (SELECT E.DeptID FROM Employee E)`,
	} {
		before := rows(q)
		misses := e.PlanCacheStats().Misses
		e.MustExec(fmt.Sprintf(`INSERT INTO Bonus VALUES (%d, 100)`, i))
		if got := rows(q); got != before || e.PlanCacheStats().Misses != misses {
			t.Fatalf("%s: a write to a table it does not read re-planned it (misses %d -> %d) or changed its rows (%d -> %d)", q, misses, e.PlanCacheStats().Misses, before, got)
		}
		// An employee of a department that had none: a new group of the
		// view, a new department in the subquery's list.
		e.MustExec(fmt.Sprintf(`INSERT INTO Employee VALUES (%d, 'L', 'L', %d)`, 40+i, 4+i))
		if got := rows(q); got != before+1 || e.PlanCacheStats().Misses != misses+1 {
			t.Fatalf("%s: after a write to its table: %d rows (want %d), misses %d -> %d (want one re-plan)", q, got, before+1, misses, e.PlanCacheStats().Misses)
		}
	}
}

// A text that fails to parse or to plan becomes no alias, and fails again
// the next time.
func TestPlanCacheFailuresMakeNoAlias(t *testing.T) {
	e := newExample1Engine(t)
	for _, text := range []string{
		`SELECT FROM Employee WHERE`,                    // parse error
		`SELECT E.EmpID FROM NoSuch E`,                  // plan error: no such table
		`SELECT E.Nope FROM Employee E GROUP BY E.Nope`, // plan error: no such column
	} {
		for i := 0; i < 2; i++ {
			if _, err := e.QueryOptionsContext(context.Background(), text, nil); err == nil {
				t.Fatalf("%q succeeded (run %d)", text, i)
			}
		}
	}
	if n, a := e.planCache.Len(), e.planCache.Aliases(); n != 0 || a != 0 {
		t.Fatalf("failures left %d plans and %d aliases", n, a)
	}
	if s := e.PlanCacheStats(); s.Misses != 4 || s.Hits != 0 { // each plan error, each time
		t.Fatalf("stats %+v, want the two plan errors planned twice each", s)
	}
}

// However many spellings arrive, there are at most as many aliases as the
// cache has room for plans; a spelling whose alias was pushed out is
// answered by the canonical key again, not re-planned.
func TestPlanCacheAliasesBounded(t *testing.T) {
	const capacity = 4
	e := newExample1Engine(t)
	e.SetPlanCacheSize(capacity)
	spelling := func(i int) string { return strings.Repeat(" ", i) + example1Query }
	for i := 0; i <= capacity; i++ {
		queryCountsOf(t, e, spelling(i))
	}
	if n, a := e.planCache.Len(), e.planCache.Aliases(); n != 1 || a != capacity {
		t.Fatalf("%d plans and %d aliases, want 1 and %d", n, a, capacity)
	}
	if got := queryCountsOf(t, e, spelling(0)); got[2] != 3 {
		t.Fatalf("evicted spelling: %v", got)
	}
	if s := e.PlanCacheStats(); s.Misses != 1 {
		t.Fatalf("a spelling was re-planned: %+v", s)
	}
}

// BenchmarkPlanCacheHit is a served Example 1 query whose plan comes from
// the cache by its exact text: lookup, snapshot and execution over the
// seven-row tables, with no parse and no planning.
func BenchmarkPlanCacheHit(b *testing.B) {
	e := newExample1Engine(b)
	if _, err := e.QueryOptionsContext(context.Background(), example1Query, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.QueryOptionsContext(context.Background(), example1Query, nil)
		if err != nil || len(res.Rows) != 3 {
			b.Fatalf("rows %v, err %v", res, err)
		}
	}
	if s := e.PlanCacheStats(); s.Misses != 1 {
		b.Fatalf("hits were re-planned: %+v", s)
	}
}

// BenchmarkPlanCacheVariantHit is BenchmarkPlanCacheHit with a text the
// cache's text key does not know, answered by the canonical key: parse,
// render, lookup, alias, snapshot and execution. The texts are one more
// spelling than the cache holds aliases, taken in turn, so each one's alias
// is the least recently used when its turn comes round and is gone.
func BenchmarkPlanCacheVariantHit(b *testing.B) {
	const capacity = 16
	e := newExample1Engine(b)
	e.SetPlanCacheSize(capacity)
	texts := make([]string, capacity+1)
	for i := range texts {
		texts[i] = strings.Repeat(" ", i) + example1Query
	}
	if _, err := e.QueryOptionsContext(context.Background(), example1Query, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.QueryOptionsContext(context.Background(), texts[i%len(texts)], nil)
		if err != nil || len(res.Rows) != 3 {
			b.Fatalf("rows %v, err %v", res, err)
		}
	}
	if s := e.PlanCacheStats(); s.Misses != 1 {
		b.Fatalf("hits were re-planned: %+v", s)
	}
}
