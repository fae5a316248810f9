package exec_test

// The serial-vs-parallel oracle: over hundreds of randomized stores and
// queries, for both the standard and the transformed plan and for EVERY
// physical strategy combination (JoinStrategy × GroupStrategy), parallel
// execution must return exactly the rows of serial execution — same
// values, same order — and must record exactly the same per-operator
// output cardinality at every plan node. The parallel operators are
// designed to be row-identical to their serial counterparts (parallel.go
// documents the discipline); this suite is what holds them to it.
//
// This file lives in the external test package because it drives plans
// through the optimizer: core imports exec, so an internal test importing
// core would be an import cycle.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// oracleParallelism is the worker count the other oracles' parallel runs use.
// Any value above 1 must give identical results; 4 exercises multi-chunk
// scheduling even on a single-CPU machine.
const oracleParallelism = 4

// rowWorkerCounts are the worker counts the pipelines are run at above one
// worker, in the row and in the columnar source form alike. Most oracle
// inputs are shorter than one morsel, so 3 and 8 are worker counts above the
// chunk count of every collecting pipeline, and 8 is above the row count of
// some sources.
var rowWorkerCounts = []int{2, 3, oracleParallelism, 8}

var joinStrategies = []exec.JoinStrategy{
	exec.JoinAuto, exec.JoinHash, exec.JoinSortMerge, exec.JoinNestedLoop,
}

var groupStrategies = []exec.GroupStrategy{
	exec.GroupAuto, exec.GroupHash, exec.GroupSort,
}

// rowStrings renders rows in order; comparing the slices compares both
// content and order.
func rowStrings(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = value.GroupKeyAll(r)
	}
	return out
}

func sameRowOrder(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runWithStats executes a plan with a fresh metrics collector and returns
// the rows plus the collector.
func runWithStats(t *testing.T, plan algebra.Node, store *storage.Store, opts exec.Options) ([]value.Row, *obs.Collector) {
	t.Helper()
	col := obs.NewCollector()
	opts.Metrics = col
	res, err := exec.Run(plan, store, &opts)
	if err != nil {
		t.Fatalf("exec.Run (parallelism=%d join=%v group=%v): %v",
			opts.Parallelism, opts.Join, opts.Group, err)
	}
	return res.Rows, col
}

// joinInputRows sums RowsIn over the plan's join and product operators —
// the Section 7 quantity eager aggregation is meant to shrink.
func joinInputRows(plan algebra.Node, col *obs.Collector) int64 {
	var total int64
	algebra.Walk(plan, func(n algebra.Node) {
		switch n.(type) {
		case *algebra.Join, *algebra.Product:
			if m := col.Lookup(n); m != nil {
				total += m.RowsIn.Load()
			}
		}
	})
	return total
}

// checkSerialVsParallel runs one plan under one strategy combination in both
// source forms — row and vectorized — at one worker and at every count in
// rowWorkerCounts, and asserts that every mode returns exactly the serial row
// path's rows in its order with identical per-operator cardinalities (RowsOut
// and RowsIn; Batches is intentionally excluded — it is a mode-specific scheduling
// statistic; plans containing a Limit skip the cardinality comparison, since
// early termination makes interior counts depend on which mode could elide
// the sort). The serial row path is the reference semantics; the batch form is
// held to it at exactly the worker counts the row form is.
func checkSerialVsParallel(t *testing.T, label, query string, plan algebra.Node, store *storage.Store, js exec.JoinStrategy, gs exec.GroupStrategy) []value.Row {
	t.Helper()
	serialRows, serialCol := runWithStats(t, plan, store, exec.Options{Join: js, Group: gs})
	s := rowStrings(serialRows)
	type runMode struct {
		mode string
		opts exec.Options
	}
	modes := []runMode{
		{"vec/serial", exec.Options{Join: js, Group: gs, Vectorize: true}},
	}
	for _, workers := range rowWorkerCounts {
		modes = append(modes,
			runMode{fmt.Sprintf("vec/parallel=%d", workers), exec.Options{Join: js, Group: gs, Parallelism: workers, Vectorize: true}},
			runMode{fmt.Sprintf("row/parallel=%d", workers), exec.Options{Join: js, Group: gs, Parallelism: workers}})
	}
	// Early termination makes interior cardinalities plan-shape-dependent:
	// under a LIMIT, a mode whose input order lets the sort elide pulls only
	// N rows through the chain, while a mode that fuses a TopK consumes the
	// whole input. Output equality still holds; per-node counts need not.
	hasLimit := false
	algebra.Walk(plan, func(n algebra.Node) {
		if _, ok := n.(*algebra.Limit); ok {
			hasLimit = true
		}
	})
	for _, m := range modes {
		parRows, parCol := runWithStats(t, plan, store, m.opts)
		p := rowStrings(parRows)
		if !sameRowOrder(s, p) {
			t.Fatalf("%s plan, join=%v group=%v: %s output differs from row/serial\nquery: %s\nrow/serial (%d rows): %v\n%s (%d rows): %v",
				label, js, gs, m.mode, query, len(s), s, m.mode, len(p), p)
		}
		algebra.Walk(plan, func(n algebra.Node) {
			sm, pm := serialCol.Lookup(n), parCol.Lookup(n)
			if sm == nil || pm == nil {
				t.Fatalf("%s plan, join=%v group=%v: node %T missing from metrics collector (row/serial=%v %s=%v)",
					label, js, gs, n, sm != nil, m.mode, pm != nil)
			}
			if hasLimit {
				return
			}
			// The metrics collector must agree across modes (limit-free
			// plans only, per above).
			if sm.RowsOut.Load() != pm.RowsOut.Load() {
				t.Fatalf("%s plan, join=%v group=%v: node %T RowsOut %d row/serial vs %d %s\nquery: %s",
					label, js, gs, n, sm.RowsOut.Load(), pm.RowsOut.Load(), m.mode, query)
			}
			// RowsIn is a structural invariant (sum of children's outputs), so
			// it must match between modes too.
			if sm.RowsIn.Load() != pm.RowsIn.Load() {
				t.Fatalf("%s plan, join=%v group=%v: node %T RowsIn %d row/serial vs %d %s\nquery: %s",
					label, js, gs, n, sm.RowsIn.Load(), pm.RowsIn.Load(), m.mode, query)
			}
		})
	}
	return serialRows
}

// orderKeySeq renders the ORDER BY key of every row, in row order, for a plan
// whose root is a Sort (looking through a LIMIT); nil for unordered plans.
// Grouping strategies may order tied rows differently — hashing leaves them
// in first-appearance order, sort-based grouping in full grouping-key order —
// but never the keys: two runs with one key sequence and one multiset are in
// the same order wherever the keys are a total order, and hold the same rows
// within each tie where they are a strict prefix of the grouping columns.
func orderKeySeq(plan algebra.Node, rows []value.Row) []string {
	if l, ok := plan.(*algebra.Limit); ok {
		plan = l.Input
	}
	sortNode, ok := plan.(*algebra.Sort)
	if !ok {
		return nil
	}
	cols := make([]int, len(sortNode.Keys))
	for i, k := range sortNode.Keys {
		cols[i], _ = sortNode.Input.Schema().IndexOf(k.Col)
	}
	seq := make([]string, len(rows))
	for i, r := range rows {
		seq[i] = value.GroupKey(r, cols)
	}
	return seq
}

// oracleQuery checks one query on one store across every plan and strategy
// combination, returning how many (plan, strategy) serial-vs-parallel
// comparisons ran.
func oracleQuery(t *testing.T, store *storage.Store, query string) int {
	t.Helper()
	q, err := sql.ParseQuery(query)
	if err != nil {
		t.Fatalf("parsing %q: %v", query, err)
	}
	o := core.NewOptimizer(store)
	// Static plan audit: every plan the oracle executes must pass plancheck,
	// including the TestFD certificate on a transformed plan's eager group.
	o.CheckPlans = true
	report, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("optimizing %q: %v", query, err)
	}
	plans := []struct {
		label string
		plan  algebra.Node
	}{{"standard", report.Standard}}
	if report.Alternative != nil {
		plans = append(plans, struct {
			label string
			plan  algebra.Node
		}{"transformed", report.Alternative})
	}
	checks := 0
	// Every strategy combination must agree with serial execution; every
	// plan and combination must also agree with each other as multisets
	// (a cross-check that strategy/plan choice never changes results) and,
	// under an ORDER BY, on the sequence of sort keys — GroupAuto ≡ forced
	// GroupHash ≡ forced GroupSort up to the order of tied rows.
	var reference, referenceKeys []string
	for _, pl := range plans {
		for _, js := range joinStrategies {
			for _, gs := range groupStrategies {
				rows := checkSerialVsParallel(t, pl.label, query, pl.plan, store, js, gs)
				sorted := rowStrings(rows)
				sortStrings(sorted)
				keys := orderKeySeq(pl.plan, rows)
				if reference == nil {
					reference, referenceKeys = sorted, keys
				} else if !sameRowOrder(reference, sorted) {
					t.Fatalf("%s plan, join=%v group=%v: result multiset differs from the first combination\nquery: %s\nfirst: %v\n this: %v",
						pl.label, js, gs, query, reference, sorted)
				} else if !sameRowOrder(referenceKeys, keys) {
					t.Fatalf("%s plan, join=%v group=%v: ORDER BY key sequence differs from the first combination\nquery: %s\nfirst: %q\n this: %q",
						pl.label, js, gs, query, referenceKeys, keys)
				}
				checks++
			}
		}
	}
	return checks
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// randomSweepStore builds a small random fact/dimension instance and
// injects rows with NULL join keys and NULL aggregation inputs (dropped by
// joins, skipped by aggregates — both paths must behave identically in
// parallel).
func randomSweepStore(t *testing.T, r *rand.Rand) *storage.Store {
	t.Helper()
	store, err := workload.Sweep(workload.SweepParams{
		FactRows:      40 + r.Intn(160),
		DimRows:       3 + r.Intn(15),
		Groups:        2 + r.Intn(10),
		MatchFraction: 0.2 + 0.8*r.Float64(),
		Seed:          r.Int63(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.Intn(6); i++ {
		if err := store.Insert("Fact", value.Row{
			value.NewInt(int64(100000 + i)), value.Null,
			value.NewInt(int64(r.Intn(5))), value.Null,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// sweepQueries are the query templates over the Sweep schema; cut is a
// random literal for the filter variants.
func sweepQueries(r *rand.Rand) []string {
	cut := r.Intn(100)
	return []string{
		`SELECT D.DimID, D.Label, COUNT(F.FID), SUM(F.V)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY D.DimID, D.Label`,
		fmt.Sprintf(`SELECT D.DimID, D.Label, SUM(F.V)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID AND F.V < %d
		 GROUP BY D.DimID, D.Label`, cut),
		`SELECT D.DimID, MIN(F.V), MAX(F.V), AVG(F.V)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY D.DimID`,
		`SELECT F.GroupID, SUM(F.V), COUNT(*)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY F.GroupID`,
		`SELECT D.DimID, D.Label, COUNT(DISTINCT F.GroupID)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY D.DimID, D.Label`,
		`SELECT COUNT(F.FID), SUM(F.V), MIN(F.V)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID`,
		`SELECT D.DimID, D.Label, SUM(F.V)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY D.DimID, D.Label ORDER BY DimID DESC`,
		`SELECT DISTINCT F.GroupID
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID`,
		`SELECT F.GroupID, SUM(F.V), COUNT(*)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY F.GroupID ORDER BY GroupID`,
		fmt.Sprintf(`SELECT D.DimID, D.Label, SUM(F.V)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY D.DimID, D.Label ORDER BY DimID LIMIT %d`, 1+r.Intn(6)),
		fmt.Sprintf(`SELECT D.DimID, MAX(F.V)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY D.DimID ORDER BY DimID DESC LIMIT %d`, 1+r.Intn(4)),
		// ORDER BY on a strict prefix of the grouping columns: ties, so no
		// LIMIT (which tied rows it keeps is the strategy's to choose).
		`SELECT F.GroupID, D.Label, SUM(F.V), COUNT(*)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY F.GroupID, D.Label ORDER BY GroupID`,
		`SELECT F.GroupID, D.Label, SUM(F.V)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY F.GroupID, D.Label ORDER BY GroupID DESC`,
		// ORDER BY on all of them: a total order, with and without LIMIT.
		fmt.Sprintf(`SELECT F.GroupID, D.Label, MAX(F.V)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY F.GroupID, D.Label ORDER BY GroupID, Label LIMIT %d`, 1+r.Intn(8)),
		fmt.Sprintf(`SELECT F.GroupID, COUNT(F.FID), SUM(F.V)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY F.GroupID ORDER BY GroupID DESC LIMIT %d`, 1+r.Intn(6)),
	}
}

// pipelineQueries are the templates whose row-engine plans above one worker
// are pipelines of several stages ending in each kind of sink — partial group
// tables, and the collection behind the result, a sort, a TopK, DISTINCT, a
// merge join's inputs and a join's build side (the join strategies the oracle
// forces decide which). Dim is joined twice for the three-table shapes.
func pipelineQueries(r *rand.Rand) []string {
	cut := 20 + r.Intn(60)
	return []string{
		// filter → probe → group
		fmt.Sprintf(`SELECT F.GroupID, SUM(F.V), COUNT(*)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID AND F.V < %d
		 GROUP BY F.GroupID`, cut),
		// probe → DISTINCT project
		`SELECT DISTINCT D.Label, F.GroupID
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID`,
		// probe with a residual → ORDER BY … LIMIT, and → ORDER BY
		fmt.Sprintf(`SELECT F.FID, D.Label, F.V
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID AND F.V > D.DimID
		 ORDER BY FID LIMIT %d`, 1+r.Intn(40)),
		`SELECT F.FID, D.Label, F.V
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID AND F.V > D.DimID
		 ORDER BY FID DESC`,
		// probe → root, unordered: the collection itself
		fmt.Sprintf(`SELECT F.FID, D.Label
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID AND F.V < %d`, cut),
		// nested loop (no equi-key under any strategy) → group
		`SELECT D.DimID, COUNT(*), SUM(F.V)
		 FROM Fact F, Dim D WHERE F.V < D.DimID
		 GROUP BY D.DimID`,
		// probe → probe → group, and → root
		`SELECT D.Label, D2.Label, COUNT(*), SUM(F.V)
		 FROM Fact F, Dim D, Dim D2 WHERE F.DimID = D.DimID AND F.GroupID = D2.DimID
		 GROUP BY D.Label, D2.Label`,
		fmt.Sprintf(`SELECT F.FID, D.Label, D2.Label
		 FROM Fact F, Dim D, Dim D2 WHERE F.DimID = D.DimID AND F.GroupID = D2.DimID AND F.V < %d`, cut),
	}
}

// pipelineStores are the instances every pipeline template runs on: a random
// one, one whose Fact spans several morsels, one with no Fact rows at all (the
// empty source) and one whose every join key is NULL (a probe that emits
// nothing).
func pipelineStores(t *testing.T, r *rand.Rand) []*storage.Store {
	t.Helper()
	sweep := func(facts int) *storage.Store {
		store, err := workload.Sweep(workload.SweepParams{
			FactRows: facts, DimRows: 12, Groups: 9, MatchFraction: 0.8, Seed: r.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	nullKeys := sweep(0)
	for i := 0; i < 50; i++ {
		if err := nullKeys.Insert("Fact", value.Row{
			value.NewInt(int64(i)), value.Null, value.NewInt(int64(i % 7)), value.NewInt(int64(r.Intn(100))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return []*storage.Store{randomSweepStore(t, r), sweep(2*exec.MorselSize + 300), sweep(0), nullKeys}
}

// renameShapes are the paper's π_A as a pure rename — every input column, in
// order, under another name — over each input whose rows a collection takes
// as they lie: a hash group's finished rows and a stored table (the
// optimizer's own plans), DISTINCT's survivors and a TopK's buffer (a rename
// put over the optimizer's plan by hand).
func renameShapes(t *testing.T, store *storage.Store, r *rand.Rand) []*algebra.Project {
	t.Helper()
	plan := func(query string) algebra.Node {
		q, err := sql.ParseQuery(query)
		if err != nil {
			t.Fatalf("parsing %q: %v", query, err)
		}
		report, err := core.NewOptimizer(store).Optimize(q)
		if err != nil {
			t.Fatalf("optimizing %q: %v", query, err)
		}
		return report.Standard
	}
	renameOver := func(in algebra.Node) algebra.Node {
		items := make([]algebra.ProjItem, len(in.Schema()))
		for i, c := range in.Schema() {
			items[i] = algebra.ProjItem{E: expr.Column(c.ID.Table, c.ID.Name), As: expr.ColumnID{Name: fmt.Sprintf("r%d", i)}}
		}
		return &algebra.Project{Input: in, Items: items}
	}
	shapes := []struct {
		plan  algebra.Node
		input func(algebra.Node) bool
	}{
		{plan(`SELECT F.GroupID, SUM(F.V), COUNT(*)
			 FROM Fact F, Dim D WHERE F.DimID = D.DimID
			 GROUP BY F.GroupID`), func(n algebra.Node) bool { _, ok := n.(*algebra.GroupBy); return ok }},
		{plan(`SELECT F.FID, F.DimID, F.GroupID, F.V FROM Fact F`),
			func(n algebra.Node) bool { _, ok := n.(*algebra.Scan); return ok }},
		{renameOver(plan(`SELECT DISTINCT D.Label, F.GroupID
			 FROM Fact F, Dim D WHERE F.DimID = D.DimID`)),
			func(n algebra.Node) bool { p, ok := n.(*algebra.Project); return ok && p.Distinct }},
		{renameOver(plan(fmt.Sprintf(`SELECT F.FID, D.Label, F.V
			 FROM Fact F, Dim D WHERE F.DimID = D.DimID
			 ORDER BY FID DESC LIMIT %d`, 1+r.Intn(40)))),
			func(n algebra.Node) bool { l, ok := n.(*algebra.Limit); return ok && isSort(l.Input) }},
	}
	out := make([]*algebra.Project, len(shapes))
	for i, s := range shapes {
		p, ok := s.plan.(*algebra.Project)
		if !ok || p.Distinct || !s.input(p.Input) {
			t.Fatalf("rename shape %d is not a rename over its input:\n%s", i, algebra.Format(s.plan, nil))
		}
		for j, item := range p.Items {
			if c, ok := item.E.(*expr.ColumnRef); !ok || c.ID != p.Input.Schema()[j].ID {
				t.Fatalf("rename shape %d: item %d is %s, not the input's column %d", i, j, item.E, j)
			}
		}
		out[i] = p
	}
	return out
}

func isSort(n algebra.Node) bool { _, ok := n.(*algebra.Sort); return ok }

// checkRenameShape holds a rename — whose collection is its input's rows,
// handed over rather than collected — to one worker: at every count in
// rowWorkerCounts, in either source form, the same rows as the rename's input
// in their order, the same RowsOut at every node as one worker in that form,
// and the same Batches at the rename, whose stage still takes a morsel per
// chunk of the collection it no longer fills.
func checkRenameShape(t *testing.T, plan *algebra.Project, store *storage.Store) {
	t.Helper()
	in, _ := runWithStats(t, plan.Input, store, exec.Options{})
	want := rowStrings(in)
	for _, vectorize := range []bool{false, true} {
		one, oneCol := runWithStats(t, plan, store, exec.Options{Vectorize: vectorize})
		if !sameRowOrder(rowStrings(one), want) {
			t.Fatalf("vectorize=%v: the rename's rows are not its input's\n%s", vectorize, algebra.Format(plan, nil))
		}
		for _, workers := range rowWorkerCounts {
			rows, col := runWithStats(t, plan, store, exec.Options{Vectorize: vectorize, Parallelism: workers})
			if !sameRowOrder(rowStrings(rows), want) {
				t.Fatalf("vectorize=%v workers=%d: the rename's rows differ from one worker's\n%s", vectorize, workers, algebra.Format(plan, nil))
			}
			algebra.Walk(plan, func(n algebra.Node) {
				if got, w := col.Lookup(n).RowsOut.Load(), oneCol.Lookup(n).RowsOut.Load(); got != w {
					t.Fatalf("vectorize=%v workers=%d: %s RowsOut %d, one worker %d", vectorize, workers, n.Describe(), got, w)
				}
			})
			if got, w := col.Lookup(plan).Batches.Load(), oneCol.Lookup(plan).Batches.Load(); got != w {
				t.Fatalf("vectorize=%v workers=%d: the rename took %d morsels, one worker %d\n%s", vectorize, workers, got, w, algebra.Format(plan, nil))
			}
		}
	}
}

// TestSerialVsParallelOracle is the randomized serial ≡ parallel suite: at
// least 200 queries (40 under -short) over random workload tables, each
// checked across every JoinStrategy × GroupStrategy on both plans, and then
// every pipeline template and rename shape on every pipeline store.
func TestSerialVsParallelOracle(t *testing.T) {
	targetQueries := 200
	if testing.Short() {
		targetQueries = 40
	}
	r := rand.New(rand.NewSource(19940301))
	queries, checks := 0, 0
	for queries < targetQueries {
		switch r.Intn(5) {
		case 0: // Example 1 schema at random sizes.
			store, err := workload.EmployeeDepartment(30+r.Intn(150), 2+r.Intn(12))
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []string{
				workload.Example1Query,
				`SELECT D.Name, AVG(E.EmpID), COUNT(*)
				 FROM Employee E, Department D WHERE E.DeptID = D.DeptID
				 GROUP BY D.Name`,
			} {
				checks += oracleQuery(t, store, q)
				queries++
			}
		case 1: // Example 2 schema.
			store, err := workload.PartSupplier(30+r.Intn(120), 2+r.Intn(8))
			if err != nil {
				t.Fatal(err)
			}
			checks += oracleQuery(t, store,
				`SELECT S.SupplierNo, S.Name, COUNT(P.PartNo)
				 FROM Part P, Supplier S WHERE P.SupplierNo = S.SupplierNo
				 GROUP BY S.SupplierNo, S.Name`)
			queries++
		default: // Random fact/dimension instance with NULL-key rows.
			store := randomSweepStore(t, r)
			qs := sweepQueries(r)
			// Three random templates per instance keeps instance variety
			// and query variety balanced.
			for i := 0; i < 3; i++ {
				checks += oracleQuery(t, store, qs[r.Intn(len(qs))])
				queries++
			}
		}
	}
	for _, store := range pipelineStores(t, r) {
		for _, q := range pipelineQueries(r) {
			checks += oracleQuery(t, store, q)
			queries++
		}
		for _, plan := range renameShapes(t, store, r) {
			checkRenameShape(t, plan, store)
			checks++
		}
	}
	t.Logf("serial-vs-parallel oracle: %d queries, %d plan/strategy comparisons", queries, checks)
}

// TestEagerPlanShrinksJoinInput asserts Section 7's core claim on measured
// (not estimated) cardinalities: when each group spans many fact rows,
// performing the group-by before the join strictly reduces the rows entering
// join operators. With 5000 employees in 25 departments, the standard plan
// joins 5000+25 input rows while the eager plan joins only 25+25.
func TestEagerPlanShrinksJoinInput(t *testing.T) {
	store, err := workload.EmployeeDepartment(5000, 25)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sql.ParseQuery(workload.Example1Query)
	if err != nil {
		t.Fatal(err)
	}
	report, err := core.NewOptimizer(store).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if report.Alternative == nil {
		t.Fatal("Example 1 query did not produce a transformed plan")
	}
	measure := func(plan algebra.Node, parallelism int) int64 {
		rows, col := runWithStats(t, plan, store, exec.Options{Parallelism: parallelism})
		if len(rows) == 0 {
			t.Fatal("plan produced no rows")
		}
		return joinInputRows(plan, col)
	}
	for _, parallelism := range []int{0, oracleParallelism} {
		lazy := measure(report.Standard, parallelism)
		eager := measure(report.Alternative, parallelism)
		if eager >= lazy {
			t.Errorf("parallelism=%d: eager plan fed %d rows into joins, lazy fed %d — eager must be strictly smaller",
				parallelism, eager, lazy)
		}
		// The exact counts are deterministic for this workload: the lazy
		// plan joins every employee row, the eager plan one row per group.
		if lazy < 5000 {
			t.Errorf("parallelism=%d: lazy join input %d, want >= 5000 (all employee rows)", parallelism, lazy)
		}
		if eager > 100 {
			t.Errorf("parallelism=%d: eager join input %d, want <= 100 (one row per department-side group)", parallelism, eager)
		}
	}
}
