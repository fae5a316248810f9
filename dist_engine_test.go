package gbj

// Engine-level distributed tests: the public SetNodes surface, the
// local-vs-distributed equivalence through the full stack (parser,
// optimizer, certificate translation, cluster execution), one cluster plan
// per cached query, fallback-on-budget behavior, and the Section 7
// regression — on the Example 1 workload, EXPLAIN ANALYZE must show the
// eager distributed plan shipping strictly fewer exchange bytes than the
// lazy plan.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sql"
)

// example1Engine loads the paper's Example 1 workload at the given scale.
func example1Engine(t *testing.T, employees, departments int) *Engine {
	t.Helper()
	e := New()
	e.MustExec(`
		CREATE TABLE Department (DeptID INTEGER PRIMARY KEY, Name CHARACTER(30));
		CREATE TABLE Employee (EmpID INTEGER PRIMARY KEY, DeptID INTEGER)`)
	var sb strings.Builder
	for d := 0; d < departments; d++ {
		fmt.Fprintf(&sb, "INSERT INTO Department VALUES (%d, 'Dept%d');", d, d)
	}
	e.MustExec(sb.String())
	sb.Reset()
	for i := 0; i < employees; i++ {
		fmt.Fprintf(&sb, "INSERT INTO Employee VALUES (%d, %d);", i, i%departments)
		if i%500 == 499 {
			e.MustExec(sb.String())
			sb.Reset()
		}
	}
	if sb.Len() > 0 {
		e.MustExec(sb.String())
	}
	return e
}

// example1Query (gbj_test.go) is the workload's aggregate join.

// TestEngineDistributedOracle runs the randomized engine queries locally
// and on clusters of 2, 4 and 8 nodes, serial and parallel, with Vectorize
// on and off, asserting the same multiset under the same column names
// through the public API (every distributed plan passes the verifier,
// certificates included, or the query fails).
func TestEngineDistributedOracle(t *testing.T) {
	iterations := 120
	if testing.Short() {
		iterations = 25
	}
	r := rand.New(rand.NewSource(71994))
	for i := 0; i < iterations; i++ {
		e, query := buildEngineInstance(t, r)
		local, err := e.QueryOptionsContext(context.Background(), query, nil)
		if err != nil {
			t.Fatalf("iteration %d local: %v\nquery: %s", i, err, query)
		}
		want := canonicalRows(local)
		e.SetParallelism(1 + 3*r.Intn(2))
		e.SetDistStrategy([]DistStrategy{DistAuto, DistEager, DistLazy}[r.Intn(3)])
		e.SetVectorize(r.Intn(2) == 1)
		for _, nodes := range []int{2, 4, 8} {
			if err := e.SetNodes(nodes); err != nil {
				t.Fatal(err)
			}
			got, err := e.QueryOptionsContext(context.Background(), query, nil)
			if err != nil {
				t.Fatalf("iteration %d nodes=%d: %v\nquery: %s", i, nodes, err, query)
			}
			if !slices.Equal(want, canonicalRows(got)) {
				t.Fatalf("iteration %d nodes=%d diverged\nquery: %s\nlocal: %v\ndistributed: %v",
					i, nodes, query, want, canonicalRows(got))
			}
			if !slices.Equal(local.Columns, got.Columns) {
				t.Fatalf("iteration %d nodes=%d: columns %q, local %q\nquery: %s", i, nodes, got.Columns, local.Columns, query)
			}
		}
	}
}

// TestEngineNodeShardValidation: the public setter rejects a bad node count
// instead of clamping silently. The shard count is the cluster's own
// (dist.NewCluster's default; TestNewClusterRejectsBadTopology).
func TestEngineNodeShardValidation(t *testing.T) {
	e := New()
	if err := e.SetNodes(0); err == nil {
		t.Fatal("SetNodes(0) accepted")
	}
	if err := e.SetNodes(-2); err == nil {
		t.Fatal("SetNodes(-2) accepted")
	}
	if err := e.SetNodes(4); err != nil {
		t.Fatal(err)
	}
}

// TestEngineDistributedEagerShipsFewer is the Section 7 regression through
// EXPLAIN ANALYZE: on the Example 1 workload (100 employees per
// department), the eager distributed plan must report strictly fewer
// exchange bytes shipped than the lazy plan, with identical rows.
func TestEngineDistributedEagerShipsFewer(t *testing.T) {
	employees, departments := 10000, 100
	if testing.Short() {
		employees, departments = 1500, 30
	}
	e := example1Engine(t, employees, departments)
	if err := e.SetNodes(4); err != nil {
		t.Fatal(err)
	}

	shipped := map[DistStrategy]int64{}
	var rows [][]string
	for _, s := range []DistStrategy{DistEager, DistLazy} {
		e.SetDistStrategy(s)
		a, err := e.QueryAnalyzedContext(context.Background(), example1Query, nil)
		if err != nil {
			t.Fatalf("strategy %v: %v", s, err)
		}
		cb := a.Calibration.CommBytes()
		if cb <= 0 {
			t.Fatalf("strategy %v: no exchange bytes recorded", s)
		}
		if !strings.Contains(a.String(), "exchange bytes shipped:") {
			t.Fatalf("strategy %v: EXPLAIN ANALYZE output lacks the exchange bytes line:\n%s", s, a.String())
		}
		if !strings.Contains(a.String(), "ship=") {
			t.Fatalf("strategy %v: no per-exchange ship= annotation:\n%s", s, a.String())
		}
		shipped[s] = cb
		rows = append(rows, canonicalRows(a.Result))
	}
	if !slices.Equal(rows[0], rows[1]) {
		t.Fatal("eager and lazy strategies returned different rows")
	}
	if shipped[DistEager] >= shipped[DistLazy] {
		t.Fatalf("eager shipped %d bytes, lazy %d — eager must ship strictly fewer on Example 1",
			shipped[DistEager], shipped[DistLazy])
	}
	t.Logf("Example 1 on 4 nodes: eager ships %d bytes, lazy %d bytes (%.1fx)",
		shipped[DistEager], shipped[DistLazy], float64(shipped[DistLazy])/float64(shipped[DistEager]))
}

// TestEngineDistributedCostPrefersTransform: with communication in the
// cost model, the cost-based optimizer on a multi-node engine picks the
// transformed (group-before-join) plan for Example 1 — the Section 7
// distributed argument made operational.
func TestEngineDistributedCostPrefersTransform(t *testing.T) {
	e := example1Engine(t, 2000, 20)
	if err := e.SetNodes(4); err != nil {
		t.Fatal(err)
	}
	out, err := e.Explain(example1Query)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "chosen: transformed") {
		t.Fatalf("cost-based choice on a 4-node cluster did not pick the transformed plan:\n%s", out)
	}
}

// TestClusterRunsShareTheCachedPlan: a cluster query is compiled once, when
// its choice is made, under the engine's strategy: two analyzed runs execute
// one tree, the root of the cached choice's cluster plan.
func TestClusterRunsShareTheCachedPlan(t *testing.T) {
	e := example1Engine(t, 2000, 20)
	if err := e.SetNodes(4); err != nil {
		t.Fatal(err)
	}
	e.SetDistStrategy(DistLazy)
	var plans [2]algebra.Node
	for i := range plans {
		a, err := e.QueryAnalyzedContext(context.Background(), example1Query, nil)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = a.Plan
	}
	if plans[0] != plans[1] {
		t.Fatal("two runs of one cached query executed two cluster plans")
	}
	q, err := sql.ParseQuery(example1Query)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := e.planCache.Get(sql.Canonical(q))
	if !ok {
		t.Fatal("no cache entry for the query")
	}
	if dp := v.(*core.Choice).Plan.Dist; dp == nil || dp.Root != plans[0] || dp.Strategy != DistLazy {
		t.Fatalf("the runs did not execute the cached choice's cluster plan, compiled lazy: %+v", dp)
	}
}

// TestEngineDistributedInsertInvalidatesCluster: rows inserted after the
// first distributed query must appear in subsequent distributed results.
func TestEngineDistributedInsertInvalidatesCluster(t *testing.T) {
	e := example1Engine(t, 50, 5)
	if err := e.SetNodes(4); err != nil {
		t.Fatal(err)
	}
	before, err := e.QueryOptionsContext(context.Background(), `SELECT COUNT(E.EmpID) FROM Employee E`, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.MustExec(`INSERT INTO Employee VALUES (9999, 1)`)
	after, err := e.QueryOptionsContext(context.Background(), `SELECT COUNT(E.EmpID) FROM Employee E`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if before.Rows[0][0].(int64)+1 != after.Rows[0][0].(int64) {
		t.Fatalf("stale cluster: count %v before insert, %v after", before.Rows[0][0], after.Rows[0][0])
	}
}

// TestQueryOptionsBudgetHonouredDistributed: a per-query budget (the
// admission controller's lease) governs a query the same at any node
// count — one byte fits neither plan, so both topologies fail with a typed
// *ResourceError instead of the cluster silently running unbudgeted — and
// Serial sheds the cluster fragments' workers like it sheds local ones.
func TestQueryOptionsBudgetHonouredDistributed(t *testing.T) {
	for _, nodes := range []int{1, 4} {
		e := example1Engine(t, 200, 8)
		e.SetParallelism(4)
		if err := e.SetNodes(nodes); err != nil {
			t.Fatal(err)
		}
		_, err := e.QueryOptionsContext(context.Background(), example1Query, &QueryOptions{MemoryBudget: 1})
		var re *ResourceError
		if !errors.As(err, &re) {
			t.Errorf("nodes=%d: 1-byte per-query budget returned %v, want *ResourceError", nodes, err)
		}
		if _, err := e.QueryOptionsContext(context.Background(), example1Query, nil); err != nil {
			t.Errorf("nodes=%d: the per-query budget leaked into the next query: %v", nodes, err)
		}

		q, err := parseSelect(example1Query)
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.prepare("", q, &QueryOptions{Serial: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		at := attempt{dist: nodes > 1}
		if opts := p.execOptions(context.Background(), at, &outcome{}); opts.Parallelism != 0 || opts.Vectorize {
			t.Errorf("nodes=%d: Serial left parallelism=%d vectorize=%t", nodes, opts.Parallelism, opts.Vectorize)
		}
	}
}

// parkingClock is a fault-injector clock whose first reading blocks until
// released: a LinkDelay event on it parks a distributed query mid-shipment.
type parkingClock struct{ parked, release chan struct{} }

func (c *parkingClock) Now() time.Time {
	c.parked <- struct{}{}
	<-c.release
	return time.Time{}
}

// TestDistributedQueryDoesNotBlockWriter: the engine's lock is not held
// across cluster execution. With a distributed query parked mid-shipment a
// concurrent INSERT returns; the parked query still answers from the
// cluster it captured (its pre-insert rows); and the next query sees the
// insert, on a cluster rebuilt for the new epoch.
func TestDistributedQueryDoesNotBlockWriter(t *testing.T) {
	e := example1Engine(t, 200, 8)
	if err := e.SetNodes(4); err != nil {
		t.Fatal(err)
	}
	e.SetDistStrategy(DistEager)
	before, err := e.QueryOptionsContext(context.Background(), example1Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalRows(before)

	clock := &parkingClock{parked: make(chan struct{}, 1), release: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(clock.release) }) }
	defer release()
	e.SetFaultInjector(fault.NewLinkSchedule([]fault.Event{{Tick: 1, Kind: fault.LinkDelay}}).WithClock(clock))

	type answer struct {
		res *Result
		err error
	}
	parked := make(chan answer, 1)
	go func() {
		res, err := e.QueryOptionsContext(context.Background(), example1Query, nil)
		parked <- answer{res, err}
	}()
	select {
	case <-clock.parked:
	case a := <-parked:
		t.Fatalf("query finished without shipping anything (err=%v); nothing to park", a.err)
	case <-time.After(10 * time.Second):
		t.Fatal("distributed query never reached its first shipment")
	}

	wrote := make(chan error, 1)
	go func() { wrote <- e.Exec(`INSERT INTO Employee VALUES (100000, 0)`) }()
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("INSERT blocked behind a parked distributed query: the engine lock is held across cluster execution")
	}

	release()
	a := <-parked
	if a.err != nil {
		t.Fatalf("parked query: %v", a.err)
	}
	if !slices.Equal(want, canonicalRows(a.res)) {
		t.Fatal("parked query did not return its pre-insert rows")
	}

	e.SetFaultInjector(nil)
	after, err := e.QueryOptionsContext(context.Background(), example1Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetNodes(1); err != nil {
		t.Fatal(err)
	}
	local, err := e.QueryOptionsContext(context.Background(), example1Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalRows(after); slices.Equal(want, got) || !slices.Equal(canonicalRows(local), got) {
		t.Fatalf("query after the insert ran on a stale cluster:\n got %v\nwant %v", got, canonicalRows(local))
	}
}

// TestSerialQueryRunsSitesInTurn: QueryOptions.Serial reaches the cluster
// runner — the recovery policy a distributed rung executes under says so —
// and an ordinary query's does not. (What the runner does with it, and with
// a budget or a fault injector, is dist's TestSitesAtOnceRule.)
func TestSerialQueryRunsSitesInTurn(t *testing.T) {
	e := example1Engine(t, 200, 8)
	if err := e.SetNodes(4); err != nil {
		t.Fatal(err)
	}
	q, err := parseSelect(example1Query)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []*QueryOptions{nil, {}, {MemoryBudget: 1 << 20}, {Serial: true}} {
		p, err := e.prepare("", q, o, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := e.recoveryPolicy(p.set).Serial, o != nil && o.Serial; got != want {
			t.Errorf("options %+v: the cluster rung runs with Serial=%t, want %t", o, got, want)
		}
	}
}

// TestClusterEstimatesCountTheSites: on the cluster rung a per-node partial
// aggregate, the gather above it and a broadcast are measured summed over
// the sites, so their estimates are too (dist.Plan.EstRows). Every
// employee has a department and the departments are equally full: the
// estimates are exact, and EXPLAIN ANALYZE has to say so.
func TestClusterEstimatesCountTheSites(t *testing.T) {
	e := example1Engine(t, 4000, 50)
	if err := e.SetNodes(4); err != nil {
		t.Fatal(err)
	}
	e.SetDistStrategy(DistEager)
	a, err := e.QueryAnalyzedContext(context.Background(), example1Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Calibration.MaxQError != 1 {
		t.Errorf("max q-error %.2f on exact estimates, want 1.00:\n%s", a.Calibration.MaxQError, a)
	}
	a, err = e.QueryAnalyzedContext(context.Background(), `SELECT E.EmpID, D.Name FROM Employee E, Department D WHERE E.DeptID = D.DeptID`, nil)
	if err != nil {
		t.Fatal(err)
	}
	broadcasts := 0
	for _, nc := range a.Calibration.Nodes {
		if nc.Node.Describe() != "Exchange broadcast" {
			continue
		}
		broadcasts++
		if nc.Estimated != 200 || nc.Actual != 200 {
			t.Errorf("broadcast of 50 departments to 4 nodes: est=%d actual=%d, want 200 and 200", nc.Estimated, nc.Actual)
		}
	}
	if broadcasts != 1 {
		t.Errorf("%d broadcasts in the plan, want 1:\n%s", broadcasts, a)
	}
}

// TestRootGatherCountsItsRows: a plan whose root is a gather has no fragment
// above the exchange to count the rows it delivers — the run counts them, so
// the analysis shows the gather's row count and not a q-error of its own
// making.
func TestRootGatherCountsItsRows(t *testing.T) {
	e := example1Engine(t, 20, 4)
	if err := e.SetNodes(4); err != nil {
		t.Fatal(err)
	}
	a, err := e.QueryAnalyzedContext(context.Background(), `SELECT E.EmpID, D.Name FROM Employee E, Department D WHERE E.DeptID = D.DeptID`, nil)
	if err != nil {
		t.Fatal(err)
	}
	text := a.String()
	if !strings.Contains(text, "Exchange gather  -- 20 rows (est=20 q=1.00") || !strings.Contains(text, "max q-error: 1.00") {
		t.Errorf("the root gather of 20 rows does not read 20 rows at q=1.00:\n%s", text)
	}
}
