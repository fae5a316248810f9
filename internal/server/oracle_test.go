package server

// The serve-oracle differential: 64 concurrent sessions of mixed
// DML/query traffic against the HTTP API, with every static-table result
// compared cell for cell — Go types included, so a DOUBLE that arrives as
// an int64 is a failure — against the single-caller Engine.QueryOptionsContext oracle,
// hot-table results checked against an arithmetic
// invariant that any torn snapshot breaks, and a full differential re-run
// after the storm quiesces. `make serve-oracle` runs this under -race.

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
)

// oracleRows runs the query directly on the engine — the single-caller
// oracle — and returns its rows.
func oracleRows(t *testing.T, e *gbj.Engine, q string, params map[string]any) [][]any {
	t.Helper()
	res, err := e.QueryOptionsContext(context.Background(), q, &gbj.QueryOptions{Params: params})
	if err != nil {
		t.Fatalf("oracle %q: %v", q, err)
	}
	return res.Rows
}

// oracleQuery is one query of the differential, with its parameters.
type oracleQuery struct {
	sql    string
	params map[string]any
}

// staticQueries must answer as the direct oracle does throughout the storm,
// because no writer touches Emp/Dept/Rate. The last one sums a DOUBLE column
// to integral values (80.0, 25.0).
var staticQueries = []oracleQuery{
	{groupByJoin, nil},
	{`SELECT COUNT(EmpID) FROM Emp WHERE DeptID = :d`, map[string]any{"d": 2}},
	{`SELECT d.Name, COUNT(e.EmpID) FROM Emp e, Dept d WHERE e.DeptID = d.DeptID GROUP BY d.Name ORDER BY Name`, nil},
	{`SELECT e.DeptID, SUM(r.Hourly), COUNT(e.EmpID) FROM Emp e, Rate r WHERE e.DeptID = r.DeptID GROUP BY e.DeptID ORDER BY DeptID`, nil},
}

// quiescedQueries are the full differential once the storm is over.
var quiescedQueries = []oracleQuery{
	{groupByJoin, nil},
	{`SELECT COUNT(EmpID) FROM Emp WHERE DeptID = :d`, map[string]any{"d": 2}},
	{`SELECT grp, SUM(val), COUNT(id) FROM kv GROUP BY grp ORDER BY grp`, nil},
	{`SELECT COUNT(id) FROM kv`, nil},
	{`SELECT DeptID, Hourly FROM Rate`, nil},
}

func TestServeOracleDifferential(t *testing.T) {
	ctx := context.Background()
	e := newTestEngine(t)
	s, c0 := newTestServer(t, Config{
		Engine:        e,
		PoolBytes:     1 << 28,
		PerQueryBytes: 1 << 20,
		MaxQueue:      256,
		MaxSessions:   128,
		PlanCacheSize: 64,
	})

	misses := e.PlanCacheStats().Misses
	want := make([][][]any, len(staticQueries))
	for i, q := range staticQueries {
		want[i] = oracleRows(t, e, q.sql, q.params)
	}

	const (
		sessions  = 64
		perClient = 6
	)
	var wg sync.WaitGroup
	var kvReads atomic.Int64
	errs := make(chan error, sessions)
	for cl := 0; cl < sessions; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := NewClient(c0.base, c0.hc)
			if err := c.NewSession(ctx); err != nil {
				errs <- fmt.Errorf("client %d: session: %w", cl, err)
				return
			}
			defer c.CloseSession(ctx)
			for i := 0; i < perClient; i++ {
				// Every fourth client is a writer: it inserts into the hot
				// table a row with val = 2*grp, keeping the invariant below.
				if cl%4 == 0 {
					id := 1000 + cl*perClient + i
					ins := fmt.Sprintf(`INSERT INTO kv VALUES (%d, %d, %d)`, id, id%5, 2*(id%5))
					if err := c.Exec(ctx, ins); err != nil {
						errs <- fmt.Errorf("client %d: insert: %w", cl, err)
						return
					}
				}
				switch (cl + i) % 4 {
				case 0, 1: // static differential
					qi := (cl + i) % len(staticQueries)
					resp, err := c.QueryDetail(ctx, staticQueries[qi].sql, staticQueries[qi].params)
					if err != nil {
						errs <- fmt.Errorf("client %d: static q%d: %w", cl, qi, err)
						return
					}
					if !reflect.DeepEqual(resp.Rows, want[qi]) {
						errs <- fmt.Errorf("client %d: static q%d diverged from oracle:\n got %#v\nwant %#v", cl, qi, resp.Rows, want[qi])
						return
					}
				case 2: // hot-table invariant: SUM(val) == 2*SUM(grp) by construction
					kvReads.Add(1)
					res, err := c.QueryDetail(ctx, `SELECT SUM(grp), SUM(val) FROM kv`, nil)
					if err != nil {
						errs <- fmt.Errorf("client %d: hot query: %w", cl, err)
						return
					}
					g, _ := res.Rows[0][0].(int64)
					v, _ := res.Rows[0][1].(int64)
					if res.Rows[0][0] != nil && v != 2*g {
						errs <- fmt.Errorf("client %d: torn snapshot: SUM(grp)=%d SUM(val)=%d", cl, g, v)
						return
					}
				case 3: // grouped hot query: same invariant per group
					kvReads.Add(1)
					res, err := c.QueryDetail(ctx, `SELECT grp, SUM(val), COUNT(id) FROM kv GROUP BY grp ORDER BY grp`, nil)
					if err != nil {
						errs <- fmt.Errorf("client %d: grouped hot query: %w", cl, err)
						return
					}
					for _, row := range res.Rows {
						grp := row[0].(int64)
						sum := row[1].(int64)
						n := row[2].(int64)
						if sum != 2*grp*n {
							errs <- fmt.Errorf("client %d: torn group %d: SUM(val)=%d over %d rows", cl, grp, sum, n)
							return
						}
					}
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Every INSERT goes to kv, so a write re-plans only the reads of kv: at
	// most one plan per read of it, and the static queries' first plans. The
	// static plans outlive the storm's writes: each static query hits.
	replans := e.PlanCacheStats().Misses - misses
	t.Logf("the storm re-planned %d times: %d reads of kv, %d static queries", replans, kvReads.Load(), len(staticQueries))
	if bound := kvReads.Load() + int64(len(staticQueries)); replans > bound {
		t.Fatalf("the storm re-planned %d times, want at most %d: writes to kv re-plan queries that do not read it", replans, bound)
	}
	misses = e.PlanCacheStats().Misses
	for _, q := range staticQueries {
		oracleRows(t, e, q.sql, q.params)
	}
	if n := e.PlanCacheStats().Misses - misses; n != 0 {
		t.Fatalf("%d of %d static queries were re-planned after a storm of writes to kv alone", n, len(staticQueries))
	}

	// Quiesced: the full differential — every query, HTTP vs direct
	// engine, identical values of identical Go types.
	for _, q := range quiescedQueries {
		resp, err := c0.QueryDetail(ctx, q.sql, q.params)
		if err != nil {
			t.Fatalf("post %q: %v", q.sql, err)
		}
		if w := oracleRows(t, e, q.sql, q.params); !reflect.DeepEqual(resp.Rows, w) {
			t.Fatalf("post-storm differential %q:\n got %#v\nwant %#v", q.sql, resp.Rows, w)
		}
	}

	// The storm shared plans: the cache served hits across sessions, and
	// the stats surface agrees with the engine's own counters.
	st, err := c0.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanCache.Hits == 0 {
		t.Fatalf("no plan-cache hits across %d sessions: %+v", sessions, st.PlanCache)
	}
	if st.Admission.Admitted == 0 || st.Admission.Rejected != 0 {
		t.Fatalf("admission stats: %+v", st.Admission)
	}
	if got := e.PlanCacheStats(); got != st.PlanCache {
		t.Fatalf("stats endpoint %+v != engine %+v", st.PlanCache, got)
	}
	_ = s
}
