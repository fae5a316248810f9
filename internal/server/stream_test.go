package server

// The streamed response body: a served SELECT is encoded as the answering
// rung's plan makes its rows (responseBody), never collected first. Its
// bytes are appendQueryResponse's over the same rows at any worker count; a
// rung that fails part-way leaves nothing behind; a value JSON cannot carry
// fails the query before a byte is written; and the handler's allocations do
// not grow with the result.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/fault"
	"repro/internal/value"
	"repro/internal/workload"
)

// rowCollector is a gbj.RowSink that keeps a copy of every row, by chunk.
type rowCollector struct {
	cols   []string
	chunks [][]value.Row
}

func (s *rowCollector) Start(cols []string) { s.cols, s.chunks = cols, nil }

func (s *rowCollector) Begin(n int) { s.chunks = make([][]value.Row, n) }

func (s *rowCollector) Chunk(c int) func(value.Row) error {
	return func(row value.Row) error {
		s.chunks[c] = append(s.chunks[c], slices.Clone(row))
		return nil
	}
}

// collectedBody is appendQueryResponse over the rows the engine streams for
// q: what the handler's body must be, byte for byte.
func collectedBody(t testing.TB, e *gbj.Engine, q string, params map[string]any, degraded bool) []byte {
	t.Helper()
	var rc rowCollector
	if err := e.QueryStreamContext(context.Background(), q, &gbj.QueryOptions{Params: params}, &rc); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	body, err := appendQueryResponse(nil, rc.cols, slices.Concat(rc.chunks...), degraded)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return body
}

// serveQuery posts q to the handler, no network in between.
func serveQuery(t testing.TB, s *Server, q string, params map[string]any) *httptest.ResponseRecorder {
	t.Helper()
	req, err := json.Marshal(QueryRequest{SQL: q, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(context.Background(), s, "/v1/query", req)
}

// newServer builds a server without a listener, shut down at cleanup.
func newServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	return s
}

// TestStreamedBodyIsAppendQueryResponse: for every query of the serve
// oracle, at one worker and at four, the body the handler streams is
// appendQueryResponse's over the rows the engine hands a collecting sink.
func TestStreamedBodyIsAppendQueryResponse(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`INSERT INTO kv VALUES (1, 1, 2), (2, 1, 2), (3, 4, 8)`)
	s := newServer(t, Config{Engine: e})
	for _, par := range []int{1, 4} {
		reconfigure(t, e, func(c *gbj.Config) { c.Parallelism = par })
		for _, q := range slices.Concat(staticQueries, quiescedQueries) {
			rec := serveQuery(t, s, q.sql, q.params)
			if want := collectedBody(t, e, q.sql, q.params, false); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("par %d, %s: status %d, body\n%s\nwant\n%s", par, q.sql, rec.Code, rec.Body.Bytes(), want)
			}
		}
	}
}

// TestEmptyResultKeepsColumns: the header comes from the plan's schema, so
// a result without rows still names its columns.
func TestEmptyResultKeepsColumns(t *testing.T) {
	s := newServer(t, Config{Engine: newTestEngine(t)})
	rec := serveQuery(t, s, `SELECT EmpID, DeptID FROM Emp WHERE EmpID > 99`, nil)
	if want := `{"columns":["EmpID","DeptID"],"rows":[]}` + "\n"; rec.Code != http.StatusOK || rec.Body.String() != want {
		t.Fatalf("status %d, body %q; want %q", rec.Code, rec.Body.String(), want)
	}
}

// wideEngine is a star instance over which the serve_wide query returns
// about facts/2 rows of three columns.
func wideEngine(t testing.TB, facts int) *gbj.Engine {
	t.Helper()
	store, err := workload.Sweep(workload.SweepParams{FactRows: facts, DimRows: 1000, Groups: 1000, MatchFraction: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	return gbj.NewWithStore(store)
}

// The two serve_wide reads: 24 000 joined rows of three columns at 48 000
// facts, and shape (a), one row of four columns per Dim row.
const (
	wideQuery   = `SELECT F.FID, D.Label, F.V FROM Fact F, Dim D WHERE F.DimID = D.DimID AND F.V < 50`
	shapeAQuery = `SELECT D.DimID, D.Label, COUNT(F.FID), SUM(F.V) FROM Fact F, Dim D WHERE F.DimID = D.DimID GROUP BY D.DimID, D.Label`
)

// TestNonFiniteAfterRowsIsAnError: a DOUBLE JSON cannot carry, met after
// thousands of good rows — in a later chunk at four workers —, is a 400 sql
// naming the row counted from the start of the result, and the body is the
// error alone: nothing of the rows encoded before it.
func TestNonFiniteAfterRowsIsAnError(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`CREATE TABLE fl (id INTEGER PRIMARY KEY, x DOUBLE)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO fl VALUES `)
	for i := 1; i <= 3000; i++ {
		x := "1.5"
		if i == 2500 {
			x = "1e308"
		}
		fmt.Fprintf(&sb, "(%d, %s),", i, x)
	}
	e.MustExec(strings.TrimSuffix(sb.String(), ","))
	s := newServer(t, Config{Engine: e})
	for _, par := range []int{1, 4} {
		reconfigure(t, e, func(c *gbj.Config) { c.Parallelism = par })
		rec := serveQuery(t, s, `SELECT id, x * 10.0 FROM fl`, nil)
		var er ErrorResponse
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&er); err != nil || dec.More() {
			t.Fatalf("par %d: the body is not one error object: %v", par, err)
		}
		if rec.Code != http.StatusBadRequest || er.Code != "sql" || !strings.Contains(er.Error, "row 2500, column") {
			t.Errorf("par %d: %d %+v, want 400 sql naming row 2500", par, rec.Code, er)
		}
	}
}

// TestStreamedBodyRestartsPerRung: the eager plan's ORDER BY, the one
// operator a 500 kB budget sends to disk, fails a read of its merge after
// most rows are in the body; the lazy plan answers, and the body is
// exactly its rows — none of the failed rung's prefix left in front.
func TestStreamedBodyRestartsPerRung(t *testing.T) {
	store, err := workload.Sweep(workload.SweepParams{FactRows: 6000, DimRows: 1500, Groups: 10, MatchFraction: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e := gbj.NewWithStore(store)
	q := workload.SweepQueryGroupByDim + ` ORDER BY Label DESC`
	reconfigure(t, e, func(c *gbj.Config) { c.Mode = gbj.ModeNever })
	want := collectedBody(t, e, q, nil, false)
	reconfigure(t, e, func(c *gbj.Config) {
		c.Mode = gbj.ModeAlways
		c.MemoryBudget = 500_000
		c.SpillDir = t.TempDir()
	})
	s := newServer(t, Config{Engine: e})
	clean := fault.New(nil)
	reconfigure(t, e, func(c *gbj.Config) { c.Faults = clean })
	if rec := serveQuery(t, s, q, nil); !bytes.Equal(rec.Body.Bytes(), want) || e.Fallbacks() != 0 {
		t.Fatalf("fault-free: status %d, %d fallbacks", rec.Code, e.Fallbacks())
	}
	var events []fault.Event
	for tick := clean.Ticks() - 100; tick <= clean.Ticks(); tick++ {
		events = append(events, fault.Event{Tick: tick, Kind: fault.DiskReadFail})
	}
	reconfigure(t, e, func(c *gbj.Config) { c.Faults = fault.New(events) })
	rec := serveQuery(t, s, q, nil)
	if e.Fallbacks() != 1 {
		t.Fatalf("the merge's read fault made %d fallbacks, want 1", e.Fallbacks())
	}
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("status %d, %d body bytes; want the lazy plan's %d", rec.Code, rec.Body.Len(), len(want))
	}
}

// TestPartialLeaseEndsDegraded: a query admitted on a partial lease runs
// serially — one chunk, encoded straight into the body — and its body ends
// with the degraded flag.
func TestPartialLeaseEndsDegraded(t *testing.T) {
	e := wideEngine(t, 6000)
	reconfigure(t, e, func(c *gbj.Config) { c.Parallelism = 4 })
	s := newServer(t, Config{Engine: e, PoolBytes: 1 << 24, PerQueryBytes: 1 << 24, MaxQueue: 4})
	hog, err := s.adm.pool.Lease(context.Background(), 3<<22, 3<<22)
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Release()
	rec := serveQuery(t, s, wideQuery, nil)
	want := collectedBody(t, e, wideQuery, nil, true)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) || !bytes.HasSuffix(want, []byte(`],"degraded":true}`+"\n")) {
		t.Fatalf("status %d, body ends %q; want %d bytes ending in the degraded flag", rec.Code, rec.Body.Bytes()[max(rec.Body.Len()-40, 0):], len(want))
	}
}

// handlerAllocs is how often one served query of q allocates, the buffer
// pool warm: the recorder's body is grown to fit up front, so its one
// allocation does not depend on the size of the response either.
func handlerAllocs(t *testing.T, s *Server, q string) float64 {
	t.Helper()
	req, err := json.Marshal(QueryRequest{SQL: q})
	if err != nil {
		t.Fatal(err)
	}
	size := serveQuery(t, s, q, nil).Body.Len()
	return testing.AllocsPerRun(5, func() {
		rec := httptest.NewRecorder()
		rec.Body.Grow(size)
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(req)))
		if rec.Code != http.StatusOK || rec.Body.Len() != size {
			t.Fatalf("status %d, %d bytes, want %d", rec.Code, rec.Body.Len(), size)
		}
	})
}

// TestServedSelectDoesNotMaterialize: the handler allocates as often for
// the wide read's 32 000 rows as for its 2 000 — no row of the result is
// collected on its way into the body.
func TestServedSelectDoesNotMaterialize(t *testing.T) {
	const small, large, slack = 4000, 64000, 24
	allocs := func(facts int) float64 {
		return handlerAllocs(t, newServer(t, Config{Engine: wideEngine(t, facts)}), wideQuery)
	}
	got := allocs(large) - allocs(small)
	t.Logf("%d more facts allocate %.0f times more", large-small, got)
	if got > slack {
		t.Errorf("%d more facts allocate %.0f times more, want at most %d (none per row)", large-small, got, slack)
	}
}

// BenchmarkHandleQuery is the layer benchmark of a served SELECT: Handler()
// on a recorder, request decode to response body, over serve_wide's two
// reads — 24 000×3 joined rows and the 1 000×4 shape (a) — under its
// admission pool. Run with -benchmem.
func BenchmarkHandleQuery(b *testing.B) {
	s := newServer(b, Config{Engine: wideEngine(b, 48000), PoolBytes: 256 << 20, PerQueryBytes: 4 << 20, PlanCacheSize: 64})
	for _, q := range []struct{ name, sql string }{{"wide", wideQuery}, {"shape-a", shapeAQuery}} {
		req, err := json.Marshal(QueryRequest{SQL: q.sql})
		if err != nil {
			b.Fatal(err)
		}
		rec := serveQuery(b, s, q.sql, nil)
		var resp QueryResponse
		if err := decodeQueryResponse(rec.Body.Bytes(), &resp); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/%dx%d", q.name, len(resp.Rows), len(resp.Columns)), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(rec.Body.Len()))
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(req)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
				}
			}
		})
	}
}
