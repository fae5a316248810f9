package server

// API basics over httptest: sessions, exec, query (with parameters and
// the plan cache), stats, and one test per row of the error-code table —
// the README's error-code ↔ typed-error mapping is executable here.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/value"
)

// newTestEngine seeds the schema every server test queries: the paper's
// Employee/Department shape, a per-department DOUBLE column (two of its
// values integral) and a writable kv table.
func newTestEngine(t testing.TB) *gbj.Engine {
	t.Helper()
	e := gbj.New()
	e.MustExec(`CREATE TABLE Dept (DeptID INTEGER PRIMARY KEY, Name CHARACTER(30))`)
	e.MustExec(`CREATE TABLE Emp (EmpID INTEGER PRIMARY KEY, DeptID INTEGER)`)
	e.MustExec(`INSERT INTO Dept VALUES (1, 'Eng'), (2, 'Ops'), (3, 'Sales')`)
	e.MustExec(`INSERT INTO Emp VALUES (1, 1), (2, 1), (3, 2), (4, 2), (5, 2), (6, 3)`)
	e.MustExec(`CREATE TABLE Rate (DeptID INTEGER PRIMARY KEY, Hourly DOUBLE)`)
	e.MustExec(`INSERT INTO Rate VALUES (1, 40.0), (2, 32.5), (3, 25.0)`)
	e.MustExec(`CREATE TABLE kv (id INTEGER PRIMARY KEY, grp INTEGER, val INTEGER)`)
	return e
}

// newTestServer stands up a Server over httptest and returns a client
// bound to it. Cleanup shuts everything down.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = newTestEngine(t)
	}
	s, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(sctx)
		ts.Close()
	})
	return s, NewClient(ts.URL, ts.Client())
}

const groupByJoin = `SELECT d.DeptID, d.Name, COUNT(e.EmpID) FROM Emp e, Dept d WHERE e.DeptID = d.DeptID GROUP BY d.DeptID, d.Name ORDER BY DeptID`

// TestNewRejectsNegativeConfig: every numeric Config field has one range
// rule, New's — zero is the default, a positive value is taken as it is, and
// a negative one is rejected by name, not clamped to zero (a negative pool
// would silently turn admission control off, a negative queue timeout would
// mean no deadline) or ignored (a negative plan-cache size). Each field is a
// subtest of its own.
func TestNewRejectsNegativeConfig(t *testing.T) {
	type row struct {
		set func(*Config)
		ok  bool
	}
	tests := []struct {
		field string
		rows  []row
	}{
		{"PoolBytes", []row{
			{func(c *Config) { c.PoolBytes = -1 << 30 }, false},
			{func(c *Config) { c.PoolBytes = -1 }, false},
			{func(c *Config) { c.PoolBytes = 0 }, true}, // admission control off
			{func(c *Config) { c.PoolBytes = 1 }, true},
			{func(c *Config) { c.PoolBytes = 1 << 20 }, true},
			{func(c *Config) { c.PoolBytes = 1 << 40 }, true},
		}},
		{"PerQueryBytes", []row{
			{func(c *Config) { c.PoolBytes, c.PerQueryBytes = 1<<20, -1 }, false},
			{func(c *Config) { c.PoolBytes, c.PerQueryBytes = 1<<20, 0 }, true}, // PoolBytes/8
			{func(c *Config) { c.PoolBytes, c.PerQueryBytes = 1<<20, 1<<20 }, true},
		}},
		{"MaxQueue", []row{
			{func(c *Config) { c.PoolBytes, c.MaxQueue = 1<<20, -1 }, false},
			{func(c *Config) { c.PoolBytes, c.MaxQueue = 1<<20, 0 }, true}, // no queue
			{func(c *Config) { c.PoolBytes, c.MaxQueue = 1<<20, 64 }, true},
		}},
		{"QueueTimeout", []row{
			{func(c *Config) { c.QueueTimeout = -time.Second }, false},
			{func(c *Config) { c.QueueTimeout = 0 }, true}, // the client's deadline
			{func(c *Config) { c.QueueTimeout = 5 * time.Second }, true},
		}},
		{"MaxSessions", []row{
			{func(c *Config) { c.MaxSessions = -100 }, false},
			{func(c *Config) { c.MaxSessions = -1 }, false}, // no "unbounded" sentinel: 0 already means that
			{func(c *Config) { c.MaxSessions = 0 }, true},   // unbounded
			{func(c *Config) { c.MaxSessions = 1 }, true},
			{func(c *Config) { c.MaxSessions = 64 }, true},
			{func(c *Config) { c.MaxSessions = 4096 }, true},
		}},
		{"PlanCacheSize", []row{
			{func(c *Config) { c.PlanCacheSize = -1 }, false},
			{func(c *Config) { c.PlanCacheSize = 0 }, true}, // the engine's cache as it is
			{func(c *Config) { c.PlanCacheSize = 16 }, true},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.field, func(t *testing.T) {
			for _, r := range tt.rows {
				cfg := Config{Engine: gbj.New()}
				r.set(&cfg)
				s, err := New(context.Background(), cfg)
				if r.ok {
					if err != nil {
						t.Errorf("%+v rejected: %v", cfg, err)
						continue
					}
					_ = s.Shutdown(context.Background())
				} else if err == nil || !strings.Contains(err.Error(), tt.field+" must be >= 0") {
					t.Errorf("%+v not rejected by name: %v", cfg, err)
				}
			}
		})
	}
}

func TestSessionLifecycleAndQuery(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, Config{PlanCacheSize: 16})
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.NewSession(ctx); err != nil {
		t.Fatal(err)
	}
	if c.Session() == "" {
		t.Fatal("no session id")
	}
	res, err := c.QueryDetail(ctx, groupByJoin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[1][2] != int64(3) {
		t.Fatalf("rows: %v", res.Rows)
	}
	// Parameters round-trip as int64 through JSON.
	res, err = c.QueryDetail(ctx, `SELECT COUNT(EmpID) FROM Emp WHERE DeptID = :d`, map[string]any{"d": 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != int64(3) {
		t.Fatalf("param query: %v", res.Rows)
	}
	// DML through /v1/exec is visible to subsequent queries.
	if err := c.Exec(ctx, `INSERT INTO kv VALUES (1, 1, 2), (2, 1, 2)`); err != nil {
		t.Fatal(err)
	}
	res, err = c.QueryDetail(ctx, `SELECT COUNT(id) FROM kv`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != int64(2) {
		t.Fatalf("post-DML count: %v", res.Rows)
	}
	// Warm runs hit the plan cache; stats report it. (The INSERT above
	// invalidated the cache — epoch bump — so the first rerun is a miss
	// and the second is the hit.)
	for i := 0; i < 2; i++ {
		if _, err := c.QueryDetail(ctx, groupByJoin, nil); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 1 || st.PlanCache.Hits < 1 {
		t.Fatalf("stats: %+v", st)
	}
	if err := c.CloseSession(ctx); err != nil {
		t.Fatal(err)
	}
	st, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 0 {
		t.Fatalf("sessions after close: %d", st.Sessions)
	}
}

// apiError asserts err is an *APIError with the given status and code.
func apiError(t *testing.T, err error, status int, code string) {
	t.Helper()
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error %v (%T) is not an *APIError", err, err)
	}
	if ae.Status != status || ae.Code != code {
		t.Fatalf("got HTTP %d code %q, want %d %q (%v)", ae.Status, ae.Code, status, code, err)
	}
}

func TestErrorCodeTable(t *testing.T) {
	ctx := context.Background()
	e := newTestEngine(t)
	s, c := newTestServer(t, Config{Engine: e})

	// 400 sql: parse errors.
	_, err := c.QueryDetail(ctx, `SELEC nonsense`, nil)
	apiError(t, err, http.StatusBadRequest, "sql")
	// 400 sql: bind errors.
	_, err = c.QueryDetail(ctx, `SELECT x FROM NoSuchTable`, nil)
	apiError(t, err, http.StatusBadRequest, "sql")
	err = c.Exec(ctx, `INSERT INTO NoSuchTable VALUES (1)`)
	apiError(t, err, http.StatusBadRequest, "sql")

	// 400 sql: a request body that is more than one JSON value, on either
	// route — the same value alone is served.
	for _, route := range []struct{ path, one string }{
		{"/v1/query", `{"sql":"SELECT COUNT(EmpID) FROM Emp"}`},
		{"/v1/exec", `{"sql":"INSERT INTO kv VALUES (9, 9, 9)"}`},
	} {
		path, one := route.path, route.one
		for _, tail := range []string{"x", "}", " " + one} {
			rec := postRaw(ctx, s, path, []byte(one+tail))
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatal(err)
			}
			if rec.Code != http.StatusBadRequest || er.Code != "sql" || !strings.Contains(er.Error, "bad request body") {
				t.Fatalf("%s with trailing %q: HTTP %d %+v, want 400 sql \"bad request body\"", path, tail, rec.Code, er)
			}
		}
		if rec := postRaw(ctx, s, path, []byte(one+" \n")); rec.Code != http.StatusOK {
			t.Fatalf("%s with trailing white space: HTTP %d %s", path, rec.Code, rec.Body)
		}
	}

	// 404 unknown_session: querying or closing a session that isn't open.
	c2 := NewClient(c.base, c.hc)
	c2.session = "s999999"
	_, err = c2.QueryDetail(ctx, groupByJoin, nil)
	apiError(t, err, http.StatusNotFound, "unknown_session")
	err = c2.CloseSession(ctx)
	apiError(t, err, http.StatusNotFound, "unknown_session")

	// 408 timeout: the client deadline expires mid-query.
	e.MustExec(`INSERT INTO kv VALUES (1, 1, 2)`)
	tctx, cancel := context.WithTimeout(ctx, time.Nanosecond)
	defer cancel()
	_, err = c.QueryDetail(tctx, groupByJoin, nil)
	if err == nil {
		t.Fatal("expected timeout error")
	}
	// A nanosecond deadline usually dies in the client transport before a
	// response arrives; either the transport's context error or the
	// server's 408 is acceptable.
	var ae *APIError
	if errors.As(err, &ae) && (ae.Status != http.StatusRequestTimeout) {
		t.Fatalf("timeout mapped to %d %s", ae.Status, ae.Code)
	}

	// 413 too_large: a request body past the fixed cap, on either route.
	big := strings.Repeat(" ", maxRequestBytes) + `SELECT COUNT(id) FROM kv`
	_, err = c.QueryDetail(ctx, big, nil)
	apiError(t, err, http.StatusRequestEntityTooLarge, "too_large")
	err = c.Exec(ctx, big)
	apiError(t, err, http.StatusRequestEntityTooLarge, "too_large")

	// 400 sql: a result JSON cannot carry — SUM overflows DOUBLE to +Inf.
	// Never a 2xx with an undecodable body.
	e.MustExec(`CREATE TABLE fl (id INTEGER PRIMARY KEY, x DOUBLE)`)
	e.MustExec(`INSERT INTO fl VALUES (1, 1e308), (2, 1e308)`)
	for _, q := range []string{`SELECT SUM(x) FROM fl`, `SELECT id, x * -10.0 FROM fl`} {
		_, err = c.QueryDetail(ctx, q, nil)
		apiError(t, err, http.StatusBadRequest, "sql")
		if !strings.Contains(err.Error(), "numeric value out of range") {
			t.Fatalf("%s: %v", q, err)
		}
	}

	// 507 resource: budget exceeded with no fallback plan and no spill.
	e.SetMemoryBudget(64)
	e.SetMode(gbj.ModeNever) // the lazy plan has no cheaper fallback
	_, err = c.QueryDetail(ctx, groupByJoin, nil)
	apiError(t, err, http.StatusInsufficientStorage, "resource")
	e.SetMemoryBudget(0)
	e.SetMode(gbj.ModeCost)
}

// TestNonFiniteDoubleIsAnError: the encoder refuses each value JSON has no
// number for, naming the row and the column, before it has produced a body.
func TestNonFiniteDoubleIsAnError(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		rows := []value.Row{
			{value.NewInt(1), value.NewFloat(2)},
			{value.NewInt(2), value.NewFloat(f)},
		}
		_, err := appendQueryResponse(nil, []string{"id", "x"}, rows, false)
		if err == nil || !strings.Contains(err.Error(), `row 2, column "x"`) {
			t.Errorf("%v: got error %v, want one naming row 2, column \"x\"", f, err)
		}
	}
}

// TestDoubleKeepsItsTypeOverHTTP: a DOUBLE whose value is integral is a
// float64 in-process and must be one over HTTP too.
func TestDoubleKeepsItsTypeOverHTTP(t *testing.T) {
	ctx := context.Background()
	e := newTestEngine(t)
	_, c := newTestServer(t, Config{Engine: e})
	e.MustExec(`CREATE TABLE fl (id INTEGER PRIMARY KEY, x DOUBLE)`)
	e.MustExec(`INSERT INTO fl VALUES (1, 2.0), (2, 0.5), (3, -3.0), (4, 1e21)`)
	for _, q := range []string{`SELECT id, x FROM fl`, `SELECT SUM(x), COUNT(id) FROM fl WHERE id < 4`} {
		direct, err := e.QueryOptionsContext(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.QueryDetail(ctx, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Rows, direct.Rows) {
			t.Fatalf("%s: HTTP %#v, direct %#v", q, res.Rows, direct.Rows)
		}
	}
}

// parkedWriter is a ResponseWriter whose Write blocks until released: a
// client that has stopped reading.
type parkedWriter struct {
	header  http.Header
	status  int
	body    bytes.Buffer
	parked  chan struct{} // closed when Write is first entered
	entered sync.Once
	release chan struct{}
}

func (w *parkedWriter) Header() http.Header { return w.header }
func (w *parkedWriter) WriteHeader(s int)   { w.status = s }
func (w *parkedWriter) Write(b []byte) (int, error) {
	w.entered.Do(func() { close(w.parked) })
	<-w.release
	return w.body.Write(b)
}

// TestSlowReaderHoldsNoPoolBytes: while a response is stuck in Write, its
// query's lease is already back in the pool and the next query is admitted
// at full budget.
func TestSlowReaderHoldsNoPoolBytes(t *testing.T) {
	ctx := context.Background()
	// One full lease is the whole pool: a lease held across Write would
	// degrade the second query (or queue it).
	s, c := newTestServer(t, Config{PoolBytes: 1 << 20, PerQueryBytes: 1 << 20, MaxQueue: 4})
	w := &parkedWriter{header: http.Header{}, parked: make(chan struct{}), release: make(chan struct{})}
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"sql":"SELECT COUNT(EmpID) FROM Emp"}`))
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(w, req)
	}()
	select {
	case <-w.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never reached Write")
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if p := st.Admission.Pool; p.Granted != 0 || p.Available != p.Total {
		t.Errorf("pool while the writer is parked: %+v, want nothing granted", *p)
	}
	resp, err := c.QueryDetail(ctx, groupByJoin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded {
		t.Error("second query degraded: the parked response still holds its lease")
	}
	close(w.release)
	<-done
	var got QueryResponse
	if err := decodeQueryResponse(w.body.Bytes(), &got); err != nil || w.status != http.StatusOK {
		t.Fatalf("parked response: status %d, %v", w.status, err)
	}
	if len(got.Rows) != 1 || got.Rows[0][0] != int64(6) {
		t.Fatalf("parked response rows: %v", got.Rows)
	}
}

func TestSessionLimitIsAdmissionError(t *testing.T) {
	ctx := context.Background()
	s, c := newTestServer(t, Config{MaxSessions: 2})
	// Direct (typed) surface.
	if _, err := s.createSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.createSession(); err != nil {
		t.Fatal(err)
	}
	_, err := s.createSession()
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("session overflow returned %T, want *AdmissionError", err)
	}
	if adm.Sessions != 2 {
		t.Fatalf("AdmissionError.Sessions = %d, want 2", adm.Sessions)
	}
	// HTTP surface.
	err = c.NewSession(ctx)
	apiError(t, err, http.StatusTooManyRequests, "admission")
	var cae *APIError
	if !errors.As(err, &cae) || !cae.IsAdmission() {
		t.Fatalf("client did not surface admission: %v", err)
	}
}

// TestServeOnListener exercises the real net path: Serve on a loopback
// listener, a health probe, then Shutdown unblocks Serve cleanly.
func TestServeOnListener(t *testing.T) {
	ctx := context.Background()
	s, err := New(ctx, Config{Engine: newTestEngine(t)})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	c := NewClient("http://"+ln.Addr().String(), nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.Health(ctx); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.QueryDetail(ctx, groupByJoin, nil); err != nil {
		t.Fatal(err)
	}
	// A header that never ends: the server answers 431 once it has read
	// maxHeaderBytes (plus net/http's slack) and closes the connection,
	// instead of buffering for as long as the peer keeps sending.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	go func() {
		// The write fails once the server has hung up; that is the point.
		_, _ = io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Pad: "+strings.Repeat("a", 2*maxHeaderBytes))
	}()
	// A reset instead of a clean close is as good; a read that is still
	// waiting at the deadline is the failure.
	answer, err := io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("endless header: connection still open: %v", err)
	}
	if !bytes.HasPrefix(answer, []byte("HTTP/1.1 431 ")) {
		t.Fatalf("endless header answered %q", answer)
	}
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v after Shutdown", err)
	}
	// The drained server answers 503 shutting_down, not connection reset,
	// while its handler is still mounted elsewhere.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after shutdown: %d", rec.Code)
	}
}
