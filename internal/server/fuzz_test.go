package server

// FuzzHandleQuery drives POST /v1/query with arbitrary request bodies
// through the real mux. Whatever arrives, the reply is one of two shapes — a
// QueryResponse both decoders accept, or an ErrorResponse whose code and
// status are a row of the fixed table in handlers.go — never a contained
// panic, and no goroutine outlives its request.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// errorTable is the status table of handlers.go, code → HTTP status.
var errorTable = map[string]int{
	"sql":             http.StatusBadRequest,
	"unknown_session": http.StatusNotFound,
	"timeout":         http.StatusRequestTimeout,
	"cancelled":       http.StatusRequestTimeout,
	"too_large":       http.StatusRequestEntityTooLarge,
	"admission":       http.StatusTooManyRequests,
	"spill":           http.StatusInternalServerError,
	"panic":           http.StatusInternalServerError,
	"unavailable":     http.StatusServiceUnavailable,
	"shutting_down":   http.StatusServiceUnavailable,
	"resource":        http.StatusInsufficientStorage,
}

// postRaw serves one request with the given body through the server's mux,
// no network in between.
func postRaw(ctx context.Context, s *Server, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func FuzzHandleQuery(f *testing.F) {
	for _, seed := range []string{
		// One per request-shaped row of TestErrorCodeTable, then the
		// shapes around them.
		`{"sql":"SELEC nonsense"}`,
		`{"sql":"SELECT x FROM NoSuchTable"}`,
		`{"sql":"` + groupByJoin + `","session":"s999999"}`,
		`{"sql":"SELECT 1"}x`,
		`{"sql":"SELECT 1"}}`,
		`{"sql":"SELECT 1"} {"sql":"SELECT 2"}`,
		`{"sql":"SELECT SUM(Hourly * 1e308 * 1e308) FROM Rate"}`,
		`{"sql":"` + groupByJoin + `"}` + "\n",
		`{"sql":"SELECT COUNT(EmpID) FROM Emp WHERE DeptID = :d","params":{"d":2}}`,
		`{"sql":"SELECT COUNT(EmpID) FROM Emp WHERE DeptID = :d","params":{"d":[1,{"x":null}]}}`,
		`{"sql":"SELECT DeptID, Hourly FROM Rate WHERE Hourly > :h ORDER BY DeptID","params":{"h":1e999}}`,
		`{"sql":"SELECT a.EmpID FROM Emp a, Emp b, Emp c, Emp d, Emp e"}`,
		`{"sql":"INSERT INTO kv VALUES (1, 1, 1)"}`,
		`{"sql":"  "}`,
		`{"sql":7}`,
		`[]`,
		`null`,
		``,
		"\xff\xfe{",
	} {
		f.Add([]byte(seed))
	}

	e := newTestEngine(f)
	e.SetMemoryBudget(1 << 20) // a fuzzed cross product answers 507, not an OOM
	s, err := New(context.Background(), Config{Engine: e, PlanCacheSize: 16})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = s.Shutdown(context.Background()) })

	f.Fuzz(func(t *testing.T, body []byte) {
		// Taken per request: a fuzz worker process runs goroutines of its
		// own that a count taken during set-up would miss.
		baseline := runtime.NumGoroutine()
		// The deadline bounds what the budget does not (a product holds no
		// state, and nothing caps a result's size); its 408 is a row of the
		// table.
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		defer cancel()
		rec := postRaw(ctx, s, "/v1/query", body)
		reply := rec.Body.Bytes()
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q on HTTP %d: %q", ct, rec.Code, reply)
		}
		if rec.Code == http.StatusOK {
			var got QueryResponse
			if err := decodeQueryResponse(reply, &got); err != nil {
				t.Fatalf("200 with a body the client cannot decode (%v): %q", err, reply)
			}
			want, err := referenceDecode(reply)
			if err != nil {
				t.Fatalf("200 with a body encoding/json rejects (%v): %q", err, reply)
			}
			if d := diffResponses(&got, want); d != "" {
				t.Fatalf("decoders disagree on a served response: %s\n%q", d, reply)
			}
		} else {
			var er ErrorResponse
			dec := json.NewDecoder(bytes.NewReader(reply))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&er); err != nil {
				t.Fatalf("HTTP %d with a body that is not an ErrorResponse (%v): %q", rec.Code, err, reply)
			}
			if status, ok := errorTable[er.Code]; !ok || status != rec.Code || er.Error == "" {
				t.Fatalf("HTTP %d code %q is not a row of the status table: %q", rec.Code, er.Code, reply)
			}
			if er.Code == "panic" {
				t.Fatalf("request body %q panicked the executor: %s", body, er.Error)
			}
		}
		settleGoroutines(t, baseline)
	})
}
