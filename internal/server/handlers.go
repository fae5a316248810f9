package server

// The HTTP/JSON API. One handler per route; every handler derives its
// context from the request joined to the server root (requestContext) and
// maps engine errors onto a fixed status-code table:
//
//	400 sql             parse/bind/plan errors, bad requests, a result
//	                    holding a non-finite DOUBLE (out of range for JSON)
//	404 unknown_session query names a session that does not exist
//	408 timeout         the request context's deadline expired
//	408 cancelled       the client went away mid-query
//	413 too_large       the request body exceeds maxRequestBytes
//	429 admission       typed *AdmissionError (pool/queue/session limits)
//	500 spill           *gbj.SpillError — disk failure during spilling
//	500 panic           *gbj.ExecPanicError — contained executor panic
//	503 unavailable     *gbj.UnavailableError — distributed degradation
//	503 shutting_down   the server's root context is cancelled
//	507 resource        *gbj.ResourceError — budget exceeded, no fallback
//
// The table is mirrored in README.md; changing one means changing both.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"repro"
	"repro/internal/obs"
)

// Wire types, shared with the Go client (client.go).

// SessionResponse answers POST /v1/session.
type SessionResponse struct {
	Session string `json:"session"`
}

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	// Session, when set, must name an open session; "" runs sessionless.
	Session string `json:"session,omitempty"`
	// SQL is a single SELECT statement.
	SQL string `json:"sql"`
	// Params are host-variable bindings (":name" references).
	Params map[string]any `json:"params,omitempty"`
}

// QueryResponse answers POST /v1/query.
type QueryResponse struct {
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
	// Degraded reports that admission granted a partial budget and the
	// query ran serially under it.
	Degraded bool `json:"degraded,omitempty"`
}

// ExecRequest is the body of POST /v1/exec (DDL/DML).
type ExecRequest struct {
	SQL string `json:"sql"`
}

// ExecResponse answers POST /v1/exec.
type ExecResponse struct {
	OK bool `json:"ok"`
}

// ErrorResponse is every non-2xx body. Code is the stable
// machine-readable name from the status table above.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// StatsResponse answers GET /v1/stats.
type StatsResponse struct {
	Sessions         int               `json:"sessions"`
	Queries          int64             `json:"queries"`
	Fallbacks        int64             `json:"fallbacks"`
	PlanCache        obs.CacheSnapshot `json:"plan_cache"`
	PlanCacheHitRate float64           `json:"plan_cache_hit_rate"`
	Admission        AdmissionStats    `json:"admission"`
}

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/session", s.handleSessionCreate)
	mux.HandleFunc("DELETE /v1/session/{id}", s.handleSessionClose)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/exec", s.handleExec)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.root.Err() != nil {
		s.writeError(w, s.root.Err())
		return
	}
	id, err := s.createSession()
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, SessionResponse{Session: id})
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	if err := s.closeSession(r.PathValue("id")); err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ExecResponse{OK: true})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	var req QueryRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		s.writeError(w, fmt.Errorf("empty sql"))
		return
	}
	sess, err := s.lookupSession(req.Session)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if s.root.Err() != nil {
		s.writeError(w, context.Canceled)
		return
	}
	tkt, err := s.adm.admit(ctx)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer tkt.release() // the error paths' net; the success path releases below
	bp := getBuffer()
	body, err := s.encodeQuery(ctx, &req, tkt, *bp)
	if err != nil {
		putBuffer(bp, body)
		s.writeError(w, err)
		return
	}
	// The whole body exists and the query has ended: what it leased goes
	// back before the socket is touched, so a reader that stalls holds a
	// buffer, not pool bytes.
	tkt.release()
	if sess != nil {
		atomic.AddInt64(&sess.queries, 1)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	// A broken connection surfaces to the client, not here.
	_, _ = w.Write(body)
	putBuffer(bp, body)
}

// encodeQuery runs the admitted query and appends its complete response
// body to b, each row as the plan makes it. Nothing has been written to the
// client when it returns, so every failure — the ladder's, or a value JSON
// cannot carry — still gets its row of the status table.
func (s *Server) encodeQuery(ctx context.Context, req *QueryRequest, tkt *ticket, b []byte) ([]byte, error) {
	opts := &gbj.QueryOptions{Params: req.Params}
	tkt.apply(opts)
	body := &responseBody{b: b, base: len(b)}
	err := s.engine.QueryStreamContext(ctx, req.SQL, opts, body)
	return body.end(err, tkt.serial)
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	var req ExecRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		s.writeError(w, fmt.Errorf("empty sql"))
		return
	}
	// Engine.Exec is not context-aware (DML is short); honor cancellation
	// and shutdown at the boundary instead.
	if err := ctx.Err(); err != nil {
		s.writeError(w, err)
		return
	}
	if err := s.engine.Exec(req.SQL); err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ExecResponse{OK: true})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cache := s.engine.PlanCacheStats()
	writeJSON(w, http.StatusOK, StatsResponse{
		Sessions:         s.sessionCount(),
		Queries:          s.adm.admitted.Load(),
		Fallbacks:        s.engine.Fallbacks(),
		PlanCache:        cache,
		PlanCacheHitRate: cache.HitRate(),
		Admission:        s.adm.stats(),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.root.Err() != nil {
		s.writeError(w, context.Canceled)
		return
	}
	writeJSON(w, http.StatusOK, ExecResponse{OK: true})
}

// maxRequestBytes bounds every request body: SQL text and its parameters,
// never data.
const maxRequestBytes = 1 << 20

// decodeJSON decodes a request body of at most maxRequestBytes — one JSON
// value and nothing after it but white space — with json.Number preserved,
// then normalizes parameter values: JSON has one number type, but the engine
// distinguishes int64 from float64, so integral numbers become int64.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.UseNumber()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	// dec.More() would let a stray '}' or ']' through; only io.EOF from the
	// next token proves the value was the whole body.
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("a second JSON value")
		}
		return fmt.Errorf("bad request body: trailing data: %w", err)
	}
	if q, ok := dst.(*QueryRequest); ok && q.Params != nil {
		for k, v := range q.Params {
			n, ok := v.(json.Number)
			if !ok {
				continue
			}
			if i, err := n.Int64(); err == nil {
				q.Params[k] = i
			} else if f, err := n.Float64(); err == nil {
				q.Params[k] = f
			} else {
				return fmt.Errorf("parameter %q: unparseable number %q", k, n.String())
			}
		}
	}
	return nil
}

// writeJSON answers with one of the small fixed-shape bodies; a query
// response is encoded by responseBody instead.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding cannot fail on these types; a broken connection surfaces to
	// the client, not here.
	_ = json.NewEncoder(w).Encode(body)
}

// writeError maps err onto the status table and writes the JSON error
// body.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, code := s.classify(err)
	writeJSON(w, status, ErrorResponse{Error: err.Error(), Code: code})
}

// classify implements the error → (status, code) table. Typed errors are
// matched with errors.As so wrapping never changes the mapping.
func (s *Server) classify(err error) (int, string) {
	var ae *AdmissionError
	if errors.As(err, &ae) {
		return http.StatusTooManyRequests, "admission"
	}
	if errors.Is(err, errUnknownSession) {
		return http.StatusNotFound, "unknown_session"
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge, "too_large"
	}
	var re *gbj.ResourceError
	if errors.As(err, &re) {
		return http.StatusInsufficientStorage, "resource"
	}
	var se *gbj.SpillError
	if errors.As(err, &se) {
		return http.StatusInternalServerError, "spill"
	}
	var pe *gbj.ExecPanicError
	if errors.As(err, &pe) {
		return http.StatusInternalServerError, "panic"
	}
	var ue *gbj.UnavailableError
	if errors.As(err, &ue) {
		return http.StatusServiceUnavailable, "unavailable"
	}
	if s.root.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return http.StatusServiceUnavailable, "shutting_down"
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusRequestTimeout, "timeout"
	}
	if errors.Is(err, context.Canceled) {
		return http.StatusRequestTimeout, "cancelled"
	}
	return http.StatusBadRequest, "sql"
}
