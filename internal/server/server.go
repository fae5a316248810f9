// Package server is the gbj network query service: an HTTP/JSON daemon
// (stdlib net/http only) serving concurrent sessions over one shared
// gbj.Engine. Four pieces make concurrent service safe:
//
//   - Snapshot isolation comes from the engine itself: every query plans
//     under the engine's read lock, then executes against a frozen store
//     snapshot, so handler goroutines never block writers and never see a
//     half-published INSERT.
//   - The admission controller (admission.go) leases each query's memory
//     budget from a global exec.MemoryPool before the query may run, and
//     degrades before it rejects: a partial lease runs the query serially
//     with the smaller budget; only a saturated queue or an expired
//     admission deadline turns into a typed *AdmissionError (HTTP 429).
//   - The engine's plan cache (every engine has one; Config.PlanCacheSize
//     resizes it) memoizes plan selection across sessions; /v1/stats exposes its hit, miss,
//     eviction and invalidation counters.
//   - Shutdown cancels the server's root context, which every in-flight
//     request context is joined to — running queries abort within one
//     scheduling quantum, their spill files are swept by the per-query
//     cleanup, and handlers answer 503 shutting_down.
//
// Lifecycle contexts: New takes the caller's base context; request
// handlers derive from r.Context() joined to it. The package never
// fabricates a context of its own — the sessionctx lint analyzer enforces
// this ("no context.Background() in request paths").
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro"
)

// Config configures a Server. Engine is required; the zero value of every
// other field means "the default" (no admission pool, unbounded sessions,
// the engine's plan cache as it is), and New rejects a negative one.
type Config struct {
	// Engine is the shared query engine. Required.
	Engine *gbj.Engine
	// PoolBytes is the global memory pool all admitted queries lease their
	// budgets from; 0 disables admission control (every query admitted with
	// the engine's own budget).
	PoolBytes int64
	// PerQueryBytes is the budget a query asks the pool for; the pool may
	// grant as little as a quarter of it (the degradation seam). Defaults
	// to PoolBytes/8 when unset.
	PerQueryBytes int64
	// MaxQueue bounds how many queries may wait for pool capacity; a full
	// queue rejects with *AdmissionError rather than queueing deeper.
	MaxQueue int
	// QueueTimeout bounds how long an admitted-pending query may wait in
	// the pool queue; 0 waits as long as the request context allows.
	QueueTimeout time.Duration
	// MaxSessions bounds concurrently open sessions; 0 means unbounded.
	MaxSessions int
	// PlanCacheSize, when positive, resizes the engine's plan cache to that
	// many entries; 0 leaves it as it is (256 entries on a new engine).
	PlanCacheSize int
}

// Server serves the gbj HTTP API over one shared engine.
type Server struct {
	engine *gbj.Engine
	adm    *admission
	mux    *http.ServeMux

	// root is the server's lifetime context: Shutdown cancels it, and
	// every request context is joined to it (requestContext), which is how
	// a shutdown aborts in-flight queries.
	root context.Context
	stop context.CancelFunc

	mu          sync.Mutex
	sessions    map[string]*session
	nextSession uint64
	maxSessions int

	httpMu sync.Mutex
	http   *http.Server
}

// session is one client's registration. Sessions exist to bound
// concurrent clients (MaxSessions) and to attribute query counts; they
// hold no transaction state — isolation is per-query snapshot isolation.
type session struct {
	id      string
	queries int64
}

// errUnknownSession maps to HTTP 404.
var errUnknownSession = errors.New("unknown session")

// New builds a Server over cfg.Engine. ctx is the server's base context:
// cancelling it (or calling Shutdown) aborts every in-flight query.
func New(ctx context.Context, cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("server: Config.Engine is required")
	}
	for _, err := range []error{
		atLeastZero("PoolBytes", cfg.PoolBytes),
		atLeastZero("PerQueryBytes", cfg.PerQueryBytes),
		atLeastZero("MaxQueue", cfg.MaxQueue),
		atLeastZero("QueueTimeout", cfg.QueueTimeout),
		atLeastZero("MaxSessions", cfg.MaxSessions),
		atLeastZero("PlanCacheSize", cfg.PlanCacheSize),
	} {
		if err != nil {
			return nil, err
		}
	}
	if cfg.PoolBytes > 0 && cfg.PerQueryBytes > cfg.PoolBytes {
		return nil, fmt.Errorf("server: PerQueryBytes %d exceeds PoolBytes %d: no query could ever be admitted", cfg.PerQueryBytes, cfg.PoolBytes)
	}
	if cfg.PlanCacheSize > 0 {
		ec := cfg.Engine.Config()
		ec.PlanCacheSize = cfg.PlanCacheSize
		if err := cfg.Engine.Configure(ec); err != nil {
			return nil, err
		}
	}
	root, stop := context.WithCancel(ctx)
	s := &Server{
		engine:      cfg.Engine,
		adm:         newAdmission(cfg),
		root:        root,
		stop:        stop,
		sessions:    make(map[string]*session),
		maxSessions: cfg.MaxSessions,
	}
	s.mux = s.routes()
	return s, nil
}

// atLeastZero is the range rule of every numeric Config field: zero is its
// default and a negative value is rejected, never clamped or read as another
// setting.
func atLeastZero[T ~int | ~int64](field string, v T) error {
	if v < 0 {
		return fmt.Errorf("server: %s must be >= 0, got %v", field, v)
	}
	return nil
}

// Handler returns the server's HTTP handler (for Serve, tests, or
// embedding under another mux).
func (s *Server) Handler() http.Handler { return s.mux }

// What a connection may cost before it has sent a request: a header must
// arrive within readHeaderTimeout and fit in maxHeaderBytes.
const (
	readHeaderTimeout = 10 * time.Second
	maxHeaderBytes    = 64 << 10
)

// Serve accepts connections on ln until Shutdown or a listener error.
// Request base contexts are the server's root context, so cancelling the
// context passed to New tears down in-flight requests too.
func (s *Server) Serve(ln net.Listener) error {
	// No WriteTimeout: a query is bounded by its context, not by the socket.
	srv := &http.Server{
		Handler:           s.mux,
		BaseContext:       func(net.Listener) context.Context { return s.root },
		ReadHeaderTimeout: readHeaderTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
	s.httpMu.Lock()
	s.http = srv
	s.httpMu.Unlock()
	err := srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown stops the server: it cancels the root context — aborting every
// in-flight query, whose per-query spill cleanup then runs — and drains
// the HTTP listener (when Serve is running) until ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stop()
	s.httpMu.Lock()
	srv := s.http
	s.httpMu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

// requestContext joins the request's own context to the server root: the
// query dies when the client goes away or when the server shuts down,
// whichever comes first. The returned cancel must be called (it detaches
// the root watcher).
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	detach := context.AfterFunc(s.root, cancel)
	return ctx, func() { detach(); cancel() }
}

// createSession registers a session, enforcing MaxSessions with a typed
// *AdmissionError (HTTP 429): session slots are an admission-controlled
// resource just like pool bytes.
func (s *Server) createSession() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.maxSessions > 0 && len(s.sessions) >= s.maxSessions {
		return "", &AdmissionError{
			Reason:   fmt.Sprintf("session limit %d reached", s.maxSessions),
			Sessions: len(s.sessions),
		}
	}
	s.nextSession++
	id := fmt.Sprintf("s%06d", s.nextSession)
	s.sessions[id] = &session{id: id}
	return id, nil
}

// closeSession unregisters a session.
func (s *Server) closeSession(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[id]; !ok {
		return fmt.Errorf("session %q: %w", id, errUnknownSession)
	}
	delete(s.sessions, id)
	return nil
}

// lookupSession resolves a session id; "" (sessionless request) is
// allowed and returns nil.
func (s *Server) lookupSession(id string) (*session, error) {
	if id == "" {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("session %q: %w", id, errUnknownSession)
	}
	return sess, nil
}

// sessionCount returns the number of open sessions.
func (s *Server) sessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}
