// Command gbj-server is the network daemon around the gbj engine: an
// HTTP/JSON query service with concurrent sessions over one shared catalog,
// snapshot-isolated queries, an admission-controlled memory pool, and a
// normalized-AST plan cache. See README.md for the API and the error-code
// table; internal/server holds the implementation.
//
// Usage:
//
//	gbj-server -addr :7432 -init seed.sql
//	gbj-server -pool 268435456 -per-query 4194304 -max-sessions 128
//
// Flags are validated up front — a malformed -addr, a parallelism below -1
// or a negative -mem-budget (gbj.Config.Validate), and (by server.New,
// before -init runs) a negative -pool, -per-query, -max-queue,
// -queue-timeout, -max-sessions or -plan-cache — and rejected with exit 2,
// never clamped. SIGINT/SIGTERM trigger a graceful shutdown:
// in-flight queries are cancelled through the server's root context,
// connections drain, and the process exits once nothing is left running.
//
// This binary is the one place the process root context is minted; inside
// internal/server every context derives from the request joined to that
// root (the sessionctx lint rule enforces it).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/cliutil"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7432", "listen address (host:port; host may be empty)")
	pool := flag.Int64("pool", 256<<20, "admission memory pool in bytes shared by all queries (0 = admission off)")
	perQuery := flag.Int64("per-query", 0, "full per-query lease in bytes (0 = pool/8); partial grants degrade the query instead of rejecting it")
	maxSessions := flag.Int("max-sessions", 0, "concurrent session cap (0 = unbounded); overflow is a typed admission error, HTTP 429")
	maxQueue := flag.Int("max-queue", 64, "admission queue depth once the pool is empty; beyond it queries are rejected with HTTP 429")
	queueTimeout := flag.Duration("queue-timeout", 5*time.Second, "longest a query waits in the admission queue before a 429 (0 = wait for the client deadline)")
	planCache := flag.Int("plan-cache", 256, "plan cache entries (0 = the engine's default, 256)")
	var knobs cliutil.EngineFlags
	knobs.Register(flag.CommandLine, map[string]string{
		"vectorize": "", "mem-budget": "",
		"parallelism": "executor workers per query (0=serial, -1=one per CPU)",
		"spill-dir":   "directory for spill temp files; with -mem-budget, over-budget operators spill instead of degrading",
	})
	initFile := flag.String("init", "", "SQL script to run at startup (schema and seed data)")
	flag.Parse()
	if err := cliutil.ValidateAddr(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "gbj-server:", err)
		os.Exit(2)
	}

	engine := gbj.New()
	cfg, err := knobs.Validate()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gbj-server:", err)
		os.Exit(2)
	}
	_ = engine.Configure(cfg) // cfg passed Validate, Configure's only rejection
	// The process root: cancelled by SIGINT/SIGTERM, handed to the server
	// so every request context joins it. The server is built before the
	// init script runs, so a flag it rejects exits before any work.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv, err := server.New(ctx, server.Config{
		Engine:        engine,
		PoolBytes:     *pool,
		PerQueryBytes: *perQuery,
		MaxQueue:      *maxQueue,
		QueueTimeout:  *queueTimeout,
		MaxSessions:   *maxSessions,
		PlanCacheSize: *planCache,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gbj-server:", err)
		os.Exit(2)
	}
	if *initFile != "" {
		data, err := os.ReadFile(*initFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gbj-server:", err)
			os.Exit(1)
		}
		if err := engine.RunScriptContext(context.Background(), string(data), os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "gbj-server: init script %s: %v\n", *initFile, err)
			os.Exit(1)
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gbj-server:", err)
		os.Exit(1)
	}
	fmt.Printf("gbj-server: listening on http://%s\n", ln.Addr())

	// On signal, drain gracefully; exit only after the drain finishes so
	// no in-flight response is cut off mid-body.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "gbj-server: shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "gbj-server: shutdown:", err)
		}
	}()
	if err := srv.Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, "gbj-server:", err)
		os.Exit(1)
	}
	stop()
	<-drained
}
