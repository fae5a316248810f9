package main

// Client mode: with -connect the shell talks to a running gbj-server over
// its HTTP API instead of embedding an engine. SELECT and EXPLAIN text goes
// through /v1/query, everything else through /v1/exec; \stats shows the
// server's counters (sessions, plan-cache hit rate, admission ladder).

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/server"
)

// isQueryText reports whether a statement should go through /v1/query
// (rows back) rather than /v1/exec (DDL/DML).
func isQueryText(stmt string) bool {
	head := strings.ToUpper(strings.Fields(stmt)[0])
	return head == "SELECT" || head == "EXPLAIN"
}

// runConnected is the -connect REPL. It opens one session for the whole
// shell and closes it on \quit or EOF; Ctrl-C cancels the in-flight request
// through the same inflight mechanism as the embedded shell.
func runConnected(url string) int {
	c := server.NewClient(url, nil)
	ctx, done := queryContext()
	err := c.Health(ctx)
	done()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gbj-shell: server not reachable:", err)
		return 1
	}
	ctx, done = queryContext()
	err = c.NewSession(ctx)
	done()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gbj-shell:", err)
		return 1
	}
	defer func() {
		ctx, done := queryContext()
		defer done()
		_ = c.CloseSession(ctx)
	}()

	fmt.Printf("gbj-shell — connected to %s (session %s)\n", url, c.Session())
	fmt.Println(`type SQL ending with ';', \stats for server counters, or \quit`)
	repl(os.Stdin, os.Stdout, os.Stderr, mode{
		statement: func(stmt string) error { return runConnectedStatement(c, stmt) },
		command:   func(_ string, fields []string) bool { return connectedCommand(c, fields) },
		more:      "gbj> ",
		unknown:   ` in client mode (\stats, \timing, \timeout, \quit)`,
	})
	return 0
}

// runConnectedStatement sends one statement, its ';' dropped; an empty one
// is not sent.
func runConnectedStatement(c *server.Client, stmt string) error {
	stmt = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(stmt), ";"))
	if stmt == "" {
		return nil
	}
	ctx, done := queryContext()
	defer done()
	start := time.Now()
	if isQueryText(stmt) {
		res, err := c.QueryDetail(ctx, stmt, nil)
		if err != nil {
			return err
		}
		fmt.Print((&gbj.Result{Columns: res.Columns, Rows: res.Rows}).String())
		fmt.Printf("(%d rows)\n", len(res.Rows))
	} else {
		if err := c.Exec(ctx, stmt); err != nil {
			return err
		}
		fmt.Println("ok")
	}
	if timing {
		fmt.Printf("Time: %v\n", time.Since(start).Round(time.Microsecond))
	}
	return nil
}

// connectedCommand executes a backslash command in client mode; false when
// there is no such command.
func connectedCommand(c *server.Client, fields []string) bool {
	if fields[0] != `\stats` {
		return false
	}
	ctx, done := queryContext()
	st, err := c.Stats(ctx)
	done()
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return true
	}
	fmt.Printf("sessions=%d queries=%d fallbacks=%d\n", st.Sessions, st.Queries, st.Fallbacks)
	fmt.Printf("plan cache: hits=%d misses=%d evictions=%d hit rate=%.1f%%\n",
		st.PlanCache.Hits, st.PlanCache.Misses, st.PlanCache.Evictions, 100*st.PlanCacheHitRate)
	fmt.Printf("admission: admitted=%d degraded=%d rejected=%d timeouts=%d\n",
		st.Admission.Admitted, st.Admission.Degraded, st.Admission.Rejected, st.Admission.Timeouts)
	if p := st.Admission.Pool; p != nil {
		fmt.Printf("pool: total=%d available=%d granted=%d queued=%d\n",
			p.Total, p.Available, p.Granted, p.Queued)
	}
	return true
}
