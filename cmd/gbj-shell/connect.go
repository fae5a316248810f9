package main

// Client mode: with -connect the shell talks to a running gbj-server over
// its HTTP API instead of embedding an engine. SELECT and EXPLAIN text goes
// through /v1/query, everything else through /v1/exec; \stats shows the
// server's counters (sessions, plan-cache hit rate, admission ladder).

import (
	"bufio"
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
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	for {
		fmt.Print("gbj> ")
		if !scanner.Scan() {
			return 0
		}
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if handleConnectedCommand(c, trimmed) {
				return 0
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.HasSuffix(trimmed, ";") {
			continue
		}
		stmt := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(buf.String()), ";"))
		buf.Reset()
		if stmt == "" {
			continue
		}
		if err := runConnectedStatement(c, stmt); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	}
}

func runConnectedStatement(c *server.Client, stmt string) error {
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

// handleConnectedCommand executes a backslash command in client mode;
// returns true to exit.
func handleConnectedCommand(c *server.Client, cmd string) bool {
	switch strings.Fields(cmd)[0] {
	case `\quit`, `\q`:
		return true
	case `\stats`:
		ctx, done := queryContext()
		st, err := c.Stats(ctx)
		done()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return false
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
	case `\timing`:
		timing = !timing
		if timing {
			fmt.Println("timing is on")
		} else {
			fmt.Println("timing is off")
		}
	case `\timeout`:
		fields := strings.Fields(cmd)
		if len(fields) != 2 {
			fmt.Println(`usage: \timeout 30s|off`)
			return false
		}
		if fields[1] == "off" || fields[1] == "0" {
			queryTimeout = 0
			fmt.Println("timeout is off")
			return false
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil || d < 0 {
			fmt.Println(`usage: \timeout 30s|off`)
			return false
		}
		queryTimeout = d
		fmt.Printf("timeout: %v per query\n", d)
	default:
		fmt.Printf("unknown command %s in client mode (\\stats, \\timing, \\timeout, \\quit)\n", strings.Fields(cmd)[0])
	}
	return false
}
