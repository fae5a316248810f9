// Command gbj-shell is an interactive SQL shell on the gbj engine.
//
// Usage:
//
//	gbj-shell [-f script.sql] [-parallelism n] [-vectorize] [-nodes n] [-spill-dir dir]
//	gbj-shell -connect http://127.0.0.1:7432
//
// With -connect the shell is a network client of a running gbj-server:
// SELECTs go through /v1/query, DDL/DML through /v1/exec, and \stats shows
// the server's counters (sessions, plan-cache hit rate, admission ladder).
// Engine flags do not apply in client mode — the daemon owns the engine.
//
// With -nodes above 1 the engine runs every query on a simulated cluster:
// base tables are hash-partitioned across the nodes and plans ship rows
// through byte-accounted exchange operators. Bad flag values — a
// parallelism below -1, a node count below 1 — are rejected at startup
// (exit 2), never clamped.
//
// Statements end with ';'. SELECTs print result tables; EXPLAIN SELECT
// prints the optimizer's full decision (normalization, TestFD trace, both
// plans, cost-based choice). Shell commands:
//
//	\mode cost|always|never       set the optimizer mode
//	\tables                       list tables and views
//	\import file.csv table [hdr]  bulk-load CSV (hdr: first line names columns)
//	\analyze SELECT ...           run and show actual per-operator row counts,
//	                              estimates and q-errors (EXPLAIN ANALYZE)
//	\stats SELECT ...             run and show the per-operator metrics table
//	\timing                       toggle printing execution time after queries
//	\timeout 30s|off              set a per-query deadline
//	\budget 64MB|off              cap per-query operator state; an over-budget
//	                              eager plan degrades to the lazy plan
//	\spill dir|off                spill over-budget operator state to temp
//	                              files under dir instead of degrading
//	\retries [n]                  set the per-shipment link retry budget and
//	                              show the engine's recovery counters
//	                              (retries, redeliveries dropped, failovers,
//	                              degraded runs)
//	\quit                         exit
//
// Ctrl-C cancels the in-flight query — the shell itself stays up.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cliutil"
)

// timing reports whether \timing is on: queries print their elapsed time.
var timing bool

// queryTimeout is the \timeout deadline applied to each query, 0 for none.
var queryTimeout time.Duration

// inflight holds the cancel function of the running query, nil at the
// prompt; the SIGINT handler fires it so Ctrl-C aborts the query, not the
// shell.
var inflight atomic.Pointer[context.CancelFunc]

// queryContext returns the context a query should run under — the \timeout
// deadline, cancellable by SIGINT — and the cleanup to call when it
// finishes.
func queryContext() (context.Context, func()) {
	ctx := context.Background()
	cancelTimeout := func() {}
	if queryTimeout > 0 {
		ctx, cancelTimeout = context.WithTimeout(ctx, queryTimeout)
	}
	ctx, cancel := context.WithCancel(ctx)
	inflight.Store(&cancel)
	return ctx, func() {
		inflight.Store(nil)
		cancel()
		cancelTimeout()
	}
}

func main() {
	file := flag.String("f", "", "run statements from a file, then exit")
	knobs := cliutil.EngineFlags{Nodes: 1}
	knobs.Register(flag.CommandLine, map[string]string{
		"parallelism": "", "vectorize": "", "nodes": "", "link-retries": "",
		"spill-dir": "directory for spill temp files; with a \\budget set, over-budget operators spill to disk instead of degrading (empty = spilling off)",
	})
	connect := flag.String("connect", "", "URL of a running gbj-server (e.g. http://127.0.0.1:7432); the shell becomes a network client instead of embedding an engine")
	flag.Parse()
	engine := gbj.New()
	if err := knobs.Apply(engine); err != nil {
		fmt.Fprintln(os.Stderr, "gbj-shell:", err)
		os.Exit(2)
	}
	if *connect != "" {
		if err := cliutil.ValidateServerURL(*connect); err != nil {
			fmt.Fprintln(os.Stderr, "gbj-shell: -connect:", err)
			os.Exit(2)
		}
		if *file != "" {
			fmt.Fprintln(os.Stderr, "gbj-shell: -f is not supported with -connect (pipe statements on stdin instead)")
			os.Exit(2)
		}
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		for range sigc {
			if cancel := inflight.Load(); cancel != nil {
				(*cancel)()
				fmt.Fprintln(os.Stderr, "\ncancelling query...")
			} else {
				fmt.Fprintln(os.Stderr, "\ninterrupt — use \\quit to exit")
			}
		}
	}()
	if *connect != "" {
		os.Exit(runConnected(*connect))
	}

	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := engine.RunScriptContext(context.Background(), string(data), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Println("gbj-shell — group-by before join (Yan & Larson, ICDE 1994)")
	fmt.Println(`type SQL ending with ';', or \quit`)
	repl(os.Stdin, os.Stdout, os.Stderr, mode{
		statement: func(stmt string) error { return runStatement(engine, stmt) },
		command:   func(line string, fields []string) bool { return engineCommand(engine, line, fields) },
		more:      "...> ",
	})
}

// engineCommand executes a backslash command against the embedded engine;
// false when there is no such command.
func engineCommand(engine *gbj.Engine, line string, fields []string) bool {
	switch fields[0] {
	case `\mode`:
		if len(fields) != 2 {
			fmt.Println(`usage: \mode cost|always|never`)
			return true
		}
		switch fields[1] {
		case "cost":
			engine.SetMode(gbj.ModeCost)
		case "always":
			engine.SetMode(gbj.ModeAlways)
		case "never":
			engine.SetMode(gbj.ModeNever)
		default:
			fmt.Println(`usage: \mode cost|always|never`)
			return true
		}
		fmt.Printf("optimizer mode: %v\n", engine.Mode())
	case `\tables`:
		for _, obj := range engine.ListObjects() {
			fmt.Println(obj)
		}
	case `\import`:
		if len(fields) < 3 || len(fields) > 4 {
			fmt.Println(`usage: \import file.csv table [hdr]`)
			return true
		}
		f, err := os.Open(fields[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return true
		}
		defer f.Close()
		header := len(fields) == 4 && fields[3] == "hdr"
		n, err := engine.LoadCSV(fields[2], f, header)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return true
		}
		fmt.Printf("loaded %d rows into %s\n", n, fields[2])
	case `\analyze`:
		query := strings.TrimSpace(strings.TrimPrefix(line, `\analyze`))
		ctx, done := queryContext()
		a, err := engine.QueryAnalyzedContext(ctx, strings.TrimSuffix(query, ";"), nil)
		done()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return true
		}
		fmt.Println(a.String())
	case `\stats`:
		query := strings.TrimSpace(strings.TrimPrefix(line, `\stats`))
		ctx, done := queryContext()
		a, err := engine.QueryAnalyzedContext(ctx, strings.TrimSuffix(query, ";"), nil)
		done()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return true
		}
		printStats(a)
	case `\budget`:
		if len(fields) != 2 {
			fmt.Println(`usage: \budget 64MB|off`)
			return true
		}
		if fields[1] == "off" || fields[1] == "0" {
			engine.SetMemoryBudget(0)
			fmt.Println("memory budget is off")
			return true
		}
		n, err := parseBytes(fields[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return true
		}
		engine.SetMemoryBudget(n)
		fmt.Printf("memory budget: %d bytes per query\n", n)
	case `\spill`:
		if len(fields) != 2 {
			fmt.Println(`usage: \spill dir|off`)
			return true
		}
		if fields[1] == "off" {
			engine.SetSpillDir("")
			fmt.Println("spilling is off")
			return true
		}
		engine.SetSpillDir(fields[1])
		if engine.MemoryBudget() == 0 {
			fmt.Printf("spill directory: %s (inactive until a \\budget is set)\n", fields[1])
		} else {
			fmt.Printf("spill directory: %s\n", fields[1])
		}
	case `\retries`:
		if len(fields) == 2 {
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				fmt.Println(`usage: \retries [n]`)
				return true
			}
			if err := engine.SetLinkRetries(n); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return true
			}
		} else if len(fields) > 2 {
			fmt.Println(`usage: \retries [n]`)
			return true
		}
		rc := engine.RecoveryCounters()
		fmt.Printf("link retry budget: %d per shipment\n", engine.LinkRetries())
		fmt.Printf("retries=%d redeliveries_dropped=%d failovers=%d degraded=%d\n",
			rc.Retries, rc.RedeliveriesDropped, rc.Failovers, rc.Degraded)
	default:
		return false
	}
	return true
}

func runStatement(engine *gbj.Engine, stmt string) error {
	ctx, done := queryContext()
	defer done()
	start := time.Now()
	err := engine.RunScriptContext(ctx, stmt, os.Stdout)
	if err == nil && timing {
		fmt.Printf("Time: %v\n", time.Since(start).Round(time.Microsecond))
	}
	return err
}

// parseBytes reads a byte size with an optional KB/MB/GB (or K/M/G) suffix.
func parseBytes(s string) (int64, error) {
	upper := strings.ToUpper(strings.TrimSpace(s))
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		scale  int64
	}{{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}, {"B", 1}} {
		if strings.HasSuffix(upper, u.suffix) {
			upper, mult = strings.TrimSuffix(upper, u.suffix), u.scale
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(upper), 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad size %q: want e.g. 65536, 64KB, 1MB", s)
	}
	return n * mult, nil
}

// printStats renders the per-operator metrics of an analyzed query as a
// table: one line per plan node in pre-order, with cardinalities, wall
// time, hash-table shape, state size and morsel counts.
func printStats(a *gbj.Analysis) {
	width := len("operator")
	for _, nc := range a.Calibration.Nodes {
		if n := len(nc.Node.Describe()); n > width {
			width = n
		}
	}
	fmt.Printf("%-*s %9s %9s %12s %8s %8s %10s %8s\n",
		width, "operator", "rows_in", "rows_out", "time", "build", "hits", "state_b", "morsels")
	for _, nc := range a.Calibration.Nodes {
		m := nc.Metrics
		fmt.Printf("%-*s %9d %9d %12v %8d %8d %10d %8d\n",
			width, nc.Node.Describe(), m.RowsIn, m.RowsOut, time.Duration(m.WallNanos),
			m.BuildEntries, m.ProbeHits, m.StateBytes, m.Batches)
	}
	fmt.Printf("(%d rows)  workers=%d  max q-error: %.2f\n",
		len(a.Result.Rows), a.Metrics.Workers(), a.Calibration.MaxQError)
}
