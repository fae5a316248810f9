// Command gbj-explain shows the optimizer's full decision for one query:
// the Section 3 normalization, the TestFD trace, both plans with estimated
// cardinalities, and the cost-based choice. Both plans are statically
// verified (plancheck) before they are shown, as before every query the
// engine runs: a plan that fails is an error, not output.
//
// The schema is loaded from a SQL script (CREATE TABLE / DOMAIN / VIEW and
// optional INSERTs for statistics); the query is read from the command line
// or stdin.
//
// Usage:
//
//	gbj-explain -schema schema.sql "SELECT ... GROUP BY ..."
//	gbj-explain -schema schema.sql < query.sql
//	gbj-explain -demo              # built-in Example 1 demonstration
//
// With -analyze, -timeout bounds the execution and -mem-budget caps its
// operator state; an over-budget eager plan degrades to the lazy plan and
// the analysis reports the fallback. Adding -spill-dir lets over-budget
// operators spill to temp files under that directory instead: the analysis
// then reports the spilled bytes and per-operator partition/run counts.
//
// With -nodes above 1 the query runs on a simulated cluster — base tables
// hash-partitioned across the nodes — and -analyze reports the exchange
// bytes each plan shipped. Bad flag values are rejected at startup (exit 2),
// never clamped.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/internal/cliutil"
)

const demoSchema = `
	CREATE TABLE Department (
		DeptID INTEGER PRIMARY KEY,
		Name CHARACTER(30));
	CREATE TABLE Employee (
		EmpID INTEGER PRIMARY KEY,
		LastName CHARACTER(30),
		FirstName CHARACTER(30),
		DeptID INTEGER,
		FOREIGN KEY (DeptID) REFERENCES Department);
	INSERT INTO Department VALUES (1, 'Sales'), (2, 'Eng');
	INSERT INTO Employee VALUES
		(1, 'Yan', 'W', 1), (2, 'Larson', 'P', 1), (3, 'A', 'A', 2);`

const demoQuery = `
	SELECT D.DeptID, D.Name, COUNT(E.EmpID)
	FROM Employee E, Department D
	WHERE E.DeptID = D.DeptID
	GROUP BY D.DeptID, D.Name`

func main() {
	schemaFile := flag.String("schema", "", "SQL script defining tables, views and data")
	demo := flag.Bool("demo", false, "explain the paper's Example 1 on a built-in schema")
	analyze := flag.Bool("analyze", false, "execute the chosen plan and annotate it with actual row counts, estimates and per-node q-errors (EXPLAIN ANALYZE)")
	trace := flag.Bool("trace", false, "with -analyze output, also print the hierarchical operator span trace as JSON")
	timeout := flag.Duration("timeout", 0, "deadline for -analyze execution (0 = none)")
	var knobs cliutil.EngineFlags
	knobs.Register(flag.CommandLine, map[string]string{
		"parallelism": "", "nodes": "", "link-retries": "",
		"vectorize":  "read stored tables as columnar batches; -analyze shows per-operator batch counts (morsels)",
		"mem-budget": "operator-state byte cap for -analyze execution (0 = unlimited); an over-budget eager plan degrades to the lazy plan and the output says so",
		"spill-dir":  "directory for spill temp files; with -mem-budget set, over-budget operators spill to disk instead of degrading (empty = spilling off)",
	})
	flag.Parse()

	engine := gbj.New()
	cfg, err := knobs.Validate()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gbj-explain:", err)
		os.Exit(2)
	}
	_ = engine.Configure(cfg) // cfg passed Validate, Configure's only rejection
	var query string
	switch {
	case *demo:
		engine.MustExec(demoSchema)
		query = demoQuery
	default:
		if *schemaFile == "" {
			fmt.Fprintln(os.Stderr, "gbj-explain: -schema or -demo is required")
			os.Exit(2)
		}
		data, err := os.ReadFile(*schemaFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := engine.Exec(string(data)); err != nil {
			fmt.Fprintln(os.Stderr, "loading schema:", err)
			os.Exit(1)
		}
		if flag.NArg() > 0 {
			query = strings.Join(flag.Args(), " ")
		} else {
			in, err := io.ReadAll(os.Stdin)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			query = string(in)
		}
	}

	if *analyze || *trace {
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		a, err := engine.QueryAnalyzedContext(ctx, query, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *analyze || !*trace {
			fmt.Print(a.String())
		}
		if *trace {
			os.Stdout.Write(a.TraceJSON)
			fmt.Println()
		}
		return
	}

	text, err := engine.Explain(query)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(text)
}
