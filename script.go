package gbj

import (
	"context"
	"fmt"
	"io"

	"repro/internal/sql"
)

// RunScriptContext parses and executes a sequence of statements, writing
// SELECT results and EXPLAIN output to w. DDL and INSERT statements run
// silently; the first error stops execution. Cancellation aborts the
// in-flight statement (queries stop within one scheduling quantum) and stops
// the script. SELECT statements run exactly as QueryOptionsContext runs them.
func (e *Engine) RunScriptContext(ctx context.Context, text string, w io.Writer) error {
	stmts, err := sql.Parse(text)
	if err != nil {
		return err
	}
	for _, stmt := range stmts {
		if err := ctx.Err(); err != nil {
			return err
		}
		switch s := stmt.(type) {
		case *sql.SelectStmt:
			var sink boxSink
			if _, err := e.query(ctx, "", s, nil, false, &sink); err != nil {
				return err
			}
			res := sink.result()
			fmt.Fprint(w, res.String())
			fmt.Fprintf(w, "(%d rows)\n", len(res.Rows))
		case *sql.ExplainStmt:
			text, err := e.explain(s.Query)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, text)
		default:
			if err := e.write(insertTables(stmt), func() error { return e.execStmt(stmt) }); err != nil {
				return err
			}
		}
	}
	return nil
}

// ListObjects returns one display line per table and view in the catalog.
func (e *Engine) ListObjects() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []string
	cat := e.store.Catalog()
	for _, name := range cat.TableNames() {
		def, err := cat.Table(name)
		if err != nil {
			continue
		}
		tab, err := e.store.Table(name)
		rows := 0
		if err == nil {
			rows = tab.Len()
		}
		out = append(out, fmt.Sprintf("table %-20s %3d columns  %8d rows", name, len(def.Columns), rows))
	}
	for _, name := range cat.ViewNames() {
		out = append(out, fmt.Sprintf("view  %s", name))
	}
	if len(out) == 0 {
		out = append(out, "(no tables)")
	}
	return out
}
