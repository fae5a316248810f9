package gbj

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// newSpillFallbackEngine builds a database whose query state dwarfs a 64 KiB
// budget under BOTH plans: Dim is wide enough that even the lazy plan's join
// build side exceeds the budget, and Fact has as many distinct keys, so the
// eager plan's group table does too. Without a spill directory the query has
// nowhere to degrade to and must fail with *ResourceError; with one, every
// stateful operator partitions to disk and the query completes.
func newSpillFallbackEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	e.MustExec(`
		CREATE TABLE Dim (k INTEGER PRIMARY KEY, name CHARACTER(20));
		CREATE TABLE Fact (id INTEGER PRIMARY KEY, k INTEGER, v INTEGER)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO Dim VALUES `)
	for i := 0; i < 2000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'n%04d')", i, i)
	}
	e.MustExec(sb.String())
	sb.Reset()
	sb.WriteString(`INSERT INTO Fact VALUES `)
	for i := 0; i < 4000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d)", i, i%2000, i)
	}
	e.MustExec(sb.String())
	return e
}

const spillFallbackQuery = `
	SELECT D.k, D.name, SUM(F.v)
	FROM Fact F, Dim D
	WHERE F.k = D.k
	GROUP BY D.k, D.name`

// TestSpillCompletes64KiB is the headline acceptance contract of graceful
// spilling: a query that fails with *ResourceError at a 64 KiB budget (both
// plans exceed it, so even the eager-to-lazy fallback trips) completes once
// a spill directory is configured — with rows identical to the
// unlimited-budget run and a nonzero spilled-bytes count in the analysis.
func TestSpillCompletes64KiB(t *testing.T) {
	e := newSpillFallbackEngine(t)

	// The reference rows, with no budget at all.
	want, err := e.QueryOptionsContext(context.Background(), spillFallbackQuery, nil)
	if err != nil {
		t.Fatal(err)
	}

	// 64 KiB without a spill directory: typed resource error.
	e.SetMemoryBudget(64 << 10)
	_, err = e.QueryOptionsContext(context.Background(), spillFallbackQuery, nil)
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("64 KiB budget without spilling returned %v (%T), want *ResourceError", err, err)
	}

	// The same budget with a spill directory: the query completes by
	// partitioning to disk, and the rows are byte-identical.
	e.SetSpillDir(t.TempDir())
	res, err := e.QueryOptionsContext(context.Background(), spillFallbackQuery, nil)
	if err != nil {
		t.Fatalf("64 KiB budget with spilling failed: %v", err)
	}
	if fmt.Sprint(res.Rows) != fmt.Sprint(want.Rows) {
		t.Fatalf("spilled rows diverge from the unlimited-budget run\ngot %d rows, want %d", len(res.Rows), len(want.Rows))
	}

	// The analyzed path reports how much went to disk.
	a, err := e.QueryAnalyzedContext(context.Background(), spillFallbackQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Governance.SpillBytes <= 0 {
		t.Fatalf("Governance.SpillBytes = %d after a spilled query, want > 0", a.Governance.SpillBytes)
	}
	if !strings.Contains(a.String(), "spilled to disk:") {
		t.Errorf("analysis text missing the spill summary:\n%s", a.String())
	}
}

// TestSpillFailureFallsBack pins the degradation order when the disk itself
// fails: a spill directory that cannot be created (its path is a regular
// file) turns the eager plan's first spill into a *SpillError, the engine
// counts one fallback and re-runs the lazy plan in memory — which fits the
// budget — and the analyzed path names the spill failure as the reason.
func TestSpillFailureFallsBack(t *testing.T) {
	e := newFallbackEngine(t)

	eager := stateBytes(t, e, ModeAlways)
	lazy := stateBytes(t, e, ModeNever)
	if eager <= lazy {
		t.Fatalf("test data does not separate the plans: eager %d <= lazy %d", eager, lazy)
	}

	e.SetMode(ModeNever)
	want, err := e.QueryOptionsContext(context.Background(), fallbackQuery, nil)
	if err != nil {
		t.Fatal(err)
	}

	// A spill "directory" that is a file: the first Create fails mid-query.
	bad := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	e.SetMode(ModeAlways)
	e.SetMemoryBudget((eager + lazy) / 2)
	e.SetSpillDir(bad)

	res, err := e.QueryOptionsContext(context.Background(), fallbackQuery, nil)
	if err != nil {
		t.Fatalf("spill failure did not degrade to the lazy plan: %v", err)
	}
	if fmt.Sprint(res.Rows) != fmt.Sprint(want.Rows) {
		t.Fatalf("fallback rows diverge from the lazy plan's\ngot:  %v\nwant: %v", res.Rows, want.Rows)
	}
	if n := e.Fallbacks(); n != 1 {
		t.Fatalf("Fallbacks() = %d after one spill-failure fallback, want 1", n)
	}

	a, err := e.QueryAnalyzedContext(context.Background(), fallbackQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	text := a.String()
	for _, wantLine := range []string{"fallback:", "spill failed"} {
		if !strings.Contains(text, wantLine) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", wantLine, text)
		}
	}
	if n := e.Fallbacks(); n != 2 {
		t.Fatalf("Fallbacks() = %d after two spill-failure fallbacks, want 2", n)
	}
}
