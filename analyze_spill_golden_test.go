package gbj

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// newSpillEngine builds a deterministic Fact/Dim database large enough that
// a 512-byte budget forces the stateful operators with more than a handful of
// entries to disk: the hash join partitions (grace join), a grouping of the
// Fact rows' 101 V values externalizes, and a bare ORDER BY runs as an
// external merge sort. A grouping of the eight Dim labels over the grace join
// externalizes too: while it reads the join's output, the merge of the join's
// runs holds the budget in file buffers.
// The data is generated, not random, so the spill byte counts in the goldens
// are exact.
func newSpillEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	var ddl strings.Builder
	ddl.WriteString(`
		CREATE TABLE Dim (K INTEGER PRIMARY KEY, Label CHARACTER(10));
		CREATE TABLE Fact (FID INTEGER PRIMARY KEY, K INTEGER, V INTEGER);`)
	ddl.WriteString("\nINSERT INTO Dim VALUES ")
	for k := 0; k < 8; k++ {
		if k > 0 {
			ddl.WriteString(", ")
		}
		fmt.Fprintf(&ddl, "(%d, 'L%02d')", k, k)
	}
	ddl.WriteString(";\nINSERT INTO Fact VALUES ")
	for i := 0; i < 200; i++ {
		if i > 0 {
			ddl.WriteString(", ")
		}
		fmt.Fprintf(&ddl, "(%d, %d, %d)", i, i%8, i*7%101)
	}
	if err := e.Exec(ddl.String()); err != nil {
		t.Fatal(err)
	}
	reconfigure(t, e, func(c *Config) {
		c.Mode = ModeNever
		c.MemoryBudget = 512
		c.SpillDir = t.TempDir()
	})
	return e
}

// TestExplainAnalyzeGoldenSpillJoin pins the analyze output of a grace hash
// join with external aggregation above it: the per-node annotations must
// carry the exact spill_bytes=, parts= and runs= counters, and the summary
// must report the total spilled bytes. The spill temp directory never
// appears in the output, so the bytes are host-independent.
func TestExplainAnalyzeGoldenSpillJoin(t *testing.T) {
	e := newSpillEngine(t)
	analyzeGolden(t, e, "analyze_spill_join", `
		SELECT D.Label, SUM(F.V)
		FROM Fact F, Dim D WHERE F.K = D.K
		GROUP BY D.Label`)
}

// TestExplainAnalyzeGoldenTopK pins the fused ORDER BY + LIMIT plan under
// the same tight budget: the TopK itself is bounded (n rows of state, no
// spill), while the join and aggregation below it still spill — locking the
// interaction of the Limit, the fused Sort's pass-through cardinality, and
// the spill counters in one plan.
func TestExplainAnalyzeGoldenTopK(t *testing.T) {
	e := newSpillEngine(t)
	analyzeGolden(t, e, "analyze_topk", `
		SELECT D.Label, SUM(F.V)
		FROM Fact F, Dim D WHERE F.K = D.K
		GROUP BY D.Label ORDER BY Label DESC LIMIT 3`)
}

// TestExplainAnalyzeGoldenExternalSort pins a bare ORDER BY (no LIMIT, so no
// TopK fusion is possible) running as an external merge sort: the Sort
// node's annotation must show its sorted runs and spilled bytes.
func TestExplainAnalyzeGoldenExternalSort(t *testing.T) {
	e := newSpillEngine(t)
	analyzeGolden(t, e, "analyze_external_sort", `
		SELECT F.FID, F.V FROM Fact F ORDER BY V, FID`)
}

// TestExplainAnalyzeGoldenExternalAggregation pins a grouping that goes
// external: DISTINCT over the Fact rows' 101 V values is a grouping on
// every column, whose table the 512-byte budget refuses, so it must show
// op=external, build= summed over its tables, and the spill_bytes= and
// parts= of the rows of the groups its first table refused.
func TestExplainAnalyzeGoldenExternalAggregation(t *testing.T) {
	e := newSpillEngine(t)
	analyzeGolden(t, e, "analyze_external_aggregation", `
		SELECT DISTINCT F.V FROM Fact F`)
}

// TestSpillRunStaysInsideItsBudget: a spill-capable run that ends without
// error held no more state than its budget — the high-water mark it reports
// counts admitted state only, not the charges the budget refused on the way
// to disk.
func TestSpillRunStaysInsideItsBudget(t *testing.T) {
	e := newSpillEngine(t)
	for _, q := range []string{
		`SELECT D.Label, SUM(F.V) FROM Fact F, Dim D WHERE F.K = D.K GROUP BY D.Label`,
		`SELECT F.FID, F.V FROM Fact F ORDER BY V, FID`,
		`SELECT DISTINCT F.V FROM Fact F`,
	} {
		a, err := e.QueryAnalyzedContext(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if g := a.Governance; g.SpillBytes == 0 || g.UsedBytes > g.BudgetBytes {
			t.Errorf("%s: spilled %d bytes holding %d bytes of state, want some spilled inside the budget of %d",
				q, g.SpillBytes, g.UsedBytes, g.BudgetBytes)
		}
	}
}
