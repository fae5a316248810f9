package gbj

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestDenseGroupKeyMixedColumn: a grouping on a DOUBLE column holding
// INTEGERs, DOUBLEs that hold one exactly and NULLs — 40 values, so its
// table goes dense — groups 3 with 3.0 and keeps NULL a group of its own;
// the same column with a 3.5 and a −0.0 late in the table sends the table
// from dense to hashed mid-stream. Grouped alone, grouped below a join on the
// column (the eager plan) or above it on the dimension's key (the lazy plan),
// in row and in batch form, at one worker and at two, and under a memory
// budget small enough that the grouping goes external, every run returns the
// reference evaluator's rows over the plan that ran.
func TestDenseGroupKeyMixedColumn(t *testing.T) {
	store := storage.NewStore(schema.NewCatalog())
	e := NewWithStore(store)
	e.MustExec(`
		CREATE TABLE Dim (id INTEGER PRIMARY KEY, label CHARACTER(8));
		CREATE TABLE Fact (fid INTEGER PRIMARY KEY, x DOUBLE, y DOUBLE, v INTEGER)`)
	for d := 1; d <= 40; d++ {
		e.MustExec(fmt.Sprintf(`INSERT INTO Dim VALUES (%d, 'L%d')`, d, d))
	}
	for i := range 300 {
		k := i*7%40 + 1
		x := []string{fmt.Sprint(k), fmt.Sprintf("%d.0", k), "NULL"}[i%3]
		y := x
		switch i {
		case 250:
			y = "3.5"
		case 260:
			y = "-0.0"
		}
		e.MustExec(fmt.Sprintf(`INSERT INTO Fact VALUES (%d, %s, %s, %d)`, i, x, y, i))
	}
	queries := []struct {
		text  string
		eager bool // ModeAlways groups Fact below the join
	}{
		{`SELECT F.x, COUNT(*), SUM(F.v) FROM Fact F GROUP BY F.x`, false},
		{`SELECT F.y, COUNT(*), SUM(F.v) FROM Fact F GROUP BY F.y`, false},
		{`SELECT D.id, COUNT(*), SUM(F.v) FROM Fact F, Dim D WHERE F.x = D.id GROUP BY D.id`, true},
		{`SELECT D.id, COUNT(*), SUM(F.v) FROM Fact F, Dim D WHERE F.y = D.id GROUP BY D.id`, true},
	}
	spillDir := t.TempDir()
	for _, q := range queries {
		for _, mode := range []Mode{ModeNever, ModeAlways} {
			for _, vectorize := range []bool{false, true} {
				for _, par := range []int{1, 2} {
					for _, budget := range []int64{0, 512} {
						name := fmt.Sprintf("mode=%v vectorize=%v par=%d budget=%d: %s", mode, vectorize, par, budget, q.text)
						reconfigure(t, e, func(c *Config) {
							c.Mode = mode
							c.Vectorize = vectorize
							c.Parallelism = par
							c.MemoryBudget, c.SpillDir = budget, ""
							if budget > 0 {
								c.SpillDir = spillDir
							}
						})
						a, err := e.QueryAnalyzedContext(context.Background(), q.text, nil)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						below := false
						algebra.Walk(a.Plan, func(n algebra.Node) {
							if j, ok := n.(*algebra.Join); ok {
								algebra.Walk(j.L, func(n algebra.Node) {
									_, ok := n.(*algebra.GroupBy)
									below = below || ok
								})
							}
						})
						if below != (q.eager && mode == ModeAlways) {
							t.Fatalf("%s: a grouping below the join is %v:\n%s", name, below, algebra.Format(a.Plan, nil))
						}
						if external := strings.Contains(a.String(), "op=external"); external != (budget > 0) {
							t.Fatalf("%s: op=external is %v:\n%s", name, external, a)
						}
						ref, err := workload.RefEval(a.Plan, store, nil)
						if err != nil {
							t.Fatal(err)
						}
						var sink boxSink // the reference's rows, boxed as Result's are
						sink.Start(a.Result.Columns)
						sink.Begin(1)
						emit := sink.Chunk(0)
						for _, row := range ref {
							if err := emit(row); err != nil {
								t.Fatal(err)
							}
						}
						if want := sink.result().Rows; !reflect.DeepEqual(a.Result.Rows, want) {
							t.Fatalf("%s:\n got %v\nwant %v", name, a.Result.Rows, want)
						}
					}
				}
			}
		}
	}
}
