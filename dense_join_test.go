package gbj

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/algebra"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestDenseJoinKeyDoubleProbe: a DOUBLE column joined to a dense INTEGER key
// — Dim.id runs 1…10, so the join probes Dim's join index by offset — matches
// where it holds the key's value exactly: 3.0 and 7 find their keys, 3.5, 0.5
// and 11.0 find none, NULL none. In row and in batch form, at one worker and
// at two, under the lazy plan and the eager one (Probe grouped by x below the
// join), every run returns the reference evaluator's rows over the plan that
// ran, and its one join builds on Dim (scanned, or projected from a scan).
func TestDenseJoinKeyDoubleProbe(t *testing.T) {
	store := storage.NewStore(schema.NewCatalog())
	e := NewWithStore(store)
	e.MustExec(`
		CREATE TABLE Dim (id INTEGER PRIMARY KEY, label CHARACTER(8));
		CREATE TABLE Probe (pid INTEGER PRIMARY KEY, x DOUBLE, v INTEGER)`)
	for d := 1; d <= 10; d++ {
		e.MustExec(fmt.Sprintf(`INSERT INTO Dim VALUES (%d, 'L%d')`, d, d))
	}
	for i, x := range []string{"3.0", "3.5", "NULL", "7", "3.0", "0.5", "11.0", "10.0", "3.5", "-1.0"} {
		e.MustExec(fmt.Sprintf(`INSERT INTO Probe VALUES (%d, %s, %d)`, i, x, i+1))
	}
	queries := []struct {
		text string
		rows int // 3.0 twice, 7 and 10.0 join: four rows, three groups
	}{
		{`SELECT P.pid, P.x, D.label FROM Probe P, Dim D WHERE P.x = D.id ORDER BY pid`, 4},
		{`SELECT D.id, D.label, COUNT(*), SUM(P.v) FROM Probe P, Dim D WHERE P.x = D.id GROUP BY D.id, D.label ORDER BY id`, 3},
	}
	for _, q := range queries {
		for _, mode := range []Mode{ModeNever, ModeAlways} {
			for _, vectorize := range []bool{false, true} {
				for _, par := range []int{1, 2} {
					name := fmt.Sprintf("mode=%v vectorize=%v par=%d: %s", mode, vectorize, par, q.text)
					reconfigure(t, e, func(c *Config) {
						c.Mode = mode
						c.Vectorize = vectorize
						c.Parallelism = par
					})
					a, err := e.QueryAnalyzedContext(context.Background(), q.text, nil)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					builds := 0
					algebra.Walk(a.Plan, func(n algebra.Node) {
						if j, ok := n.(*algebra.Join); ok {
							r := j.R
							if p, ok := r.(*algebra.Project); ok {
								r = p.Input
							}
							if s, ok := r.(*algebra.Scan); !ok || s.Table != "Dim" {
								t.Fatalf("%s: a join builds on %s, not on Dim", name, algebra.Format(j.R, nil))
							}
							builds++
						}
					})
					if builds != 1 {
						t.Fatalf("%s: %d joins", name, builds)
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
					if len(a.Result.Rows) != q.rows {
						t.Fatalf("%s: %d rows, want %d", name, len(a.Result.Rows), q.rows)
					}
				}
			}
		}
	}
}
