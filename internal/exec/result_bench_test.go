package exec_test

// BenchmarkResultPath is the layer benchmark of the result path — what the
// engine does with rows a breaker has finished, or a table holds, on their way
// to Run's caller: 48 000 Fact rows grouped to 37 000 groups under the paper's
// π_A, once as a pure rename (group → rename → root: the rows are the group
// table's own), once permuting the columns (group → π → root: a row made per
// group), and the bare table under a rename (scan → rename → root: the stored
// rows in a header slice of the caller's). The wide shape is the per-row plan
// the service's largest responses run: scan → filter → probe → column-permuting
// π → root, some 24 000 joined rows kept, each projected into the stage's
// scratch row and copied into the collection's slab — also under a cancellable
// context, where every tick is a load of the governor's flag, and streamed
// (exec.Shape.Stream, the shape made in each run) into a consumer that only
// counts, the path a served SELECT takes: no slab, no collection. At one and
// at two workers; run with -benchmem — allocs/op is the result path's per-row
// cost.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/value"
	"repro/internal/workload"
)

func BenchmarkResultPath(b *testing.B) {
	store, err := workload.Sweep(workload.SweepParams{
		FactRows: 48000, DimRows: 1000, Groups: 37000, MatchFraction: 1, Seed: 17,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, q := range []struct {
		name, text string
		governed   bool // also run under a cancellable context
	}{
		{"group-rename", `SELECT F.GroupID, COUNT(F.FID), SUM(F.V) FROM Fact F GROUP BY F.GroupID`, false},
		{"group-permute", `SELECT SUM(F.V), F.GroupID, COUNT(F.FID) FROM Fact F GROUP BY F.GroupID`, false},
		{"scan-rename", `SELECT F.FID, F.DimID, F.GroupID, F.V FROM Fact F`, false},
		{"wide", `SELECT F.FID, D.Label, F.V FROM Fact F, Dim D WHERE F.DimID = D.DimID AND F.V < 50`, true},
	} {
		plan := standardPlan(b, store, q.text)
		if _, ok := plan.(*algebra.Project); !ok {
			b.Fatalf("%s: plan root is %T, want the π_A", q.name, plan)
		}
		for _, par := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/par%d", q.name, par), func(b *testing.B) {
				benchRun(b, plan, store, exec.Options{Parallelism: par})
			})
			if q.governed {
				b.Run(fmt.Sprintf("%s/par%d/ctx", q.name, par), func(b *testing.B) {
					benchRun(b, plan, store, exec.Options{Parallelism: par, Context: ctx})
				})
				b.Run(fmt.Sprintf("%s/par%d/stream", q.name, par), func(b *testing.B) {
					res, err := exec.Run(plan, store, &exec.Options{Parallelism: par})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						var c rowCounter
						shape, err := exec.NewShape(plan)
						if err != nil {
							b.Fatal(err)
						}
						if err := shape.Stream(store, &exec.Options{Parallelism: par}, &c); err != nil {
							b.Fatal(err)
						}
						if c.n.Load() != int64(len(res.Rows)) {
							b.Fatalf("streamed %d rows, Run returns %d", c.n.Load(), len(res.Rows))
						}
					}
				})
			}
		}
	}
}

// rowCounter is a Consumer that only counts the rows it is handed.
type rowCounter struct{ n atomic.Int64 }

func (c *rowCounter) Begin(int) {}

func (c *rowCounter) Chunk(int) func(value.Row) error {
	return func(value.Row) error {
		c.n.Add(1)
		return nil
	}
}
