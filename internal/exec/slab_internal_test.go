package exec

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/value"
)

// TestKeptRowsNeverAlias: a collection copies the rows it keeps into its
// workers' slabs, each row its own window. Writing to a kept row, or appending
// to it, leaves the rows beside it as they were — for a probe's joined rows and
// a permuting projection's, in the row and the batch form, at 1, 2, 3 and 8
// workers, across every chunk and page boundary of the result.
func TestKeptRowsNeverAlias(t *testing.T) {
	const n, keys = 10*MorselSize + 37, 50
	store, scan := keyedStore(t, "t", n, keys)
	plans := map[string]algebra.Node{
		"scan → probe → root": &algebra.Join{
			L:    scan,
			R:    keyedValuesPlan("r", keys, keys),
			Cond: expr.Eq(expr.Column("t", "k"), expr.Column("r", "k")),
		},
		"scan → filter → π → root": &algebra.Project{
			Input: &algebra.Select{Input: scan, Cond: expr.NewBinary(expr.OpGe, expr.Column("t", "v"), expr.IntLit(0))},
			Items: []algebra.ProjItem{
				{E: expr.Column("t", "v"), As: expr.ColumnID{Name: "v"}},
				{E: expr.Column("t", "k"), As: expr.ColumnID{Name: "k"}},
			},
		},
	}
	for name, plan := range plans {
		for _, workers := range []int{1, 2, 3, 8} {
			for _, vectorize := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/workers=%d/vectorize=%v", name, workers, vectorize), func(t *testing.T) {
					res, err := Run(plan, store, &Options{Parallelism: workers, Vectorize: vectorize})
					must(t, err)
					rows := res.Rows
					if len(rows) != n {
						t.Fatalf("%d rows, want %d", len(rows), n)
					}
					want := make([]string, len(rows))
					for i, row := range rows {
						want[i] = value.GroupKeyAll(row)
					}
					// Every odd row is written to and appended to; no even row moves.
					for i := 1; i < len(rows); i += 2 {
						rows[i][0] = value.NewString("written")
						rows[i] = append(rows[i], value.NewString("appended"))
					}
					for i := 0; i < len(rows); i += 2 {
						if got := value.GroupKeyAll(rows[i]); got != want[i] {
							t.Fatalf("row %d changed to %v when its neighbours were written and appended to", i, rows[i])
						}
					}
				})
			}
		}
	}
}

// TestDistinctSurvivorsHoldNoCollectedPage: DISTINCT over 100 000 rows with
// 10 survivors, each first seen 10 000 rows after the last, moves them to a
// slice and a slab of their own: the rows lie back to back, and the result's
// header slice is theirs alone — neither keeps the collected pages or the
// dropped rows' headers alive. At one worker and at two.
func TestDistinctSurvivorsHoldNoCollectedPage(t *testing.T) {
	const n, survivors = 100_000, 10
	src := keyedValuesPlan("t", n, 1)
	for i, row := range src.Rows {
		row[0] = value.NewInt(int64(i / (n / survivors)))
	}
	plan := &algebra.Project{Distinct: true, Input: src, Items: []algebra.ProjItem{
		{E: expr.Column("t", "k"), As: expr.ColumnID{Name: "k"}},
	}}
	for _, workers := range []int{1, 2} {
		res, err := Run(plan, nil, &Options{Parallelism: workers})
		must(t, err)
		rows := res.Rows
		if len(rows) != survivors || cap(rows) != survivors {
			t.Fatalf("workers=%d: %d survivors in a header slice of %d, want %d in %d", workers, len(rows), cap(rows), survivors, survivors)
		}
		base := uintptr(unsafe.Pointer(&rows[0][0]))
		for i, row := range rows {
			if row[0].Int() != int64(i) {
				t.Fatalf("workers=%d: survivor %d is %v", workers, i, row)
			}
			if at := uintptr(unsafe.Pointer(&row[0])); at != base+uintptr(i)*unsafe.Sizeof(value.Value{}) {
				t.Fatalf("workers=%d: survivor %d still lies where it was collected", workers, i)
			}
		}
	}
}
