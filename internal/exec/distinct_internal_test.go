package exec

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// distinctOf is π_D over in: the named columns of table, in that order.
func distinctOf(in algebra.Node, table string, cols ...string) *algebra.Project {
	p := &algebra.Project{Distinct: true, Input: in}
	for _, c := range cols {
		p.Items = append(p.Items, algebra.ProjItem{E: expr.Column(table, c), As: expr.ColumnID{Name: c}})
	}
	return p
}

// TestDistinctRowsEveryWay: π_D is a grouping on every column, and it returns
// the reference evaluator's rows (the first row of each =ⁿ class, in input
// order) however it runs: at 1, 2, 3 and 8 workers, in row and batch form,
// with and without a spill manager under a budget its table does not fit;
// over a stored table (hash), over an input sorted on its column (the
// streaming pass, the only one that streams), and over rows with NULLs and
// ints beside equal floats, where the first of the two is kept.
func TestDistinctRowsEveryWay(t *testing.T) {
	store, scan := keyedStore(t, "t", 5000, 100)
	mixed := keyedValuesPlan("m", 3000, 1)
	for i, row := range mixed.Rows {
		switch k := int64(i*7%23) - 3; {
		case k < 0:
			row[0] = value.Null
		case i%2 == 0:
			row[0] = value.NewFloat(float64(k))
		default:
			row[0] = value.NewInt(k)
		}
		row[1] = value.NewInt(int64(i % 5))
	}
	sorted := &algebra.Sort{Input: scan, Keys: []algebra.SortItem{{Col: expr.ColumnID{Table: "t", Name: "k"}}}}
	for _, tc := range []struct {
		name   string
		plan   *algebra.Project
		stream bool // the input's order proves the rows clustered
	}{
		{"k", distinctOf(scan, "t", "k"), false},
		{"v, k", distinctOf(scan, "t", "v", "k"), false},
		{"k over sorted k", distinctOf(sorted, "t", "k"), true},
		{"mixed kinds and NULLs", distinctOf(mixed, "m", "v", "k"), false},
	} {
		want, err := workload.RefEval(tc.plan, store, nil)
		must(t, err)
		for _, workers := range []int{1, 2, 3, 8} {
			for _, vectorize := range []bool{false, true} {
				for _, spill := range []bool{false, true} {
					where := fmt.Sprintf("%s, workers=%d, vectorize=%v, spill=%v", tc.name, workers, vectorize, spill)
					opts := &Options{Parallelism: workers, Vectorize: vectorize, Metrics: obs.NewCollector()}
					var mgr *storage.SpillManager
					if spill {
						mgr = storage.NewSpillManager(t.TempDir())
						opts.Spill, opts.MemoryBudget = mgr, 2<<10
					}
					res, err := Run(tc.plan, store, opts)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if !workload.SameRows(res.Rows, want) {
						t.Fatalf("%s: %d rows %v…, want %d rows %v…", where, len(res.Rows), head(res.Rows), len(want), head(want))
					}
					if op := *opts.Metrics.Lookup(tc.plan).Operator.Load(); (op == "stream") != tc.stream {
						t.Fatalf("%s: π_D ran as %s", where, op)
					}
					if mgr != nil && mgr.Live() != 0 {
						t.Fatalf("%s: %d spill files left", where, mgr.Live())
					}
					if mgr != nil && tc.name == "v, k" && mgr.Created() == 0 {
						t.Fatalf("%s: %d groups under a %d-byte budget did not spill", where, len(want), opts.MemoryBudget)
					}
				}
			}
		}
	}
}

// head is the first few rows of rows, for a failure message.
func head(rows []value.Row) []value.Row { return rows[:min(len(rows), 5)] }

// TestDistinctHoldsGroupsNotRows: DISTINCT folds its projected rows into group
// tables as the projection emits them, so what a run allocates depends on the
// number of distinct rows and not on the number of input rows: 100 distinct
// values over 10 000 and over 160 000 rows allocate the same bytes, within
// 10 %, at one worker and at two.
func TestDistinctHoldsGroupsNotRows(t *testing.T) {
	const small, large, keys = 10_000, 160_000, 100
	for _, workers := range []int{1, 2} {
		bytes := func(n int) int64 {
			plan := distinctOf(keyedValuesPlan("t", n, keys), "t", "k") // built outside the measurement
			return allocated(func() {
				res, err := Run(plan, nil, &Options{Parallelism: workers})
				must(t, err)
				if len(res.Rows) != keys {
					t.Fatalf("%d distinct rows, want %d", len(res.Rows), keys)
				}
			})
		}
		lo, hi := bytes(small), bytes(large)
		t.Logf("workers=%d: %d rows allocate %d bytes, %d rows %d bytes", workers, small, lo, large, hi)
		if 10*hi > 11*lo || 10*lo > 11*hi {
			t.Errorf("workers=%d: DISTINCT of %d values over %d rows allocates %d bytes, over %d rows %d bytes: want the same within 10 %%",
				workers, keys, small, lo, large, hi)
		}
	}
}

// TestDistinctUnderBudget: DISTINCT's groups are budgeted state. 5 000
// distinct values under a 16 KiB budget abort with a *ResourceError naming
// the π_D without a spill manager; with one, the table is refused, the
// grouping goes external and returns the unbudgeted rows in order, and no
// spill file is left.
func TestDistinctUnderBudget(t *testing.T) {
	const budget = 16 << 10
	plan := distinctOf(keyedValuesPlan("t", 20_000, 5000), "t", "k")
	want, err := Run(plan, nil, nil)
	must(t, err)
	if len(want.Rows) != 5000 {
		t.Fatalf("%d distinct rows, want 5000", len(want.Rows))
	}
	for _, workers := range []int{1, 2} {
		_, err := Run(plan, nil, &Options{Parallelism: workers, MemoryBudget: budget})
		var re *ResourceError
		if !errors.As(err, &re) || re.Op != plan.Describe() {
			t.Fatalf("workers=%d, no spill manager: err = %v, want a *ResourceError at %s", workers, err, plan.Describe())
		}
		mgr := storage.NewSpillManager(t.TempDir())
		res, err := Run(plan, nil, &Options{Parallelism: workers, MemoryBudget: budget, Spill: mgr})
		must(t, err)
		if !workload.SameRows(res.Rows, want.Rows) || mgr.Created() == 0 || mgr.Live() != 0 {
			t.Fatalf("workers=%d, spill manager: %d rows (same as unbudgeted: %v), %d spill files made, %d left: want the unbudgeted rows, spilled, none left",
				workers, len(res.Rows), workload.SameRows(res.Rows, want.Rows), mgr.Created(), mgr.Live())
		}
	}
}
