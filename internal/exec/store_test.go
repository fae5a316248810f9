package exec

import (
	"errors"
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// Unit tests of the three state stores (store.go, spill.go): the admission
// rule each takes from the governor, the group table's chunk-order absorb,
// the join table's partition-count independence, and the scalar group.

// kvRows builds (k, v) rows from alternating key/value arguments; a negative
// key is NULL.
func kvRows(kv ...int64) []value.Row {
	rows := make([]value.Row, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		k := value.NewInt(kv[i])
		if kv[i] < 0 {
			k = value.Null
		}
		rows = append(rows, value.Row{k, value.NewInt(kv[i+1])})
	}
	return rows
}

// sumCore is a groupCore computing SUM(v) over kvRows, grouped by the given
// columns.
func sumCore(t *testing.T, gov *governor, mgr *storage.SpillManager, groupCols ...int) *groupCore {
	t.Helper()
	bound, err := expr.Bind(&expr.Aggregate{Func: expr.AggSum, Arg: expr.Column("t", "v")},
		keyedValuesPlan("t", 0, 1).Schema())
	must(t, err)
	return &groupCore{
		groupCols: groupCols,
		specs:     []aggSpec{{expr: bound, aggs: expr.Aggregates(bound)}},
		gov:       gov, mgr: mgr, par: 1, where: "group",
	}
}

// TestStoreAdmission: the same overflowing input, per store and per rule.
// Without a spill manager a hash store aborts with *ResourceError on the
// entry that crosses the budget and keeps what it charged; with one it
// reports errRefused and the budget is back at what other operators hold.
// The sorter never fails: without a manager it is unaccounted, with one it
// flushes runs to stay inside the budget.
func TestStoreAdmission(t *testing.T) {
	const prior, budget = 100, 600
	rows := keyedValuesPlan("t", 64, 64).Rows
	stores := []struct {
		name   string
		refuse error // what a hash store reports under a manager; nil for the sorter
		fill   func(gov *governor, mgr *storage.SpillManager) error
	}{
		{"group table", errRefused, func(gov *governor, mgr *storage.SpillManager) error {
			tab, err := sumCore(t, gov, mgr, 0).newTable()
			for i := 0; i < len(rows) && err == nil; i++ {
				_, err = tab.rowGroup(rows[i])
			}
			return err
		}},
		{"join table", errRefused, func(gov *governor, mgr *storage.SpillManager) error {
			tab := &joinTable{cols: []int{0}, adm: admissionFor(gov, mgr, "join")}
			return tab.build(rows, 1)
		}},
		{"sorter", nil, func(gov *governor, mgr *storage.SpillManager) error {
			x := &extSorter{gov: gov, mgr: mgr, op: "sort", par: 1, cmp: func(a, b value.Row) int { return value.OrderKey(a[1], b[1]) }}
			err := x.addAll(append([]value.Row(nil), rows...))
			if err == nil {
				_, err = x.finish()
			}
			if cerr := x.close(); err == nil {
				err = cerr
			}
			return err
		}},
	}
	for _, st := range stores {
		for _, spill := range []bool{false, true} {
			name := st.name + "/no spill manager"
			if spill {
				name = st.name + "/spill manager"
			}
			t.Run(name, func(t *testing.T) {
				gov := newGovernor(&Options{MemoryBudget: budget})
				must(t, gov.charge("another operator", prior))
				var mgr *storage.SpillManager
				if spill {
					mgr = storage.NewSpillManager(t.TempDir())
					defer mgr.Cleanup()
				}
				err := st.fill(gov, mgr)
				used := gov.used.Load()
				switch {
				case st.refuse == nil && !spill:
					if err != nil || used != prior {
						t.Fatalf("unaccounted sort: err=%v used=%d, want nil and %d", err, used, prior)
					}
				case st.refuse == nil:
					if err != nil || used > budget || mgr.Created() == 0 || mgr.Live() != 0 {
						t.Fatalf("external sort: err=%v used=%d (budget %d) files=%d live=%d",
							err, used, budget, mgr.Created(), mgr.Live())
					}
				case !spill:
					var re *ResourceError
					if !errors.As(err, &re) || re.Used <= budget || used != re.Used {
						t.Fatalf("abort: err=%v used=%d, want *ResourceError holding its charge", err, used)
					}
				default:
					if err != st.refuse || used != prior {
						t.Fatalf("refuse: err=%v used=%d, want errRefused and the prior %d", err, used, prior)
					}
				}
			})
		}
	}
}

// TestGroupTableAbsorb: however the input is cut into chunks, absorbing the
// chunks' partial tables in order yields the one-pass table — groups in
// global first-appearance order, each holding the grouping values of the
// first row of the group in the whole input (key 1 arrives as an integer and
// later as the =ⁿ-equal 1.0, and stays the integer), sums merged.
func TestGroupTableAbsorb(t *testing.T) {
	rows := kvRows(2, 1, 1, 2, 3, 4, 1, 8, 2, 16, 4, 32, 3, 64)
	rows[3][0] = value.NewFloat(1)
	g := sumCore(t, nil, nil, 0)
	build := func(chunk []value.Row) *groupTable {
		tab, err := g.newTable()
		must(t, err)
		for _, row := range chunk {
			st, err := tab.rowGroup(row)
			must(t, err)
			must(t, g.feed(st, row))
		}
		return tab
	}
	want := build(rows)
	for _, cuts := range [][]int{{}, {1}, {3}, {6}, {2, 4}, {1, 2, 3, 4, 5, 6}, {0, 7}} {
		lo := 0
		var tables []*groupTable
		for _, hi := range append(cuts, len(rows)) {
			tables = append(tables, build(rows[lo:hi]))
			lo = hi
		}
		for _, tab := range tables[1:] {
			must(t, tables[0].absorb(tab))
		}
		got := tables[0]
		if len(got.order) != len(want.order) {
			t.Fatalf("cuts %v: %d groups, want %d", cuts, len(got.order), len(want.order))
		}
		for i, st := range got.order {
			w := want.order[i]
			if st.key != w.key || len(st.group) != 1 || st.group[0].Kind() != w.group[0].Kind() || !value.NullEq(st.group[0], w.group[0]) {
				t.Fatalf("cuts %v: group %d is key %q values %v, want key %q values %v", cuts, i, st.key, st.group, w.key, w.group)
			}
			gotRow, err := g.finalize(st)
			must(t, err)
			wantRow, err := g.finalize(w)
			must(t, err)
			if value.GroupKeyAll(gotRow) != value.GroupKeyAll(wantRow) {
				t.Fatalf("cuts %v: group %d finalizes to %v, want %v", cuts, i, gotRow, wantRow)
			}
		}
	}
}

// TestJoinTablePartitions: a key's matches are the build rows with that key,
// in build order, at any partition count; NULL keys are never stored.
func TestJoinTablePartitions(t *testing.T) {
	rows := kvRows(3, 0, 1, 1, -1, 2, 3, 3, 2, 4, 1, 5, 3, 6, -1, 7, 9, 8)
	for _, workers := range []int{1, 2, 3, 8} {
		tab := &joinTable{cols: []int{0}}
		must(t, tab.build(rows, workers))
		if len(tab.parts) != workers {
			t.Fatalf("workers=%d: %d partitions", workers, len(tab.parts))
		}
		for k := int64(-1); k < 11; k++ {
			probe := kvRows(k, 0)[0]
			var want []value.Row
			for _, row := range rows {
				if k >= 0 && !row[0].IsNull() && row[0].Int() == k {
					want = append(want, row)
				}
			}
			got := tab.lookup(appendKey(nil, probe, []int{0}))
			if len(got) != len(want) {
				t.Fatalf("workers=%d key=%d: %d matches, want %d", workers, k, len(got), len(want))
			}
			for i := range got {
				if &got[i][0] != &want[i][0] {
					t.Fatalf("workers=%d key=%d: match %d is %v, want %v (build order)", workers, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestScalarGroupEmptyInput: the scalar group's table holds its one state
// from the start, so aggregating no rows still yields one row — off a
// materialized input, and as the sink of a pipeline that runs no chunk.
func TestScalarGroupEmptyInput(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g := sumCore(t, nil, nil)
		if workers == 1 {
			must(t, g.hashAggregate(nil))
		} else {
			g.par = workers
			g.input = &pipeOp{src: &valuesOp{}, par: workers, node: valuesPlan(0)}
			must(t, g.foldPipeline())
		}
		row, ok, err := g.Next()
		must(t, err)
		if !ok || len(row) != 1 || !row[0].IsNull() {
			t.Fatalf("workers=%d: scalar SUM over no rows = %v (ok=%v), want one NULL", workers, row, ok)
		}
		if _, ok, _ := g.Next(); ok {
			t.Fatalf("workers=%d: scalar group yielded a second row", workers)
		}
	}
}
