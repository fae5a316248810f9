package exec

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/value"
)

// These tests pin the cost model of the observability layer itself: with
// every sink nil the compiler inserts no instrumentation at all, and with
// sinks active the per-row work is a single atomic add — zero allocations
// either way. testing.AllocsPerRun makes both claims checkable.

// valuesPlan builds an n-row single-column Values node — the smallest plan
// whose row path the compiler accepts.
func valuesPlan(n int) *algebra.Values {
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i))}
	}
	return &algebra.Values{
		Cols: algebra.Schema{{ID: expr.ColumnID{Table: "t", Name: "v"}, Type: value.KindInt}},
		Rows: rows,
	}
}

// TestDisabledObservabilityInsertsNoWrapper: when Metrics and Trace are
// both nil, compile produces the bare operator — no metricOp in the tree.
func TestDisabledObservabilityInsertsNoWrapper(t *testing.T) {
	c := &compiler{opts: &Options{}, par: 1, clock: obs.Wall}
	out, err := c.compile(valuesPlan(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.op.(*metricOp); ok {
		t.Fatal("compile inserted a metricOp with every observability sink disabled")
	}

	// Sanity check of the inverse: any active sink produces the wrapper.
	for _, opts := range []*Options{
		{Metrics: obs.NewCollector()},
		{Trace: obs.NewTracer(obs.NewFakeClock(time.Unix(0, 0), time.Millisecond))},
	} {
		c := &compiler{opts: opts, par: 1, clock: obs.Wall}
		if opts.Clock != nil {
			c.clock = opts.Clock
		}
		out, err := c.compile(valuesPlan(3))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := out.op.(*metricOp); !ok {
			t.Fatalf("compile produced %T with a sink active, want *metricOp", out.op)
		}
	}
}

// TestRowPathZeroAllocs: pulling rows allocates nothing per row — neither on
// the uninstrumented path (no wrapper exists) nor on the fully instrumented
// path (metricOp.Next is one atomic add; timings and sink writes happen at
// Open/Close, off the row path). The one-worker hash join streams its probe:
// each emitted row costs its concatenated row and nothing else — the probe
// key is bytes in a scratch buffer, so a probe that misses costs nothing, and
// neither does a row that joins a group the table already holds.
func TestRowPathZeroAllocs(t *testing.T) {
	const runs = 1000
	instrumented := func() *Options {
		return &Options{
			Metrics: obs.NewCollector(),
			Trace:   obs.NewTracer(obs.NewFakeClock(time.Unix(0, 0), time.Millisecond)),
			Clock:   obs.NewFakeClock(time.Unix(0, 0), time.Millisecond),
		}
	}
	// More rows than AllocsPerRun will pull, so every measured Next returns
	// a live row; the join's keys are unique, so it emits one row per probe.
	scan := valuesPlan(runs + 10)
	join := govJoinPlan(runs+10, runs+10)
	cases := []struct {
		name string
		opts *Options
		plan algebra.Node
		want float64
	}{
		{"disabled", &Options{}, scan, 0},
		{"metrics+trace", instrumented(), scan, 0},
		{"hash-join", &Options{Join: JoinHash}, join, 1},
		{"hash-join/metrics+trace", instrumented(), join, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &compiler{opts: tc.opts, par: 1, clock: tc.opts.Clock}
			if c.clock == nil {
				c.clock = obs.Wall
			}
			out, err := c.compile(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			if err := out.op.Open(); err != nil {
				t.Fatal(err)
			}
			defer out.op.Close()
			avg := testing.AllocsPerRun(runs, func() {
				if _, ok, err := out.op.Next(); !ok || err != nil {
					t.Fatalf("Next: ok=%v err=%v", ok, err)
				}
			})
			if avg != tc.want {
				t.Errorf("%s row path allocates %.2f times per row, want %.0f", tc.name, avg, tc.want)
			}
		})
	}
	t.Run("hash-join, probe miss", func(t *testing.T) {
		j := &hashJoinOp{lcols: []int{0}, table: &joinTable{cols: []int{0}}}
		must(t, j.table.build(join.R.(*algebra.Values).Rows, 1))
		miss := value.Row{value.NewInt(-1), value.NewInt(0)}
		if avg := testing.AllocsPerRun(runs, func() {
			if out, err := j.probe(miss, nil); len(out) != 0 || err != nil {
				t.Fatalf("probe: %d rows, err=%v", len(out), err)
			}
		}); avg != 0 {
			t.Errorf("a probe that misses allocates %.2f times, want 0", avg)
		}
	})
	t.Run("hash-group, existing group", func(t *testing.T) {
		core := sumCore(t, nil, nil, 0)
		tab, err := core.newTable()
		must(t, err)
		row := value.Row{value.NewInt(7), value.NewInt(1)}
		first, err := tab.rowGroup(row)
		must(t, err)
		if avg := testing.AllocsPerRun(runs, func() {
			if st, err := tab.rowGroup(row); st != first || err != nil {
				t.Fatalf("rowGroup: new state or err=%v", err)
			}
		}); avg != 0 {
			t.Errorf("a row of an existing group allocates %.2f times, want 0", avg)
		}
	})
	t.Run("hash-group, new group", func(t *testing.T) {
		// Two aggregate items: the state, its one accumulator slice, two
		// accumulators and the inserted key string. (Map and order growth
		// amortize below one and AllocsPerRun rounds down.)
		core := sumCore(t, nil, nil, 0)
		core.specs = append(core.specs, core.specs[0])
		tab, err := core.newTable()
		must(t, err)
		rows, next := keyedValuesPlan("t", runs+1, runs+1).Rows, 0
		if avg := testing.AllocsPerRun(runs, func() {
			if _, err := tab.rowGroup(rows[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}); avg != 5 {
			t.Errorf("a row that starts a group allocates %.2f times, want 5", avg)
		}
	})
}

// TestSerialGroupingHoldsGroupsNotRows: at one worker with abort admission
// hash grouping folds its input as it arrives, and so do the streaming pass
// over key-ordered input and the scalar group — what a run allocates depends
// on the number of groups G and not on the number of rows N, so the same G
// over four times the rows allocates exactly as often. (A run that drains its
// input first pays the row buffer's growth, which depends on N.)
func TestSerialGroupingHoldsGroupsNotRows(t *testing.T) {
	const groups = 100
	for _, tc := range []struct {
		name string
		op   func(n int) Operator
		out  int
	}{
		{"hash", func(n int) Operator {
			core := sumCore(t, nil, nil, 0)
			core.input = &valuesOp{rows: keyedValuesPlan("t", n, groups).Rows}
			return &hashGroupOp{groupCore: *core}
		}, groups},
		{"stream", func(n int) Operator {
			rows := keyedValuesPlan("t", n, n).Rows // keys 0..n-1, ascending
			for i, row := range rows {
				row[0] = value.NewInt(int64(i * groups / n))
			}
			core := sumCore(t, nil, nil, 0)
			core.input = &valuesOp{rows: rows}
			return &sortGroupOp{groupCore: *core, preSorted: true}
		}, groups},
		{"scalar", func(n int) Operator {
			core := sumCore(t, nil, nil)
			core.input = &valuesOp{rows: keyedValuesPlan("t", n, groups).Rows}
			return &sortGroupOp{groupCore: *core}
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(n int) float64 {
				op := tc.op(n) // the source rows are built here, outside the measurement
				return testing.AllocsPerRun(5, func() {
					rows, err := drain(op)
					if err != nil || len(rows) != tc.out {
						t.Fatalf("%d rows, err=%v", len(rows), err)
					}
				})
			}
			if small, large := allocs(10000), allocs(40000); small != large {
				t.Errorf("grouping 10000 rows allocates %.0f times, 40000 rows %.0f times: want the same", small, large)
			}
		})
	}
}

// TestValueSlotBytesIsTheValueSize: budgets, state bytes and spill bytes count
// a column at valueSlotBytes; it is the size of a value.Value.
func TestValueSlotBytesIsTheValueSize(t *testing.T) {
	if got := unsafe.Sizeof(value.Value{}); got != valueSlotBytes {
		t.Fatalf("unsafe.Sizeof(value.Value{}) = %d, valueSlotBytes = %d", got, valueSlotBytes)
	}
}
