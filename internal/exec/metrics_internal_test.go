package exec

import (
	"runtime"
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
	t.Run("DISTINCT project, duplicate row", func(t *testing.T) {
		// The projected row; the duplicate is recognised by its key bytes in
		// the set's buffer, so no key string is made for it.
		dup := value.Row{value.NewInt(7), value.NewString("a longer string than a small-string buffer holds")}
		p := &projectOp{
			input: &flickerOp{row: dup}, distinct: true,
			items: []expr.Expr{&expr.ColumnRef{Index: 1}, &expr.ColumnRef{Index: 0}},
		}
		must(t, p.Open())
		if _, ok, err := p.Next(); !ok || err != nil {
			t.Fatalf("first occurrence: ok=%v err=%v", ok, err)
		}
		if avg := testing.AllocsPerRun(runs, func() {
			if _, ok, err := p.Next(); ok || err != nil {
				t.Fatalf("duplicate: ok=%v err=%v", ok, err)
			}
		}); avg != 1 {
			t.Errorf("a duplicate row under DISTINCT allocates %.2f times, want 1", avg)
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
		// accumulators and the inserted key string. (Map and order growth and
		// the table's slab of grouping values amortize below one and
		// AllocsPerRun rounds down.)
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

// flickerOp yields its row and end-of-stream alternately, so each Next of a
// DISTINCT projection above it handles exactly one (duplicate) row.
type flickerOp struct {
	row value.Row
	eos bool
}

func (f *flickerOp) Open() error  { return nil }
func (f *flickerOp) Close() error { return nil }
func (f *flickerOp) Next() (value.Row, bool, error) {
	f.eos = !f.eos
	return f.row, f.eos, nil
}

// TestParallelPipelineHoldsGroupsNotRows: above one worker a morsel runs
// through every streaming operator into the breaker's sink, and nothing in
// between is held as rows. Scan → hash join → hash group at two workers
// allocates for the build side and for G groups per chunk — the same G over
// four times the rows allocates as often, give or take morsel bookkeeping (an
// operator that materialized the join output would pay one row per probe row).
// Scan → filter → project → root allocates in proportion to its result, not
// to the rows the filter read.
func TestParallelPipelineHoldsGroupsNotRows(t *testing.T) {
	t.Run("join-group", func(t *testing.T) {
		const groups = 100
		allocs := func(n int) float64 {
			plan := &algebra.GroupBy{
				Input: &algebra.Join{
					L:    keyedValuesPlan("l", n, groups),
					R:    keyedValuesPlan("r", groups, groups),
					Cond: expr.Eq(expr.Column("l", "k"), expr.Column("r", "k")),
				},
				GroupCols: []expr.ColumnID{{Table: "l", Name: "k"}},
				Aggs: []algebra.AggItem{{
					E:  &expr.Aggregate{Func: expr.AggSum, Arg: expr.Column("r", "v")},
					As: expr.ColumnID{Name: "s"},
				}},
			}
			return testing.AllocsPerRun(5, func() {
				res, err := Run(plan, nil, &Options{Parallelism: 2})
				if err != nil || len(res.Rows) != groups {
					t.Fatalf("%v rows, err=%v", res, err)
				}
			})
		}
		small, large := allocs(10000), allocs(40000)
		t.Logf("allocations: %.0f over 10000 rows, %.0f over 40000", small, large)
		if slack := 4.0 * float64(numChunks(40000-10000, MorselSize)); large-small > slack {
			t.Errorf("grouping a join of 10000 rows allocates %.0f times, of 40000 rows %.0f times: want within %.0f (morsel bookkeeping)", small, large, slack)
		}
	})
	t.Run("filter-project", func(t *testing.T) {
		const n, keep = 64 * MorselSize, 16 // one row in 16 passes the filter
		plan := &algebra.Project{
			Input: &algebra.Select{
				Input: keyedValuesPlan("t", n, keep),
				Cond:  expr.Eq(expr.Column("t", "k"), expr.IntLit(3)),
			},
			Items: []algebra.ProjItem{
				{E: expr.Column("t", "v"), As: expr.ColumnID{Name: "v"}},
				{E: expr.Column("t", "k"), As: expr.ColumnID{Name: "k"}},
			},
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := Run(plan, nil, &Options{Parallelism: 2})
		runtime.ReadMemStats(&after)
		if err != nil || len(res.Rows) != n/keep {
			t.Fatalf("%v rows, err=%v", res, err)
		}
		// The projected rows, their headers in the per-chunk outputs (append
		// growth) and in the concatenated result: a small multiple of the
		// result, where every intermediate held as a slice costs n headers.
		result := int64(len(res.Rows)) * rowStateBytes(res.Rows[0])
		got := int64(after.TotalAlloc - before.TotalAlloc)
		t.Logf("%d bytes allocated for a %d-byte result", got, result)
		if got > 4*result {
			t.Errorf("filter → project → root allocated %d bytes for a %d-byte result (%d rows of %d read): want at most 4x the result", got, result, len(res.Rows), n)
		}
	})
}

// TestValueSlotBytesIsTheValueSize: budgets, state bytes and spill bytes count
// a column at valueSlotBytes; it is the size of a value.Value.
func TestValueSlotBytesIsTheValueSize(t *testing.T) {
	if got := unsafe.Sizeof(value.Value{}); got != valueSlotBytes {
		t.Fatalf("unsafe.Sizeof(value.Value{}) = %d, valueSlotBytes = %d", got, valueSlotBytes)
	}
}
