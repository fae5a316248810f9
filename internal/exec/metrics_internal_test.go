package exec

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/vec"
)

// These tests pin the cost model of the observability layer itself: with
// every sink nil the compiler places no instrumentation at all, and with
// sinks active the per-row work is a single atomic add per morsel — zero
// allocations per row either way. testing.AllocsPerRun makes both claims
// checkable.

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

// filterOf passes the rows of in whose v is not negative: a plan node that is
// a stage over in's source.
func filterOf(in algebra.Node, table string) *algebra.Select {
	return &algebra.Select{Input: in, Cond: expr.NewBinary(expr.OpGe, expr.Column(table, "v"), expr.IntLit(0))}
}

// bindPlan shapes plan and binds it with c: the pipeline a run of it drives.
func bindPlan(c *compiler, plan algebra.Node) (*pipeOp, error) {
	s, err := shaper{group: c.opts.Group}.of(plan)
	if err != nil {
		return nil, err
	}
	return c.compile(s.root)
}

// metered reports whether compile placed any instrumentation on p: on the
// runner's loop over its source, or on a stage.
func metered(p *pipeOp) bool {
	return p.srcMetered || p.srcOut != nil || slices.ContainsFunc(p.stages, func(st stage) bool { return st.metered || st.out != nil })
}

// TestDisabledObservabilityInsertsNoWrapper: when Metrics and Trace are
// both nil, nothing is metered — no metricOp on a leaf's pipeline, on its
// source or on a filter's stage.
func TestDisabledObservabilityInsertsNoWrapper(t *testing.T) {
	for _, plan := range []algebra.Node{valuesPlan(3), filterOf(valuesPlan(3), "t")} {
		c := &compiler{opts: &Options{}, par: 1, clock: obs.Wall}
		out, err := bindPlan(c, plan)
		if err != nil {
			t.Fatal(err)
		}
		if metered(out) {
			t.Fatalf("compile metered %s with every observability sink disabled", plan.Describe())
		}
	}

	// Sanity check of the inverse: any active sink places the leaf's metricOp
	// on the runner, and the filter's on its stage.
	for _, opts := range []*Options{
		{Metrics: obs.NewCollector()},
		{Trace: obs.NewTracer(obs.NewFakeClock(time.Unix(0, 0), time.Millisecond))},
	} {
		c := &compiler{opts: opts, par: 1, clock: obs.Wall}
		out, err := bindPlan(c, filterOf(valuesPlan(3), "t"))
		if err != nil {
			t.Fatal(err)
		}
		if p := out; p.srcOut == nil || len(p.stages) != 1 || p.stages[0].out == nil {
			t.Fatalf("compile metered the leaf with %v and the filter with %v, want a metricOp each", p.srcOut, p.stages)
		}
	}
}

// probeJoinPlan joins n left rows to a build side of keys rows, one match per
// left row, so what a run allocates per joined row is its growth in n.
func probeJoinPlan(n, keys int) *algebra.Join {
	return &algebra.Join{
		L:    keyedValuesPlan("l", n, keys),
		R:    keyedValuesPlan("r", keys, keys),
		Cond: expr.Eq(expr.Column("l", "k"), expr.Column("r", "k")),
	}
}

// sumOverJoin groups probeJoinPlan's rows by l.k: keys groups whatever n is.
func sumOverJoin(n, keys int) *algebra.GroupBy {
	return &algebra.GroupBy{
		Input:     probeJoinPlan(n, keys),
		GroupCols: []expr.ColumnID{{Table: "l", Name: "k"}},
		Aggs: []algebra.AggItem{{
			E:  &expr.Aggregate{Func: expr.AggSum, Arg: expr.Column("r", "v")},
			As: expr.ColumnID{Name: "s"},
		}},
	}
}

// runAllocs is what a whole Run of plan under the options opts makes
// allocates, averaged over a few runs; it fails unless the result has rows
// rows.
func runAllocs(t *testing.T, plan algebra.Node, opts func() *Options, rows int) float64 {
	t.Helper()
	return testing.AllocsPerRun(5, func() {
		res, err := Run(plan, nil, opts())
		if err != nil || len(res.Rows) != rows {
			t.Fatalf("%v rows, err=%v", res, err)
		}
	})
}

// TestRowPathZeroAllocs: a row allocates nothing on its way — neither on the
// uninstrumented path (nothing is metered) nor on the fully instrumented one
// (a node counts once per chunk, and timings and sink writes happen around
// the node's run, off the row path), nor on the governed one (a tick is a load
// of a flag). A leaf's rows reach a root that is the leaf with no copy, so a
// whole Run allocates as often over four times the rows. The hash-join probe
// writes each joined row into its chunk's scratch row: a root that collects
// the rows copies each into its slab, a page per thousand rows, and a
// hash-group sink pays nothing. The probe key is bytes in a scratch buffer, so
// a probe that misses costs nothing, and neither does a row that joins a group
// the table already holds.
func TestRowPathZeroAllocs(t *testing.T) {
	const runs = 1000
	instrumented := func() *Options {
		return &Options{
			Metrics: obs.NewCollector(),
			Trace:   obs.NewTracer(obs.NewFakeClock(time.Unix(0, 0), time.Millisecond)),
			Clock:   obs.NewFakeClock(time.Unix(0, 0), time.Millisecond),
		}
	}
	// A cancellable context: every row ticks the governor, a load of the flag
	// the context's callback raises. Hooking the callback costs a constant per
	// Run, which the per-row measures below leave out.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	governed := func() *Options { return &Options{Context: ctx} }
	// A whole Run's count moves by a few between runs whatever its size (a GC
	// empties a pool; the race detector's runtime allocates): one morsel's
	// bookkeeping is allowed for that, a thousandth of one per row.
	const groups, small, large = 100, 10 * MorselSize, 40 * MorselSize
	const perMorsel = 24
	plain := func() *Options { return &Options{} }
	for _, tc := range []struct {
		name string
		opts func() *Options
	}{
		{"disabled", plain},
		{"metrics+trace", instrumented},
		{"governed", governed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runAllocs(t, valuesPlan(large), tc.opts, large) - runAllocs(t, valuesPlan(small), tc.opts, small)
			if got > perMorsel {
				t.Errorf("%d more rows at the root allocate %.0f times more, want at most %d (none per row)", large-small, got, perMorsel)
			}
		})
	}
	// The join runs inside a pipeline: the same build side under four times
	// the probe rows — what the extra rows cost is the cost per joined row, plus
	// the collection's bookkeeping per morsel (its closures, and the doublings
	// of a morsel's output slice).
	for _, tc := range []struct {
		name    string
		opts    func() *Options
		grouped bool // the join feeds a hash-group sink, not a collecting root
	}{
		{"hash-join", plain, false},
		{"hash-join/metrics+trace", instrumented, false},
		{"hash-join/governed", governed, false},
		{"hash-join into hash-group", plain, true},
		{"hash-join into hash-group/metrics+trace", instrumented, true},
		{"hash-join into hash-group/governed", governed, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(n int) float64 {
				if tc.grouped {
					return runAllocs(t, sumOverJoin(n, groups), tc.opts, groups)
				}
				return runAllocs(t, probeJoinPlan(n, groups), tc.opts, n)
			}
			got := allocs(large) - allocs(small)
			want := float64(perMorsel)
			if !tc.grouped {
				want += float64(perMorsel * (large - small) / MorselSize)
			}
			t.Logf("%d more joined rows allocate %.0f times more", large-small, got)
			if got > want {
				t.Errorf("%d more joined rows allocate %.0f times more, want at most %.0f (none per row)", large-small, got, want)
			}
		})
	}
	t.Run("hash-join, probe miss", func(t *testing.T) {
		j := &hashJoinOp{lcols: []int{0}, table: &joinTable{cols: []int{0}}}
		must(t, j.table.build(keyedValuesPlan("r", runs, runs).Rows, 1))
		probe := j.probeInto(make(value.Row, 4), func(row value.Row) error {
			t.Fatalf("probe emitted %v", row)
			return nil
		})
		miss := value.Row{value.NewInt(-1), value.NewInt(0)}
		if avg := testing.AllocsPerRun(runs, func() { must(t, probe(miss)) }); avg != 0 {
			t.Errorf("a probe that misses allocates %.2f times, want 0", avg)
		}
	})
	t.Run("DISTINCT project, duplicate row", func(t *testing.T) {
		// The row is projected into the stage's scratch row, and the duplicate
		// is found by its key bytes in the group table's probe buffer — a group
		// on every column, with no aggregate — so nothing is made for it.
		dup := value.Row{value.NewInt(7), value.NewString("a longer string than a small-string buffer holds")}
		items := []expr.Expr{&expr.ColumnRef{Index: 1}, &expr.ColumnRef{Index: 0}}
		seen, err := (&groupCore{groupCols: firstColumns(len(items)), par: 1, where: "distinct"}).newTable()
		must(t, err)
		proj := make(value.Row, len(items))
		add := func() {
			must(t, projectInto(proj, items, dup, nil))
			must(t, seen.add(proj))
		}
		add()
		if avg := testing.AllocsPerRun(runs, add); avg != 0 || seen.n != 1 {
			t.Errorf("a duplicate row under DISTINCT allocates %.2f times (%d groups), want 0", avg, seen.n)
		}
	})
	t.Run("hash-group, existing group", func(t *testing.T) {
		core := sumCore(t, nil, nil, 0)
		tab, err := core.newTable()
		must(t, err)
		row := value.Row{value.NewInt(7), value.NewInt(1)}
		must(t, tab.add(row))
		if avg := testing.AllocsPerRun(runs, func() { must(t, tab.add(row)) }); avg != 0 || tab.n != 1 {
			t.Errorf("a row of an existing group allocates %.2f times (%d groups), want 0", avg, tab.n)
		}
		// The batch feed: every row of the batch belongs to a group present.
		batches := vec.Columnarize(keyedValuesPlan("t", MorselSize, 10).Rows, 2, MorselSize)
		core.initAggCols()
		var feed batchFeed
		must(t, feed.fold(tab, batches[0]))
		if avg := testing.AllocsPerRun(runs, func() { must(t, feed.fold(tab, batches[0])) }); avg != 0 || tab.n != 10 {
			t.Errorf("a batch of existing groups allocates %.2f times (%d groups), want 0", avg, tab.n)
		}
	})
	t.Run("hash-group, new group", func(t *testing.T) {
		// A group is an id: its key bytes, grouping values and accumulator
		// states are elements of the table's pages, so what a new group
		// allocates is its share of a page, a key chunk or an index doubling.
		const fresh = 4096
		core := sumCore(t, nil, nil, 0)
		addItems(t, core, &expr.Aggregate{Func: expr.AggSum, Arg: expr.Column("t", "v")})
		rows := keyedValuesPlan("t", fresh, fresh).Rows
		var tab *groupTable
		avg := testing.AllocsPerRun(5, func() {
			tab = buildTable(t, core, rows)
		})
		if perGroup := avg / fresh; perGroup > 0.05 || tab.n != fresh {
			t.Errorf("%d rows that each start a group allocate %.0f times, %.3f a group (%d groups): want at most 0.05", fresh, avg, perGroup, tab.n)
		}
	})
}

// filtered compiles a filter that passes every row of rows: the pipeline a
// grouping operator built by hand takes as its input.
func filtered(t *testing.T, rows []value.Row) *pipeOp {
	t.Helper()
	plan := keyedValuesPlan("t", 0, 1)
	plan.Rows = rows
	c := &compiler{opts: &Options{}, par: 1, clock: obs.Wall}
	out, err := bindPlan(c, filterOf(plan, "t"))
	must(t, err)
	return out
}

// TestSerialGroupingHoldsGroupsNotRows: with abort admission hash grouping
// folds its input as its pipeline's stages emit it, and so do the streaming
// pass over key-ordered input and the scalar group — what a one-worker run
// allocates depends on the number of groups G and not on the number of rows
// N, so the same G over four times the rows, through a filter, allocates
// exactly as often. (A run that collects its input first pays for the rows.)
func TestSerialGroupingHoldsGroupsNotRows(t *testing.T) {
	const groups = 100
	for _, tc := range []struct {
		name string
		op   func(n int) breaker
		out  int
	}{
		{"hash", func(n int) breaker {
			core := sumCore(t, nil, nil, 0)
			core.input = filtered(t, keyedValuesPlan("t", n, groups).Rows)
			return &hashGroupOp{groupCore: *core}
		}, groups},
		{"stream", func(n int) breaker {
			rows := keyedValuesPlan("t", n, n).Rows // keys 0..n-1, ascending
			for i, row := range rows {
				row[0] = value.NewInt(int64(i * groups / n))
			}
			core := sumCore(t, nil, nil, 0)
			core.input = filtered(t, rows)
			return &sortGroupOp{groupCore: *core}
		}, groups},
		{"scalar", func(n int) breaker {
			core := sumCore(t, nil, nil)
			core.input = filtered(t, keyedValuesPlan("t", n, groups).Rows)
			return &hashGroupOp{groupCore: *core}
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(n int) float64 {
				op := tc.op(n) // the source rows are built here, outside the measurement
				return testing.AllocsPerRun(5, func() {
					out, err := op.open()
					rows := len(out.rows)
					if out.made != nil {
						rows = out.made.len()
					}
					if err != nil || rows != tc.out {
						t.Fatalf("%d rows, err=%v", rows, err)
					}
				})
			}
			if small, large := allocs(10000), allocs(40000); small != large {
				t.Errorf("grouping 10000 rows allocates %.0f times, 40000 rows %.0f times: want the same", small, large)
			}
		})
	}
}

// TestSpillCapableSortStreamsItsInput: a sort under a budget and a spill
// manager takes its input pipeline as one in-order chunk, so a joined row is
// copied out of the probe's scratch row when the sorter admits it and lives
// until its run is flushed — the run allocates for those copies (and for the
// records the merge reads back), not for a second, unaccounted collection of
// the join's whole output.
func TestSpillCapableSortStreamsItsInput(t *testing.T) {
	const n, keys = 16 * MorselSize, 100
	c := &compiler{opts: &Options{}, par: 1, clock: obs.Wall}
	out, err := bindPlan(c, probeJoinPlan(n, keys))
	must(t, err)
	gov := &governor{budget: MorselSize * rowStateBytes(make(value.Row, 4))}
	metrics := &obs.OpMetrics{}
	op := &sortOp{
		input: out, keys: []sortKey{{col: 1, desc: true}}, par: 1,
		gov: gov, mgr: storage.NewSpillManager(t.TempDir()), metrics: metrics, where: "sort",
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	src, err := op.open()
	must(t, err)
	merge := src.merge
	if merge == nil {
		t.Fatal("the sort returned rows, not the merge of its runs: the budget does not make it spill")
	}
	rows := 0
	for {
		_, ok, err := merge.next()
		must(t, err)
		if !ok {
			break
		}
		rows++
	}
	must(t, merge.close())
	runtime.ReadMemStats(&after)
	// The high-water mark is of admitted state only: a refused attempt that
	// flushed a run is not in it.
	row := rowStateBytes(make(value.Row, 4))
	if rows != n || metrics.SortRuns.Load() < 2 || gov.usedBytes() > gov.budget {
		t.Fatalf("%d rows in %d runs with %d bytes held: want %d rows, spilled, inside the budget of %d",
			rows, metrics.SortRuns.Load(), gov.usedBytes(), n, gov.budget)
	}
	// One copy when the sorter admits the row, one row decoded by the merge;
	// a collection of the probe's output would add its copies and headers.
	got := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%d bytes allocated, %d per row of %d", got, got/n, row)
	if got > 2*n*row {
		t.Errorf("sorting %d joined rows of %d bytes under a budget allocated %d bytes, want at most two rows' worth per row", n, row, got)
	}
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
	t.Run("group-rename", func(t *testing.T) {
		// π_A over the GroupBy renames its columns and makes nothing: whatever
		// the group count, group → rename → root allocates what group → root
		// does and a fixed slack more (the rename's pipeline), not a row per
		// group. Each side is the fewest allocations of several measurements:
		// at two workers a run's count varies by a few dozen with scheduling
		// (the race runtime's most of all), while a rename that allocated per
		// group would add thousands to every measurement.
		const slack = 16
		allocs := func(plan algebra.Node, groups int) float64 {
			least := -1.0
			for i := 0; i < 5; i++ {
				n := testing.AllocsPerRun(5, func() {
					res, err := Run(plan, nil, &Options{Parallelism: 2})
					if err != nil || len(res.Rows) != groups {
						t.Fatalf("%v rows, err=%v", res, err)
					}
				})
				if least < 0 || n < least {
					least = n
				}
			}
			return least
		}
		for _, groups := range []int{100, 20000} {
			group := govGroupPlan(2*groups, groups)
			bare, renamed := allocs(group, groups), allocs(renameOf(group), groups)
			t.Logf("%d groups: %.0f allocations under the group, %.0f under the rename", groups, bare, renamed)
			if renamed-bare > slack {
				t.Errorf("%d groups: group → rename → root allocates %.0f times, group → root %.0f: want within %d", groups, renamed, bare, slack)
			}
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
