package exec

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// consumerFunc is a Consumer of one chunk: every row goes to the func.
type consumerFunc func(value.Row) error

func (consumerFunc) Begin(int) {}

func (f consumerFunc) Chunk(int) func(value.Row) error { return f }

// stream is Run with plan's rows handed to c: plan shaped for opts' grouping
// strategy, then streamed.
func stream(plan algebra.Node, store *storage.Store, opts *Options, c Consumer) error {
	s, err := shaper{group: opts.Group}.of(plan)
	if err != nil {
		return err
	}
	return s.Stream(store, opts, c)
}

// liveHeap is the heap still referenced, measured after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestSpilledOutputStreams: a grace join over 100 000 probe rows and a
// 100 000-group GROUP BY under a 64 KiB budget hand their output to the
// external sorter as runs — their node counts the runs — and stream the
// merge: the run holds no more state than the budget, returns the unbudgeted
// rows and leaves no spill file, and when its first row reaches a consumer
// that keeps nothing, less than 2 MB more heap is live than before it
// started. An operator that held its output until the end would hold it all
// by then: megabytes.
func TestSpilledOutputStreams(t *testing.T) {
	const budget, n, slack = 64 << 10, 100_000, 2 << 20
	for _, tc := range []struct {
		name string
		plan algebra.Node
	}{
		{"grace join", probeJoinPlan(n, 2_000)},
		{"GROUP BY", govGroupPlan(n, n)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := Run(tc.plan, nil, &Options{Parallelism: 1})
			must(t, err)
			mgr := storage.NewSpillManager(t.TempDir())
			defer mgr.Cleanup()
			spilling := func() *Options { return &Options{Parallelism: 1, MemoryBudget: budget, Spill: mgr} }

			opts := spilling()
			opts.Metrics = obs.NewCollector()
			got, err := Run(tc.plan, nil, opts)
			must(t, err)
			if !sameRows(got.Rows, want.Rows) {
				t.Fatalf("the spilling run's %d rows are not the unbudgeted run's %d", len(got.Rows), len(want.Rows))
			}
			m := opts.Metrics.Lookup(tc.plan)
			if used := opts.Metrics.Gov().UsedBytes; used > budget || m.SpillParts.Load() == 0 {
				t.Fatalf("held %d bytes of state over %d partition files, want a grace path inside the budget of %d",
					used, m.SpillParts.Load(), budget)
			}
			if m.SortRuns.Load() == 0 {
				t.Fatalf("spilled %d bytes but handed the sorter no run: the output was held in memory", m.SpillBytes.Load())
			}
			if live := mgr.Live(); live != 0 {
				t.Fatalf("%d spill files outlived the run", live)
			}

			rows, grown := 0, int64(0)
			base := liveHeap()
			must(t, stream(tc.plan, nil, spilling(), consumerFunc(func(value.Row) error {
				if rows++; rows == 1 {
					grown = liveHeap() - base
				}
				return nil
			})))
			t.Logf("%d runs, %d bytes spilled; %d bytes more live at the first row", m.SortRuns.Load(), m.SpillBytes.Load(), grown)
			if rows != len(want.Rows) || grown > slack {
				t.Fatalf("streamed %d rows with %d bytes more live at the first, want %d rows and at most %d bytes",
					rows, grown, len(want.Rows), slack)
			}
		})
	}
}

// TestExternalSortFanIn: a sort that writes more runs than the merge's fan-in
// merges every mergeFanIn runs of a generation into one of the next, so when
// its first row reaches the consumer at most mergeFanIn+1 spill files are
// live, and it returns the unbudgeted rows. Under a budget of 2 KiB 5 000
// rows make some 150 runs; under one byte, smaller than any row, every run is
// a minimum run of rows, and 70 000 rows make some 70; under a budget of one
// row every row is a run of its own, and 5 000 runs merge two generations up.
func TestExternalSortFanIn(t *testing.T) {
	for _, tc := range []struct {
		budget int64
		rows   int
	}{{2 << 10, 5_000}, {1, 70_000}, {rowStateBytes(make(value.Row, 2)), 5_000}} {
		t.Run(fmt.Sprintf("budget=%d", tc.budget), func(t *testing.T) {
			plan := &algebra.Sort{
				Input: keyedValuesPlan("t", tc.rows, 97),
				Keys:  []algebra.SortItem{{Col: expr.ColumnID{Table: "t", Name: "k"}}},
			}
			want, err := Run(plan, nil, nil)
			must(t, err)
			mgr := storage.NewSpillManager(t.TempDir())
			defer mgr.Cleanup()
			metrics := obs.NewCollector()
			var got []value.Row
			live := 0
			must(t, stream(plan, nil, &Options{MemoryBudget: tc.budget, Spill: mgr, Metrics: metrics}, consumerFunc(func(row value.Row) error {
				if got == nil {
					live = mgr.Live()
				}
				got = append(got, slices.Clone(row))
				return nil
			})))
			if !sameRows(got, want.Rows) {
				t.Fatalf("the spilling sort's %d rows are not the unbudgeted sort's %d", len(got), len(want.Rows))
			}
			runs := metrics.Lookup(plan).SortRuns.Load()
			t.Logf("%d runs written, %d files live at the first row", runs, live)
			if runs <= mergeFanIn || live > mergeFanIn+1 {
				t.Fatalf("%d runs written and %d files live at the first row, want more than %d and at most %d",
					runs, live, mergeFanIn, mergeFanIn+1)
			}
			if n := mgr.Live(); n != 0 {
				t.Fatalf("%d spill files outlived the run", n)
			}
		})
	}
}

// TestExternalSortMinimumRun: under a budget smaller than one row the sorter
// admits rows uncharged until its buffer holds minRun of them, so 5 000 rows
// make at most ⌈5 000 / minRun⌉ runs, not one per row, and the rows come out
// byte-identical to the unbudgeted sort's.
func TestExternalSortMinimumRun(t *testing.T) {
	const n = 5_000
	plan := &algebra.Sort{
		Input: keyedValuesPlan("t", n, 97),
		Keys:  []algebra.SortItem{{Col: expr.ColumnID{Table: "t", Name: "k"}}},
	}
	want, err := Run(plan, nil, nil)
	must(t, err)
	mgr := storage.NewSpillManager(t.TempDir())
	defer mgr.Cleanup()
	metrics := obs.NewCollector()
	got, err := Run(plan, nil, &Options{MemoryBudget: 1, Spill: mgr, Metrics: metrics})
	must(t, err)
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if w, g := appendSpillRow(nil, 0, want.Rows[i]), appendSpillRow(nil, 0, got.Rows[i]); !slices.Equal(w, g) {
			t.Fatalf("row %d: %x, want %x", i, g, w)
		}
	}
	m := metrics.Lookup(plan)
	if runs, most := m.SortRuns.Load(), int64((n+minRun-1)/minRun); m.SpillBytes.Load() == 0 || runs > most {
		t.Fatalf("%d runs over %d spilled bytes, want a spill of at most %d runs", runs, m.SpillBytes.Load(), most)
	}
	if live := mgr.Live(); live != 0 {
		t.Fatalf("%d spill files outlived the run", live)
	}
}

// TestSpillBuffersCharged: a merge's file buffers are state. The spilled
// GROUP BY of TestSpilledOutputStreams, whose runs outnumber the fan-in,
// reaches the high-water mark of a merge that writes a run — its
// mergeFanIn+1 buffers, sized to fit the budget — and stays inside the
// budget; when its first row reaches a consumer that keeps nothing, no more
// heap than the budget is live beyond what was before it started: no run
// waiting for the merge, and no discarded file, still holds a buffer.
func TestSpillBuffersCharged(t *testing.T) {
	const budget, n = 64 << 10, 100_000
	plan := govGroupPlan(n, n)
	mgr := storage.NewSpillManager(t.TempDir())
	defer mgr.Cleanup()
	opts := &Options{Parallelism: 1, MemoryBudget: budget, Spill: mgr, Metrics: obs.NewCollector()}
	rows, grown := 0, int64(0)
	base := liveHeap()
	must(t, stream(plan, nil, opts, consumerFunc(func(value.Row) error {
		if rows++; rows == 1 {
			grown = liveHeap() - base
		}
		return nil
	})))
	used, runs := opts.Metrics.Gov().UsedBytes, opts.Metrics.Lookup(plan).SortRuns.Load()
	merge := int64((mergeFanIn + 1) * newGovernor(opts).spillBufSize())
	t.Logf("%d rows, %d runs; high-water %d bytes, a merge's buffers %d; %d bytes more live at the first row", rows, runs, used, merge, grown)
	if rows != n || runs <= mergeFanIn {
		t.Fatalf("%d rows in %d runs, want %d rows in more than %d runs", rows, runs, n, mergeFanIn)
	}
	if used < merge || used > budget {
		t.Fatalf("high-water mark %d bytes, want the %d of a merge's buffers and at most the budget of %d", used, merge, budget)
	}
	if grown > budget {
		t.Fatalf("%d bytes more live at the first row, want at most the budget of %d", grown, budget)
	}
}

// TestSorterChargesMergeBuffers: a sorter handed runs and no rows holds no
// state but its merges' buffers — a run waiting for a merge holds none — so
// its high-water mark is exactly the mergeFanIn+1 buffers of the merge that
// writes a run, and once its final merge is drained every charge is given
// back.
func TestSorterChargesMergeBuffers(t *testing.T) {
	const budget = 64 << 10
	mgr := storage.NewSpillManager(t.TempDir())
	defer mgr.Cleanup()
	gov := newGovernor(&Options{MemoryBudget: budget})
	x := newSorter(gov, mgr, nil, "test", 1, bySeq)
	for i := 0; i <= mergeFanIn; i++ {
		must(t, x.addRun(func(run *spillFile) error {
			return run.writeRecord(int64(i), value.Row{value.NewInt(int64(i))})
		}, func() {}))
	}
	for i, run := range x.runs {
		if run.w != nil || run.r != nil {
			t.Fatalf("run %d of %d holds a buffer while it waits for the merge", i, len(x.runs))
		}
	}
	out, err := x.finish(nil)
	must(t, err)
	n := 0
	must(t, out.merge.each(func(spillRow) error { n++; return nil }))
	must(t, out.merge.close())
	if want := int64((mergeFanIn + 1) * gov.spillBufSize()); n != mergeFanIn+1 || gov.usedBytes() != want || gov.used.Load() != 0 {
		t.Fatalf("%d rows, high-water %d bytes and %d still charged, want %d rows, %d and 0",
			n, gov.usedBytes(), gov.used.Load(), mergeFanIn+1, want)
	}
}

// TestUnmanagedSortIsCharged: without a spill manager a sort's buffer is
// operator state like a hash table's, charged whole through the abort rule:
// 20 000 rows under a 4 096-byte budget abort with a *ResourceError naming the
// Sort at one worker and at two, and under a budget they fit in they count in
// the high-water mark.
func TestUnmanagedSortIsCharged(t *testing.T) {
	const n = 20_000
	plan := &algebra.Sort{
		Input: keyedValuesPlan("t", n, 100),
		Keys:  []algebra.SortItem{{Col: expr.ColumnID{Table: "t", Name: "v"}}},
	}
	for _, workers := range []int{1, 2} {
		_, err := Run(plan, nil, &Options{Parallelism: workers, MemoryBudget: 4096})
		var re *ResourceError
		if !errors.As(err, &re) || !strings.HasPrefix(re.Op, "Sort") {
			t.Fatalf("workers=%d: err=%v, want a *ResourceError of the Sort", workers, err)
		}
		metrics := obs.NewCollector()
		res, err := Run(plan, nil, &Options{Parallelism: workers, MemoryBudget: 1 << 30, Metrics: metrics})
		must(t, err)
		if used, least := metrics.Gov().UsedBytes, n*rowStateBytes(res.Rows[0]); len(res.Rows) != n || used < least {
			t.Fatalf("workers=%d: %d rows holding %d bytes, want %d rows and at least %d bytes", workers, len(res.Rows), used, n, least)
		}
	}
}
