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
			must(t, Stream(tc.plan, nil, spilling(), consumerFunc(func(value.Row) error {
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
// live, and it returns the unbudgeted rows. Under a budget of 2 KiB its 5 000
// rows make some 150 runs; under one byte every row is a run of its own, and
// runs are merged two generations up.
func TestExternalSortFanIn(t *testing.T) {
	plan := &algebra.Sort{
		Input: keyedValuesPlan("t", 5_000, 97),
		Keys:  []algebra.SortItem{{Col: expr.ColumnID{Table: "t", Name: "k"}}},
	}
	want, err := Run(plan, nil, nil)
	must(t, err)
	for _, budget := range []int64{2 << 10, 1} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			mgr := storage.NewSpillManager(t.TempDir())
			defer mgr.Cleanup()
			metrics := obs.NewCollector()
			var got []value.Row
			live := 0
			must(t, Stream(plan, nil, &Options{MemoryBudget: budget, Spill: mgr, Metrics: metrics}, consumerFunc(func(row value.Row) error {
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
