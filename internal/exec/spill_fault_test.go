package exec

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// TestSpillOperatorDiskFaults is the per-operator disk-fault regression
// suite: each external path — external sort, external aggregation, grace
// hash join, each in the row and in the columnar source form — is driven
// through every disk fault kind injected at every tick of its execution (the
// horizon is the fault-free run's own tick count). The fault-free spilling run
// must return the unbudgeted rows; each faulted run must either return exactly
// those (the fault landed where no disk operation happened) or fail with a
// typed *SpillError and a nil result — never a partial result, never an
// untyped error — and must never leave a temp file behind.
func TestSpillOperatorDiskFaults(t *testing.T) {
	s := fixture(t)
	// A budget below one row's state forces the hash operators to spill
	// immediately, so writes, reads and closes all happen. A sort refused an
	// empty buffer holds a minimum run uncharged, more rows than the fixture
	// has, so the sorts run under a budget of one row: every row is a run.
	const budget = 64
	oneRow := rowStateBytes(make(value.Row, 3))

	cases := []struct {
		name   string
		plan   algebra.Node
		opts   Options
		budget int64 // 0: budget
	}{
		{
			name: "external-sort",
			plan: &algebra.Sort{
				Input: scanOf(t, s, "Employee", "E"),
				Keys:  []algebra.SortItem{{Col: expr.ColumnID{Table: "E", Name: "Salary"}}},
			},
			budget: oneRow,
		},
		{
			name: "external-aggregation",
			plan: groupPlan(t, s, true),
			opts: Options{Group: GroupHash},
		},
		{
			name: "grace-hash-join",
			plan: joinPlan(t, s),
		},
		// The same breakers over a columnar source: the streaming prefix stays
		// in batches and the breaker takes the unrolled rows in order.
		{
			name: "external-sort, vectorized",
			plan: &algebra.Sort{
				Input: scanOf(t, s, "Employee", "E"),
				Keys:  []algebra.SortItem{{Col: expr.ColumnID{Table: "E", Name: "Salary"}}},
			},
			opts:   Options{Vectorize: true},
			budget: oneRow,
		},
		{
			name: "external-aggregation, vectorized",
			plan: groupPlan(t, s, true),
			opts: Options{Group: GroupHash, Vectorize: true},
		},
		{
			name: "grace-hash-join, vectorized",
			plan: joinPlan(t, s),
			opts: Options{Vectorize: true},
		},
	}
	kinds := []fault.Kind{fault.DiskWriteFail, fault.DiskShortWrite, fault.DiskReadFail, fault.DiskCloseFail}

	rowsEqual := func(a, b []value.Row) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if value.GroupKeyAll(a[i]) != value.GroupKeyAll(b[i]) {
				return false
			}
		}
		return true
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			budget := cmp.Or(tc.budget, budget)

			// The reference: the same spilling plan with no faults. It must
			// actually spill, or the sweep below exercises nothing.
			refMgr := storage.NewSpillManager(dir)
			refCol := obs.NewCollector()
			refOpts := tc.opts
			refOpts.MemoryBudget = budget
			refOpts.Spill = refMgr
			refOpts.Metrics = refCol
			refOpts.Faults = fault.New(nil) // no events: it only counts the ticks
			ref, err := Run(tc.plan, s, &refOpts)
			must(t, err)
			maxTick := refOpts.Faults.Ticks()
			if testing.Short() && maxTick > 120 {
				// The first ~120 ticks cover every disk-operation stage at
				// least once; the full sweep also walks the faults through
				// the long tail of partition reads.
				maxTick = 120
			}
			if refCol.Gov().SpillBytes == 0 {
				t.Fatalf("reference run did not spill; the budget is not tight enough to exercise %s", tc.name)
			}
			if n := refMgr.Live(); n != 0 {
				t.Fatalf("fault-free run leaked %d spill files", n)
			}
			// Spilling changes no row: the row engine's, with no budget at all.
			unbudgeted, err := Run(tc.plan, s, &Options{Group: tc.opts.Group})
			must(t, err)
			if !rowsEqual(ref.Rows, unbudgeted.Rows) {
				t.Fatalf("the spilling run's %d rows are not the unbudgeted run's %d", len(ref.Rows), len(unbudgeted.Rows))
			}

			for _, kind := range kinds {
				t.Run(kind.String(), func(t *testing.T) {
					t.Parallel()
					dir := t.TempDir()
					fired := 0
					for tick := int64(1); tick <= maxTick; tick++ {
						mgr := storage.NewSpillManager(dir)
						opts := tc.opts
						opts.MemoryBudget = budget
						opts.Spill = mgr
						opts.Faults = fault.New([]fault.Event{{Tick: tick, Kind: kind}})
						res, err := Run(tc.plan, s, &opts)
						if err != nil {
							fired++
							var se *SpillError
							if !errors.As(err, &se) {
								t.Fatalf("%v at tick %d surfaced as %T, want *SpillError: %v", kind, tick, err, err)
							}
							if res != nil {
								t.Fatalf("%v at tick %d returned a partial result alongside the error", kind, tick)
							}
						} else if !rowsEqual(res.Rows, ref.Rows) {
							t.Fatalf("%v at tick %d: un-faulted run diverged from reference (%d rows vs %d)",
								kind, tick, len(res.Rows), len(ref.Rows))
						}
						if n := mgr.Live(); n != 0 {
							t.Fatalf("%v at tick %d leaked %d spill files (err=%v)", kind, tick, n, err)
						}
						if err := mgr.Cleanup(); err != nil {
							t.Fatalf("cleanup after %v at tick %d: %v", kind, tick, err)
						}
					}
					if fired == 0 {
						t.Fatalf("%v never landed on a disk operation in the %d-tick sweep; the sweep is not covering %s", kind, maxTick, tc.name)
					}
				})
			}
		})
	}
}

// TestSpillRecordTruncation: a record cut short anywhere reads as
// io.ErrUnexpectedEOF, never as a row and never as the clean end of a file —
// for every proper prefix of records holding every value tag, a multi-byte
// sequence number and a long string — while the empty prefix is a clean end
// and the whole record reads back.
func TestSpillRecordTruncation(t *testing.T) {
	for _, sr := range []spillRow{
		{seq: 0, row: value.Row{}},
		{seq: 1 << 40, row: value.Row{value.Null, value.NewInt(-300), value.NewFloat(2.5),
			value.NewString(strings.Repeat("x", 200)), value.NewBool(true)}},
		{seq: -7, row: value.Row{value.NewString(""), value.NewInt(1 << 50)}},
	} {
		rec := appendSpillRow(nil, sr.seq, sr.row)
		for k := 0; k <= len(rec); k++ {
			got, ok, err := readSpillRow(bufio.NewReader(bytes.NewReader(rec[:k])))
			switch {
			case k == 0:
				if ok || err != nil {
					t.Fatalf("seq %d: the empty prefix reads ok=%v err=%v, want a clean end", sr.seq, ok, err)
				}
			case k < len(rec):
				if ok || !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("seq %d: the first %d of %d bytes read ok=%v err=%v, want io.ErrUnexpectedEOF", sr.seq, k, len(rec), ok, err)
				}
			default:
				if !ok || err != nil || got.seq != sr.seq || !value.NullEqRows(got.row, sr.row) {
					t.Fatalf("seq %d: the whole record reads %v ok=%v err=%v", sr.seq, got, ok, err)
				}
			}
		}
	}
}
