package exec

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// renameOf is the paper's π_A over in as a pure rename: every input column, in
// order, under a new name.
func renameOf(in algebra.Node) *algebra.Project {
	items := make([]algebra.ProjItem, len(in.Schema()))
	for i, c := range in.Schema() {
		items[i] = algebra.ProjItem{E: expr.Column(c.ID.Table, c.ID.Name), As: expr.ColumnID{Name: fmt.Sprintf("r%d", i)}}
	}
	return &algebra.Project{Input: in, Items: items}
}

// handedOver is a breaker that remembers the rows its open returned.
type handedOver struct {
	breaker
	rows []value.Row
}

func (h *handedOver) open() (opened, error) {
	out, err := h.breaker.open()
	h.rows = out.rows
	return out, err
}

// discard is a Consumer that keeps nothing.
type discard struct{}

func (discard) Begin(int) {}

func (discard) Chunk(int) func(value.Row) error { return func(value.Row) error { return nil } }

// allocated is the bytes fn allocates, the least of three runs.
func allocated(fn func()) int64 {
	least := int64(-1)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if got := int64(after.TotalAlloc - before.TotalAlloc); least < 0 || got < least {
			least = got
		}
	}
	return least
}

// TestRowsAreMadeOnce: a finished row's first copy is its last. A hash
// grouping makes each row only when its consumer asks for it. Group → rename
// → root collects each row once, made straight into one slab, in id order:
// Run allocates that slab and its headers, and no more, over what streaming
// the same plan does — Stream, which keeps no row, and TopK over the group,
// which keeps its few, hold no slab of the groups. TopK → root returns the
// operator's own buffer, the very slice its open returned. All of it at one
// and three workers — three finish one table's groups at once, each with its
// own scratch —, in the row and the columnar source form, with metrics and a
// context governor each on and off. A rename over a stored table returns the
// table's rows in a header slice of the caller's: reordering it and
// appending to it leave Table.Rows() as it was.
func TestRowsAreMadeOnce(t *testing.T) {
	const n, groups, top = 20000, 5000, 5
	store, scan := keyedStore(t, "t", n, groups)
	tab, err := store.Table("t")
	must(t, err)
	group := &algebra.GroupBy{
		Input:     scan,
		GroupCols: []expr.ColumnID{{Table: "t", Name: "k"}},
		Aggs: []algebra.AggItem{{
			E: &expr.Aggregate{Func: expr.AggSum, Arg: expr.Column("t", "v")}, As: expr.ColumnID{Name: "s"},
		}},
	}
	groupTop := &algebra.Limit{N: top, Input: &algebra.Sort{
		Input: group, Keys: []algebra.SortItem{{Col: expr.ColumnID{Name: "s"}, Desc: true}},
	}}
	topK := &algebra.Limit{N: top, Input: &algebra.Sort{
		Input: scan, Keys: []algebra.SortItem{{Col: expr.ColumnID{Table: "t", Name: "v"}, Desc: true}},
	}}
	wantGroups, err := Run(group, store, nil)
	must(t, err)
	wantTop, err := Run(topK, store, nil)
	must(t, err)
	width := len(group.Schema())
	slab := int64(groups * width * valueSlotBytes)
	headers := int64(groups * rowHeaderBytes)
	for _, workers := range []int{1, 3} {
		for _, vectorize := range []bool{false, true} {
			for _, metrics := range []bool{false, true} {
				for _, governed := range []bool{false, true} {
					name := fmt.Sprintf("workers=%d/vectorize=%v/metrics=%v/governed=%v", workers, vectorize, metrics, governed)
					t.Run(name, func(t *testing.T) {
						ctx, cancel := context.WithCancel(context.Background())
						defer cancel()
						options := func() *Options {
							opts := &Options{Group: GroupHash, Parallelism: workers, Vectorize: vectorize}
							if metrics {
								opts.Metrics = obs.NewCollector()
							}
							if governed {
								opts.Context = ctx // cancellable, so the run has a governor
							}
							return opts
						}
						gov := newGovernor(options())
						gov.detach()
						if (gov != nil) != governed {
							t.Fatalf("governed=%v, but the options make a governor: %v", governed, gov != nil)
						}
						compile := func(plan algebra.Node) lowered {
							opts := options()
							c := &compiler{store: store, opts: opts, par: workers, clock: obs.Wall, gov: newGovernor(opts)}
							out, err := lower(c, plan)
							must(t, err)
							return out
						}

						// group → rename → root: each row made once, into one slab, in id order.
						opts, renamed := options(), renameOf(group)
						res, err := Run(renamed, store, opts)
						must(t, err)
						rows := res.Rows
						if !sameRows(rows, wantGroups.Rows) {
							t.Fatalf("group → rename → root: %v, want %v", rows, wantGroups.Rows)
						}
						at := uintptr(unsafe.Pointer(&rows[0][0]))
						for i, row := range rows {
							if got := uintptr(unsafe.Pointer(&row[0])); got != at+uintptr(i*width)*unsafe.Sizeof(value.Value{}) {
								t.Fatalf("row %d does not lie in the collection's slab: a row was made again", i)
							}
						}
						if metrics {
							if got := opts.Metrics.Lookup(renamed).RowsOut.Load(); got != groups {
								t.Fatalf("the rename counted %d rows, want %d", got, groups)
							}
						}
						collected := allocated(func() {
							_, err := Run(renameOf(group), store, options())
							must(t, err)
						})
						streamed := allocated(func() { must(t, stream(renameOf(group), store, options(), discard{})) })
						topped := allocated(func() {
							res, err := Run(groupTop, store, options())
							must(t, err)
							if len(res.Rows) != top {
								t.Fatalf("TopK over the group: %d rows", len(res.Rows))
							}
						})
						t.Logf("collected %d bytes, streamed %d, TopK over the group %d; the slab is %d, its headers %d", collected, streamed, topped, slab, headers)
						if extra := collected - streamed; extra < slab || extra > slab+headers+slab/4 {
							t.Errorf("collecting the groups allocates %d bytes more than streaming them: want the %d-byte slab and its %d bytes of headers", extra, slab, headers)
						}
						if saved := collected - topped; saved < slab {
							t.Errorf("TopK over the group allocates %d bytes less than collecting it: want at least the %d-byte slab", saved, slab)
						}

						// TopK → root: the result is the operator's buffer, given up.
						out := compile(topK)
						heap := &handedOver{breaker: out.pipe.src.(*topKOp)}
						out.pipe.src = heap
						rows, err = out.pipe.collect()
						must(t, err)
						if given := unsafe.SliceData(rows) == unsafe.SliceData(heap.rows); !given || len(rows) != top || cap(rows) != top {
							t.Fatalf("TopK → root: %d rows in a slice of %d, the heap's own: %v — want its own %d-row buffer", len(rows), cap(rows), given, top)
						}
						if !sameRows(rows, wantTop.Rows) {
							t.Fatalf("TopK → root: %v, want %v", rows, wantTop.Rows)
						}

						// scan → rename → root: the stored rows, in a header slice of the caller's.
						before := slices.Clone(tab.Rows())
						res, err = Run(renameOf(scan), store, options())
						must(t, err)
						if !sameRows(res.Rows, before) {
							t.Fatal("scan → rename → root: not the table's rows")
						}
						slices.Reverse(res.Rows)
						res.Rows = append(res.Rows, value.Row{value.NewInt(-1), value.NewInt(-1)})
						after := tab.Rows()
						if len(after) != len(before) {
							t.Fatalf("appending to the result grew the table to %d rows from %d", len(after), len(before))
						}
						for i := range before {
							if &after[i][0] != &before[i][0] {
								t.Fatalf("reordering the result moved the table's row %d", i)
							}
						}
					})
				}
			}
		}
	}
}

// sameRows reports whether a and b hold the same rows in the same order.
func sameRows(a, b []value.Row) bool {
	return slices.EqualFunc(a, b, func(x, y value.Row) bool { return value.GroupKeyAll(x) == value.GroupKeyAll(y) })
}

// TestResultPathKeepsInjectorSteps: handing a breaker's rows over in place of
// collecting them moves no fault-injector ordinal. Each plan takes exactly the
// injector steps it took when every result row was pulled or collected (the
// counts measured on the commit before the hand-over) — every row ticked once
// per node that ticks it, the drained root's end-of-stream pull included — at
// one worker and at three, in both source forms.
func TestResultPathKeepsInjectorSteps(t *testing.T) {
	group := govGroupPlan(5000, 300)
	groupStore, groupScan := keyedStore(t, "t", 5000, 300)
	group.Input = groupScan
	store, src := keyedStore(t, "t", 3000, 70)
	topK := &algebra.Limit{N: 7, Input: &algebra.Sort{
		Input: src, Keys: []algebra.SortItem{{Col: expr.ColumnID{Table: "t", Name: "v"}, Desc: true}},
	}}
	distinct := &algebra.Project{Distinct: true, Input: src, Items: []algebra.ProjItem{
		{E: expr.Column("t", "k"), As: expr.ColumnID{Table: "t", Name: "k"}},
	}}
	for _, tc := range []struct {
		name     string
		plan     algebra.Node
		store    *storage.Store
		row, vec int64
	}{
		{"group → rename → root", renameOf(group), groupStore, 10900, 910},
		{"group → root", group, groupStore, 10301, 311},
		{"scan → rename → root", renameOf(src), store, 9000, 9},
		{"TopK → root", topK, store, 3008, 11},
		{"TopK → rename → root", renameOf(topK), store, 3021, 24},
		{"DISTINCT → rename → root", renameOf(distinct), store, 9210, 6213},
	} {
		for _, workers := range []int{1, 3} {
			for _, vectorize := range []bool{false, true} {
				inj := fault.New(nil)
				_, err := Run(tc.plan, tc.store, &Options{Faults: inj, Parallelism: workers, Vectorize: vectorize})
				must(t, err)
				want := tc.row
				if vectorize {
					want = tc.vec
				}
				if got := inj.Ticks(); got != want {
					t.Errorf("%s, workers=%d, vectorize=%v: %d injector steps, want %d", tc.name, workers, vectorize, got, want)
				}
			}
		}
	}
}
