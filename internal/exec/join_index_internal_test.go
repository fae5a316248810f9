package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// A join whose build side is a stored table's rows as stored probes the
// table version's join index; any other build side is built by the run.

// builtJoin binds plan, whose root is a join, over store under opts and runs
// the join's build: the join as its probe finds it. A build the budget refuses
// is returned as it is left for the grace path.
func builtJoin(plan algebra.Node, store *storage.Store, opts *Options) (*hashJoinOp, error) {
	c := &compiler{store: store, opts: opts, par: 1, clock: obs.Wall, gov: newGovernor(opts)}
	if opts.Spill != nil && c.gov != nil {
		c.spill = opts.Spill
	}
	p, err := bindPlan(c, plan)
	if err != nil {
		return nil, err
	}
	for _, st := range p.stages {
		if st.join != nil {
			if err := st.join.build(); err != nil && err != errRefused {
				return nil, err
			}
			return st.join, nil
		}
	}
	return nil, fmt.Errorf("the plan has no join stage")
}

func mustJoin(t *testing.T, plan algebra.Node, store *storage.Store, opts *Options) *hashJoinOp {
	t.Helper()
	j, err := builtJoin(plan, store, opts)
	must(t, err)
	return j
}

// probesIndex reports whether j probes its stored table's join index.
func (j *hashJoinOp) probesIndex() bool {
	return j.index != nil && j.table == storedIndex(j.stored, j.index.key)
}

// storedIndex is tab's join index under key, or nil when tab keeps none.
func storedIndex(tab *storage.Table, key joinIndexKey) *joinTable {
	v, err := tab.Derived(key, func(*storage.Table) (any, error) { return nil, errRefused })
	if err != nil {
		return nil
	}
	return v.(*joinTable)
}

// charged is what binding and building plan's join charges a run: its
// StateBytes and the governor's high-water mark.
func charged(t *testing.T, plan algebra.Node, store *storage.Store) (state, high int64) {
	t.Helper()
	j := mustJoin(t, plan, store, &Options{MemoryBudget: 1 << 30, Metrics: obs.NewCollector()})
	return j.metrics.StateBytes.Load(), j.gov.usedBytes()
}

// TestJoinPathByBuildShape: a bare stored build and a projection of its plain
// columns — permuted, so the probe reads through the column map, or keeping
// only the key — take the index; a filtered build, and an indexed one whose
// charge the budget refuses, are built. Every case returns the rows of the
// same join over a Values literal of the table's rows, which is always
// built, in both source forms; an indexed one charges its run the StateBytes
// and the high-water mark of the literal's build, both for the run that makes
// the index and for one that finds it made.
func TestJoinPathByBuildShape(t *testing.T) {
	_, scan := keyedStore(t, "r", 200, 20)
	literal := keyedValuesPlan("r", 200, 20)
	project := func(in algebra.Node) algebra.Node {
		return &algebra.Project{Input: in, Items: []algebra.ProjItem{
			{E: expr.Column("r", "v"), As: expr.ColumnID{Table: "r", Name: "v"}},
			{E: expr.Column("r", "k"), As: expr.ColumnID{Table: "r", Name: "k"}},
		}}
	}
	narrow := func(in algebra.Node) algebra.Node {
		return &algebra.Project{Input: in, Items: []algebra.ProjItem{
			{E: expr.Column("r", "k"), As: expr.ColumnID{Table: "r", Name: "k"}},
		}}
	}
	join := func(r algebra.Node) *algebra.Join {
		return &algebra.Join{L: keyedValuesPlan("l", 50, 25), R: r, Cond: expr.Eq(expr.Column("l", "k"), expr.Column("r", "k"))}
	}
	for _, tc := range []struct {
		name      string
		build, as algebra.Node // the build side, and the same rows built
		budget    int64
		indexed   bool
	}{
		{"bare", scan, literal, 0, true},
		{"projected", project(scan), project(literal), 0, true},
		{"narrow", narrow(scan), narrow(literal), 0, true},
		{"filtered", filterOf(scan, "r"), filterOf(literal, "r"), 0, false},
		{"refused", scan, literal, 64, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, _ := keyedStore(t, "r", 200, 20) // no index yet
			if tc.indexed {
				wantState, wantHigh := charged(t, join(tc.as), store)
				for _, run := range []string{"makes", "finds"} {
					if state, high := charged(t, join(tc.build), store); state != wantState || high != wantHigh {
						t.Fatalf("the run that %s the index charges StateBytes %d, high-water %d; its own build: %d, %d",
							run, state, high, wantState, wantHigh)
					}
				}
			}
			opts := func(vectorize bool) *Options {
				o := &Options{Vectorize: vectorize, MemoryBudget: tc.budget}
				if tc.budget > 0 {
					o.Spill = storage.NewSpillManager(t.TempDir())
				}
				return o
			}
			if j := mustJoin(t, join(tc.build), store, opts(false)); j.probesIndex() != tc.indexed {
				t.Fatalf("indexed = %v, want %v", j.probesIndex(), tc.indexed)
			}
			want, err := Run(join(tc.as), store, opts(false))
			must(t, err)
			if len(want.Rows) == 0 {
				t.Fatal("the join matches nothing")
			}
			for _, vectorize := range []bool{false, true} {
				got, err := Run(join(tc.build), store, opts(vectorize))
				must(t, err)
				if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
					t.Fatalf("vectorize=%v: %v\nwant %v", vectorize, head(got.Rows), head(want.Rows))
				}
			}
		})
	}
}

// TestJoinIndexPerVersion: sixteen runs that are a version's first users
// probe one index, which holds the RowIDs of the version's own rows; an
// INSERT's version gets an index of its own holding the new row, and a run
// over the older snapshot still finds only that version's rows.
func TestJoinIndexPerVersion(t *testing.T) {
	live, scan := keyedStore(t, "r", 100, 10)
	plan := &algebra.Join{L: keyedValuesPlan("l", 20, 20), R: scan, Cond: expr.Eq(expr.Column("l", "k"), expr.Column("r", "k"))}
	old := live.Snapshot()
	joins, errs := make([]*hashJoinOp, 16), make([]error, 16)
	var wg sync.WaitGroup
	for i := range joins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			joins[i], errs[i] = builtJoin(plan, old, &Options{})
		}()
	}
	wg.Wait()
	for i, j := range joins {
		must(t, errs[i])
		if !j.probesIndex() || j.table != joins[0].table {
			t.Fatalf("run %d probes a table of its own", i)
		}
	}
	tab, err := old.Table("r")
	must(t, err)
	key := func(tab *joinTable, k int64) joinChain { return probeValue(tab, value.NewInt(k)) }
	if ch := key(joins[0].table, 3); ch.n != 10 || &joins[0].table.rows[ch.head][0] != &tab.Row(3)[0] {
		t.Fatalf("key 3's chain is %+v, not the version's RowIDs 3, 13, …", ch)
	}

	must(t, live.Insert("r", value.Row{value.NewInt(15), value.NewInt(-1)}))
	j := mustJoin(t, plan, live.Snapshot(), &Options{})
	if ch := key(j.table, 15); !j.probesIndex() || ch.n != 1 || ch.head != 100 {
		t.Fatalf("the new version's index holds key 15 as %+v, want RowID 100", ch)
	}
	if ch := key(mustJoin(t, plan, old, &Options{}).table, 15); ch.n != 0 {
		t.Fatalf("the older snapshot's index holds the new row: %+v", ch)
	}
	for _, st := range []*storage.Store{old, live.Snapshot()} {
		res, err := Run(plan, st, &Options{})
		must(t, err)
		n := 0
		for _, row := range res.Rows {
			if row[0].Int() == 15 {
				n++
			}
		}
		if want := map[bool]int{true: 0, false: 1}[st == old]; n != want {
			t.Fatalf("%d joined rows of key 15, want %d", n, want)
		}
	}
}

// TestJoinIndexWithinBudget: a run whose budget cannot hold a large stored
// build side's index neither makes nor keeps one — it aborts, or with a spill
// manager goes grace, exactly as its own build of the same rows does, and
// does not begin the making when the rows alone do not fit — and a
// cancel during a run's making of the index stops the making at once and
// leaves the version without an index, which the next run makes.
func TestJoinIndexWithinBudget(t *testing.T) {
	const rows, budget = 5000, 8 << 10
	_, scan := keyedStore(t, "r", rows, rows)
	literal := keyedValuesPlan("r", rows, rows)
	join := func(r algebra.Node) *algebra.Join {
		return &algebra.Join{L: keyedValuesPlan("l", 100, rows), R: r, Cond: expr.Eq(expr.Column("l", "k"), expr.Column("r", "k"))}
	}
	key := joinIndexKey(fmt.Sprint([]int{0}))
	unindexed := func(t *testing.T, store *storage.Store) {
		t.Helper()
		tab, err := store.Table("r")
		must(t, err)
		if storedIndex(tab, key) != nil {
			t.Fatal("the version keeps a join index its run could not afford")
		}
	}

	t.Run("abort", func(t *testing.T) {
		store, _ := keyedStore(t, "r", rows, rows)
		_, err := Run(join(scan), store, &Options{MemoryBudget: budget})
		_, want := Run(join(literal), store, &Options{MemoryBudget: budget})
		var got, own *ResourceError
		if !errors.As(err, &got) || !errors.As(want, &own) || got.Used != own.Used || got.Budget != own.Budget {
			t.Fatalf("err = %v, want the abort of the run's own build: %v", err, want)
		}
		unindexed(t, store)
	})
	t.Run("grace", func(t *testing.T) {
		store, _ := keyedStore(t, "r", rows, rows)
		opts := &Options{MemoryBudget: budget, Spill: storage.NewSpillManager(t.TempDir())}
		got, err := Run(join(scan), store, opts)
		must(t, err)
		want, err := Run(join(literal), store, opts)
		must(t, err)
		if len(want.Rows) != 100 || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Fatalf("%d rows, want the %d of the run's own build", len(got.Rows), len(want.Rows))
		}
		unindexed(t, store)
	})
	t.Run("not begun", func(t *testing.T) {
		// The rows alone outweigh the budget, so the run ticks exactly as
		// its own build does: no entry of an index is made and thrown away.
		store, _ := keyedStore(t, "r", rows, rows)
		ticks := func(plan algebra.Node) int64 {
			faults := fault.New(nil)
			_, err := Run(plan, store, &Options{MemoryBudget: budget, Spill: storage.NewSpillManager(t.TempDir()), Faults: faults})
			must(t, err)
			return faults.Ticks()
		}
		if got, want := ticks(join(scan)), ticks(join(literal)); got != want {
			t.Fatalf("the run ticks %d times, its own build %d", got, want)
		}
		unindexed(t, store)
	})
	t.Run("cancel", func(t *testing.T) {
		store, _ := keyedStore(t, "r", rows, rows)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		faults := fault.New([]fault.Event{{Tick: 100, Kind: fault.Cancel}}).WithCancel(cancel)
		_, err := Run(join(scan), store, &Options{Context: ctx, Faults: faults})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want the cancel", err)
		}
		if n := faults.Ticks(); n > 110 {
			t.Fatalf("the run ticked %d times after a cancel at tick 100", n)
		}
		unindexed(t, store)
		if j := mustJoin(t, join(scan), store, &Options{}); !j.probesIndex() {
			t.Fatal("the run after the cancel does not make the index")
		}
	})
}
