package exec

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/vec"
)

// These tests pin the batch form's per-batch cost the same way the metrics and
// governance tests pin the row form's per-row cost: a batch allocates nothing
// on its way through the kernelized filter, the gathering probe or the group
// sink — with instrumentation and governance active — because a stage's
// scratch (selection, output vectors, key encoder, scratch row) is its
// worker's, made once per run, selection views alias the input's vectors, and
// the instrumentation is one tick and one count per batch.

// vecFilter is Select(v >= 0) over in — a predicate the compiler kernels (int
// column vs int literal) and that every row passes, so every batch is handed
// on whole.
func vecFilter(in algebra.Node) *algebra.Select {
	return &algebra.Select{
		Input: in,
		Cond:  expr.NewBinary(expr.OpGe, expr.Column("t", "v"), expr.IntLit(0)),
	}
}

// keyedStore holds one table table(k, v) of n rows, k cycling through keys
// values — keyedValuesPlan's rows as a stored table, its columnar form built
// once and cached, outside any measurement — and returns the store and a Scan
// of it. Under Vectorize a Scan is a columnar source and a Values literal is
// not, so a test of the batch form reads its rows through this.
func keyedStore(t testing.TB, table string, n, keys int) (*storage.Store, *algebra.Scan) {
	t.Helper()
	values := keyedValuesPlan(table, n, keys)
	s := storage.NewStore(schema.NewCatalog())
	must(t, s.CreateTable(&schema.Table{Name: table, Columns: []schema.Column{
		{Name: "k", Type: value.KindInt}, {Name: "v", Type: value.KindInt},
	}}))
	for _, row := range values.Rows {
		must(t, s.Insert(table, row))
	}
	tab, err := s.Table(table)
	must(t, err)
	tab.Columnar()
	return s, algebra.NewScan(table, table, values.Cols)
}

// TestVectorPathZeroAllocs: the batch analogue of TestRowPathZeroAllocs and
// TestGovernedRowPathZeroAllocs. What a whole run allocates does not grow
// with the number of source batches: scan → kernelized filter into an
// in-order consumer (the batch unrolled into the worker's scratch row), and
// scan → probe → group sink (batches all the way), allocate as often over four
// times the batches — on the uninstrumented path, the fully instrumented path
// and the governed path.
func TestVectorPathZeroAllocs(t *testing.T) {
	const groups, small, large = 100, 10 * MorselSize, 40 * MorselSize
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	configs := []struct {
		name string
		opts func() *Options
	}{
		{"disabled", func() *Options { return &Options{Vectorize: true} }},
		{"metrics+trace", func() *Options {
			return &Options{
				Vectorize: true,
				Metrics:   obs.NewCollector(),
				Trace:     obs.NewTracer(obs.NewFakeClock(time.Unix(0, 0), time.Millisecond)),
				Clock:     obs.NewFakeClock(time.Unix(0, 0), time.Millisecond),
			}
		}},
		{"governed", func() *Options {
			return &Options{Vectorize: true, Context: ctx, MemoryBudget: 1 << 30}
		}},
	}
	chains := []struct {
		name string
		run  func(t *testing.T, store *storage.Store, src algebra.Node, n int, opts *Options)
	}{
		{"scan → filter", func(t *testing.T, store *storage.Store, src algebra.Node, n int, opts *Options) {
			c := &compiler{store: store, opts: opts, par: 1, clock: opts.Clock, gov: newGovernor(opts)}
			if c.clock == nil {
				c.clock = obs.Wall
			}
			out, err := lower(c, &algebra.Select{
				Input: src, Cond: expr.NewBinary(expr.OpGe, expr.Column("t", "v"), expr.IntLit(0)),
			})
			must(t, err)
			if !out.pipe.inBatches() {
				t.Fatal("scan → filter is not in batches with Vectorize on")
			}
			rows := 0
			must(t, out.pipe.each(func(value.Row) error { rows++; return nil }))
			if rows != n {
				t.Fatalf("%d rows, want %d", rows, n)
			}
		}},
		{"scan → probe → group sink", func(t *testing.T, store *storage.Store, src algebra.Node, n int, opts *Options) {
			res, err := Run(&algebra.GroupBy{
				Input: &algebra.Join{
					L: src, R: keyedValuesPlan("r", groups, groups),
					Cond: expr.Eq(expr.Column("t", "k"), expr.Column("r", "k")),
				},
				GroupCols: []expr.ColumnID{{Table: "t", Name: "k"}},
				Aggs: []algebra.AggItem{{
					E:  &expr.Aggregate{Func: expr.AggSum, Arg: expr.Column("r", "v")},
					As: expr.ColumnID{Name: "s"},
				}},
			}, store, opts)
			if err != nil || len(res.Rows) != groups {
				t.Fatalf("%v rows, err=%v", res, err)
			}
		}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			for _, chain := range chains {
				allocs := func(n int) float64 {
					store, src := keyedStore(t, "t", n, groups)
					return testing.AllocsPerRun(5, func() { chain.run(t, store, src, n, cfg.opts()) })
				}
				// The counts are equal; under the race detector a whole run's
				// count moves by a few whatever n is (its runtime allocates), so
				// TestRowPathZeroAllocs' allowance for that applies — still less
				// than one allocation per further batch.
				few, many := allocs(small), allocs(large)
				t.Logf("%s: %.0f allocations over 10 batches, %.0f over 40", chain.name, few, many)
				if many-few > 24 {
					t.Errorf("%s: a run over 10 batches allocates %.0f times, over 40 batches %.0f times: want the same", chain.name, few, many)
				}
			}
		})
	}
}

// TestVectorizeDisabledInsertsNoBatchOperators: with Vectorize off nothing has
// a batch form — the source is rows, no stage hands on a batch and a sink that
// could take batches is bound to rows — so the row path is untouched by the
// columnar form's existence. With it on, the same plan is in batches up to
// its sink.
func TestVectorizeDisabledInsertsNoBatchOperators(t *testing.T) {
	store, scan := keyedStore(t, "t", 8, 8)
	compilePlan := func(opts *Options) *pipeOp {
		c := &compiler{store: store, opts: opts, par: 1, clock: obs.Wall}
		out, err := lower(c, &algebra.Project{
			Input: vecFilter(scan),
			Items: []algebra.ProjItem{{E: expr.Column("t", "v"), As: expr.ColumnID{Name: "v"}}},
		})
		must(t, err)
		return out.pipe
	}
	bound := func(p *pipeOp) batchFn {
		s := &collector{p: p}
		s.begin(8, MorselSize)
		_, carry, _, err := p.bind(s, 0, 0)
		must(t, err)
		return carry
	}
	p := compilePlan(&Options{})
	if p.cols != nil || p.nbatch != 0 || p.inBatches() {
		t.Fatalf("Vectorize off: the source is columnar (%v) or %d stages are in batches", p.cols != nil, p.nbatch)
	}
	for i, st := range p.stages {
		if st.batch != nil || st.bind == nil {
			t.Fatalf("Vectorize off: stage %d has a batch form (%v) or no row form", i, st.batch != nil)
		}
	}
	if bound(p) != nil {
		t.Fatal("Vectorize off: the collecting sink was bound to batches")
	}
	v := compilePlan(&Options{Vectorize: true})
	v.scratch = make([]value.Row, 1)
	if v.cols == nil || !v.inBatches() || v.nbatch != 2 || bound(v) == nil {
		t.Fatalf("Vectorize on: columnar source %v, %d of %d stages in batches", v.cols != nil, v.nbatch, len(v.stages))
	}
}

// boundLeaf is a leaf outside the core algebra, like the distributed
// runtime's shard and exchange endpoints: whatever rows a run binds it to
// through Options.Sources.
type boundLeaf struct{ cols algebra.Schema }

func (l *boundLeaf) Schema() algebra.Schema   { return l.cols }
func (l *boundLeaf) Children() []algebra.Node { return nil }
func (l *boundLeaf) Describe() string         { return "bound" }

// TestOnlyStoredTablesAreColumnar pins the leaf rule: under Vectorize a Scan
// of a stored table is a columnar source — its batches are built once and
// cached — while rows handed to the run, a Values literal or a leaf bound
// through Options.Sources, stay a row source, so no run columnarizes them.
// Both kinds of leaf return the same rows.
func TestOnlyStoredTablesAreColumnar(t *testing.T) {
	values := keyedValuesPlan("t", 3*MorselSize+5, 7)
	store, scan := keyedStore(t, "t", len(values.Rows), 7)
	bound := &boundLeaf{cols: values.Cols}
	opts := &Options{Vectorize: true, Sources: func(leaf algebra.Node) ([]value.Row, bool) {
		return values.Rows, leaf == bound
	}}
	want := run(t, scan, store, &Options{}).Rows
	for _, tc := range []struct {
		name     string
		leaf     algebra.Node
		columnar bool
	}{
		{"stored table", scan, true},
		{"Values literal", values, false},
		{"bound through Sources", bound, false},
	} {
		c := &compiler{store: store, opts: opts, par: 1, clock: obs.Wall}
		out, err := lower(c, vecFilter(tc.leaf))
		must(t, err)
		if got := out.pipe.cols != nil; got != tc.columnar || out.pipe.inBatches() != tc.columnar {
			t.Fatalf("%s: columnar source %v, in batches %v: want %v", tc.name, got, out.pipe.inBatches(), tc.columnar)
		}
		if !tc.columnar {
			if _, ok := out.pipe.src.(*leafRows); !ok {
				t.Fatalf("%s: the source is a %T, want the leaf's rows", tc.name, out.pipe.src)
			}
		}
		if got := run(t, vecFilter(tc.leaf), store, opts).Rows; !sameRows(got, want) {
			t.Fatalf("%s: %d rows differ from the stored table's %d", tc.name, len(got), len(want))
		}
	}
}

// TestVectorBatchCountersRecorded: a vectorized run records per-operator
// batch counts in the metrics (the row engine's morsel slot), while row
// counts stay row-granular and identical to the row engine's.
func TestVectorBatchCountersRecorded(t *testing.T) {
	const n = 3*1024 + 17
	store, scan := keyedStore(t, "t", n, 8)
	plan := vecFilter(scan)
	col := obs.NewCollector()
	res, err := Run(plan, store, &Options{Vectorize: true, Metrics: col})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != n {
		t.Fatalf("got %d rows, want %d", len(res.Rows), n)
	}
	m := col.Lookup(plan)
	if m == nil {
		t.Fatal("no metrics recorded for the filter node")
	}
	wantBatches := int64(4) // ceil(n / 1024)
	if got := m.Batches.Load(); got != wantBatches {
		t.Fatalf("filter Batches = %d, want %d", got, wantBatches)
	}
	if got := m.RowsOut.Load(); got != int64(n) {
		t.Fatalf("filter RowsOut = %d, want %d", got, n)
	}
}

// TestVectorGroupMatchesRowGroup: vectorized aggregation (serial and
// parallel, op=vec-hash) returns the row engine's exact rows in its exact
// order, on a
// plan whose aggregate arguments exercise both the bare-column fast path
// (SUM(v)) and the expression fallback (SUM(v+k) has no single column).
func TestVectorGroupMatchesRowGroup(t *testing.T) {
	store, scan := keyedStore(t, "t", 10_000, 97)
	plan := &algebra.GroupBy{
		Input:     scan,
		GroupCols: []expr.ColumnID{{Table: "t", Name: "k"}},
		Aggs: []algebra.AggItem{
			{
				E:  &expr.Aggregate{Func: expr.AggSum, Arg: expr.Column("t", "v")},
				As: expr.ColumnID{Name: "s"},
			},
			{
				E: &expr.Aggregate{Func: expr.AggSum, Arg: expr.NewBinary(
					expr.OpAdd, expr.Column("t", "v"), expr.Column("t", "k"))},
				As: expr.ColumnID{Name: "sk"},
			},
			{
				E:  &expr.Aggregate{Func: expr.AggCountStar},
				As: expr.ColumnID{Name: "c"},
			},
		},
	}
	ref, err := Run(plan, store, &Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 4} {
		col := obs.NewCollector()
		res, err := Run(plan, store, &Options{Group: GroupHash, Vectorize: true, Parallelism: par, Metrics: col})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if op := col.Lookup(plan).Operator.Load(); op == nil || *op != "vec-hash" {
			t.Fatalf("par=%d: the group did not take batches (op=%v)", par, op)
		}
		if len(res.Rows) != len(ref.Rows) {
			t.Fatalf("par=%d: %d groups, want %d", par, len(res.Rows), len(ref.Rows))
		}
		for i := range ref.Rows {
			for j := range ref.Rows[i] {
				if sign, ok := value.Compare(ref.Rows[i][j], res.Rows[i][j]); !ok || sign != 0 {
					t.Fatalf("par=%d: row %d col %d = %v, want %v", par, i, j, res.Rows[i][j], ref.Rows[i][j])
				}
			}
		}
	}
}

// TestColumnKernelsMatchRowForm: the kernels of a column compared with a
// column (cmpColCol) and of a literal compared with a column (the comparison
// reoriented by swapCmp) select exactly the rows EvalTruth finds true, for
// every comparison operator — over typed INTEGER columns with NULLs and over
// columns mixing NULLs, ints, equal and unequal floats and strings, alone, as
// either side of a conjunction (a candidate list) and over a selection view.
func TestColumnKernelsMatchRowForm(t *testing.T) {
	cols := algebra.Schema{
		{ID: expr.ColumnID{Table: "t", Name: "a"}, Type: value.KindInt},
		{ID: expr.ColumnID{Table: "t", Name: "b"}, Type: value.KindInt},
	}
	pairs := func(vals ...value.Value) []value.Row {
		var rows []value.Row
		for _, a := range vals {
			for _, b := range vals {
				rows = append(rows, value.Row{a, b})
			}
		}
		return rows
	}
	datasets := map[string][]value.Row{
		"typed": pairs(value.Null, value.NewInt(1), value.NewInt(2), value.NewInt(3)),
		"mixed": pairs(value.Null, value.NewInt(1), value.NewInt(2), value.NewFloat(1), value.NewFloat(1.5),
			value.NewString("a"), value.NewString("b")),
	}
	lits := []*expr.Literal{expr.IntLit(1), expr.IntLit(2), expr.Lit(value.NewFloat(1.5)), expr.StrLit("a")}
	a, b := expr.Column("t", "a"), expr.Column("t", "b")
	for name, rows := range datasets {
		batch := vec.Columnarize(rows, 2, len(rows))[0]
		var even vec.Batch
		var sel []int32
		for i := 0; i < len(rows); i += 2 {
			sel = append(sel, int32(i))
		}
		batch.View(sel, &even)
		for _, op := range []expr.BinOp{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe} {
			var preds []expr.Expr
			for _, lit := range lits {
				colCol, litCol := expr.NewBinary(op, a, b), expr.NewBinary(op, lit, b)
				preds = append(preds, colCol, litCol, expr.And(litCol, colCol), expr.And(colCol, litCol))
			}
			for _, pred := range preds {
				cond, err := expr.Bind(pred, cols)
				must(t, err)
				kernel := compileVecPred(cond)
				if kernel == nil {
					t.Fatalf("%s: %s has no kernel", name, pred)
				}
				for _, view := range []struct {
					b    *vec.Batch
					step int
				}{{batch, 1}, {&even, 2}} {
					var want []int32
					for i := 0; i < len(rows); i += view.step {
						truth, err := expr.EvalTruth(cond, rows[i], nil)
						must(t, err)
						if truth == value.True {
							want = append(want, int32(i))
						}
					}
					if got := kernel(view.b, nil, nil); !slices.Equal(got, want) {
						t.Errorf("%s, every %d rows: %s selects rows %v, the row form %v", name, view.step, pred, got, want)
					}
				}
			}
		}
	}
}

// TestVectorConjunctionLeftEmpty: a conjunction whose left conjunct selects no
// row of a batch selects none, in the batch form as in the row form — also on
// a worker's first batch, before the kernel's candidate list was ever filled.
func TestVectorConjunctionLeftEmpty(t *testing.T) {
	store, scan := keyedStore(t, "t", 3*MorselSize, 10)
	plan := &algebra.Select{Input: scan, Cond: expr.And(
		expr.NewBinary(expr.OpGt, expr.Column("t", "k"), expr.IntLit(10)),
		expr.NewBinary(expr.OpGe, expr.Column("t", "v"), expr.IntLit(0)),
	)}
	for _, workers := range []int{1, 2} {
		for _, vectorize := range []bool{false, true} {
			res, err := Run(plan, store, &Options{Parallelism: workers, Vectorize: vectorize})
			must(t, err)
			if len(res.Rows) != 0 {
				t.Errorf("workers=%d, vectorize=%v: k > 10 AND v >= 0 over keys below 10 selects %d rows, want none",
					workers, vectorize, len(res.Rows))
			}
		}
	}
}
