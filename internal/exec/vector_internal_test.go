package exec

import (
	"context"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/value"
)

// These tests pin the vectorized path's per-batch cost the same way the
// metrics and governance tests pin the row path's per-row cost: once the
// operators are warm, pulling a batch through scan → filter — with
// instrumentation and governance wrappers active — allocates nothing. The
// kernels reuse their selection and output buffers, the wrappers are one
// atomic add (metrics) and one stride-amortized context poll (governance)
// per batch, and selection views alias the input's vectors.

// vecFilterPlan builds Select(v >= 0) over an n-row Values input — a
// predicate the compiler kernels (int column vs int literal) and that every
// row passes, so each NextBatch emits one full batch.
func vecFilterPlan(n int) *algebra.Select {
	return &algebra.Select{
		Input: valuesPlan(n),
		Cond:  expr.NewBinary(expr.OpGe, expr.Column("t", "v"), expr.IntLit(0)),
	}
}

// TestVectorPathZeroAllocs: the batch analogue of TestRowPathZeroAllocs and
// TestGovernedRowPathZeroAllocs. Pulling a warm batch allocates nothing on
// the uninstrumented path, the fully instrumented path, and the governed
// path.
func TestVectorPathZeroAllocs(t *testing.T) {
	const runs = 100
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cases := []struct {
		name string
		opts *Options
	}{
		{"disabled", &Options{Vectorize: true}},
		{"metrics+trace", &Options{
			Vectorize: true,
			Metrics:   obs.NewCollector(),
			Trace:     obs.NewTracer(obs.NewFakeClock(time.Unix(0, 0), time.Millisecond)),
			Clock:     obs.NewFakeClock(time.Unix(0, 0), time.Millisecond),
		}},
		{"governed", &Options{
			Vectorize:    true,
			Context:      ctx,
			MemoryBudget: 1 << 30,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &compiler{opts: tc.opts, par: 1, clock: tc.opts.Clock}
			if c.clock == nil {
				c.clock = obs.Wall
			}
			c.gov = newGovernor(tc.opts)
			// More batches than AllocsPerRun will pull, so every measured
			// NextBatch returns a live batch.
			out, err := c.compile(vecFilterPlan((runs + 10) * 1024))
			if err != nil {
				t.Fatal(err)
			}
			b := batchSource(out.op)
			if b == nil {
				t.Fatalf("compiled %T has no batch face with Vectorize on", out.op)
			}
			if err := out.op.Open(); err != nil {
				t.Fatal(err)
			}
			defer out.op.Close()
			avg := testing.AllocsPerRun(runs, func() {
				if _, ok, err := b.NextBatch(); !ok || err != nil {
					t.Fatalf("NextBatch: ok=%v err=%v", ok, err)
				}
			})
			if avg != 0 {
				t.Errorf("%s vector path allocates %.2f times per batch, want 0", tc.name, avg)
			}
		})
	}
}

// TestVectorizeDisabledInsertsNoBatchOperators: with Vectorize off the
// compiler emits the historical row operators, and the root has no batch
// face — the row path is untouched by the columnar engine's existence.
func TestVectorizeDisabledInsertsNoBatchOperators(t *testing.T) {
	c := &compiler{opts: &Options{}, par: 1, clock: obs.Wall}
	out, err := c.compile(vecFilterPlan(8))
	if err != nil {
		t.Fatal(err)
	}
	if b := batchSource(out.op); b != nil {
		t.Fatalf("compile produced a batch face %T with Vectorize off", b)
	}
}

// TestVectorBatchCountersRecorded: a vectorized run records per-operator
// batch counts in the metrics (the row engine's morsel slot), while row
// counts stay row-granular and identical to the row engine's.
func TestVectorBatchCountersRecorded(t *testing.T) {
	const n = 3*1024 + 17
	plan := vecFilterPlan(n)
	col := obs.NewCollector()
	res, err := Run(plan, nil, &Options{Vectorize: true, Metrics: col})
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
// parallel) returns the row engine's exact rows in its exact order, on a
// plan whose aggregate arguments exercise both the bare-column fast path
// (SUM(v)) and the expression fallback (SUM(v+k) has no single column).
func TestVectorGroupMatchesRowGroup(t *testing.T) {
	plan := &algebra.GroupBy{
		Input:     keyedValuesPlan("t", 10_000, 97),
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
	ref, err := Run(plan, nil, &Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 4} {
		res, err := Run(plan, nil, &Options{Vectorize: true, Parallelism: par})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
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
