package exec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/paged"
	"repro/internal/value"
	"repro/internal/workload"
)

// TestForEachChunkCoverage: every index in [0, n) is visited exactly once,
// for worker counts and sizes spanning the serial path, single-chunk
// inputs, exact multiples and ragged tails.
func TestForEachChunkCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 8} {
		for _, n := range []int{0, 1, 7, 1023, 1024, 1025, 5000} {
			for _, size := range []int{1, 3, 1024} {
				var mu sync.Mutex
				visited := make([]int, n)
				err := forEachChunk("test", workers, n, size, func(worker, chunk, lo, hi int) error {
					if lo < 0 || hi > n || lo > hi {
						return fmt.Errorf("chunk %d has bad range [%d, %d)", chunk, lo, hi)
					}
					if worker < 0 || worker >= workers {
						return fmt.Errorf("chunk %d ran on out-of-range worker %d", chunk, worker)
					}
					mu.Lock()
					for i := lo; i < hi; i++ {
						visited[i]++
					}
					mu.Unlock()
					return nil
				})
				if err != nil {
					t.Fatalf("workers=%d n=%d size=%d: %v", workers, n, size, err)
				}
				for i, c := range visited {
					if c != 1 {
						t.Fatalf("workers=%d n=%d size=%d: index %d visited %d times", workers, n, size, i, c)
					}
				}
			}
		}
	}
}

// TestForEachChunkFirstError: when several chunks fail, the error of the
// LOWEST chunk index is reported — matching what a serial left-to-right
// pass would have hit first, which keeps error behavior deterministic.
func TestForEachChunkFirstError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := forEachChunk("test", workers, 10_000, 100, func(worker, chunk, lo, hi int) error {
			if chunk >= 3 {
				return fmt.Errorf("chunk %d failed", chunk)
			}
			return nil
		})
		if err == nil || err.Error() != "chunk 3 failed" {
			t.Fatalf("workers=%d: got %v, want the chunk-3 error", workers, err)
		}
	}
	if err := forEachChunk("test", 4, 0, 100, func(int, int, int, int) error {
		return errors.New("must not be called")
	}); err != nil {
		t.Fatalf("empty input: %v", err)
	}
}

// TestChunkSizeFor: one contiguous chunk per worker, covering everything.
func TestChunkSizeFor(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		for _, n := range []int{0, 1, 10, 999} {
			size := chunkSizeFor(n, workers)
			if n == 0 {
				continue
			}
			if size < 1 {
				t.Fatalf("n=%d workers=%d: size %d", n, workers, size)
			}
			if chunks := numChunks(n, size); chunks > workers {
				t.Fatalf("n=%d workers=%d: %d chunks exceed worker count", n, workers, chunks)
			}
		}
	}
}

// TestSortRowsStableMatchesSerial: the sort kernel — serial and parallel
// merge — must reproduce sort.SliceStable's permutation exactly, ties included. Keys are drawn
// from a tiny domain so duplicate keys — where stability matters — are
// everywhere, and the input is large enough to take the parallel path.
func TestSortRowsStableMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 3 * MorselSize
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(r.Intn(5))), value.NewInt(int64(i))}
	}
	less := func(a, b value.Row) bool { return a[0].Int() < b[0].Int() }

	want := make([]value.Row, n)
	copy(want, rows)
	sort.SliceStable(want, func(i, j int) bool { return less(want[i], want[j]) })

	for _, par := range []int{1, 2, 3, 4, 8} {
		in := make([]value.Row, n)
		copy(in, rows)
		got := sortRowsStable("test", in, par, func(a, b value.Row) int { return value.OrderKey(a[0], b[0]) })
		for i := range got {
			if got[i][0].Int() != want[i][0].Int() || got[i][1].Int() != want[i][1].Int() {
				t.Fatalf("par=%d: position %d is (%d,%d), want (%d,%d)",
					par, i, got[i][0].Int(), got[i][1].Int(), want[i][0].Int(), want[i][1].Int())
			}
		}
	}
}

// BenchmarkSortRowsStable is the sort layer on its own: 48 000 rows with
// 1 000 distinct keys (six-way ties, so stability is exercised), on an int
// key and on a string-then-int key, at one worker and at two.
func BenchmarkSortRowsStable(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	rows := make([]value.Row, 48000)
	for i := range rows {
		k := int64(r.Intn(1000))
		rows[i] = value.Row{value.NewInt(k), value.NewString(fmt.Sprintf("dim%05d", k/8)), value.NewInt(int64(i))}
	}
	for _, key := range []struct {
		name string
		cols []int
	}{{"int", []int{0}}, {"string+int", []int{1, 0}}} {
		cmp := func(a, b value.Row) int { return compareAt(a, key.cols, b, key.cols) }
		for _, par := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/par%d", key.name, par), func(b *testing.B) {
				b.ReportAllocs()
				in := make([]value.Row, len(rows))
				for i := 0; i < b.N; i++ {
					copy(in, rows)
					sortRowsStable("bench", in, par, cmp)
				}
			})
		}
	}
}

// TestJoinPartitionRange: a join key's partition is the range of its
// paged.Hash — in [0, n) from the smallest hash to the largest — and a built
// table holds each key in that partition and in no other, at 1, 2, 3 and 8
// workers: over 1 000 keys, and over 2, which leave partitions empty. The keys
// are INTEGERs 1 000 apart, which the dense layout rejects; the same keys 1
// apart build a dense table at every worker count, with no partitions and one
// slot per key.
func TestJoinPartitionRange(t *testing.T) {
	for n := 1; n <= 8; n++ {
		if lo, hi := hashRange(0, n), hashRange(math.MaxUint32, n); lo != 0 || hi != n-1 {
			t.Fatalf("n=%d: hashes 0 and 2³²-1 fall in partitions %d and %d, want 0 and %d", n, lo, hi, n-1)
		}
	}
	for _, keys := range []int{1000, 2} {
		rows := strided(keyedValuesPlan("t", 3*keys, keys).Rows, 1000)
		for _, workers := range []int{1, 2, 3, 8} {
			tab := &joinTable{cols: []int{0}}
			must(t, tab.build(rows, workers))
			for _, row := range rows[:keys] {
				key := appendKey(nil, row, []int{0})
				hash := paged.Hash(key)
				for p := range tab.parts {
					id := tab.parts[p].index.Lookup(hash, key)
					if own := hashRange(hash, workers); (id >= 0) != (p == own) {
						t.Fatalf("workers=%d: key %v found as %d in partition %d, its own is %d", workers, row[0], id, p, own)
					}
				}
			}
			held := 0
			for _, part := range tab.parts {
				held += part.index.Len()
			}
			if held != keys {
				t.Fatalf("workers=%d: the partitions hold %d keys, want %d", workers, held, keys)
			}
		}
	}
	for _, keys := range []int{1000, 2} {
		rows := keyedValuesPlan("t", 3*keys, keys).Rows
		for _, workers := range []int{1, 2, 3, 8} {
			tab := &joinTable{cols: []int{0}}
			must(t, tab.build(rows, workers))
			if !tab.dense || tab.parts != nil || len(tab.slots) != keys {
				t.Fatalf("dense keys=%d workers=%d: dense=%v, %d partitions, %d slots", keys, workers, tab.dense, len(tab.parts), len(tab.slots))
			}
			for k := range keys {
				if ch := tab.denseChain(int64(k)); ch.n != 3 {
					t.Fatalf("dense keys=%d workers=%d: key %d has a chain of %d, want 3", keys, workers, k, ch.n)
				}
			}
		}
	}
}

// TestEffectiveParallelism: the Options field resolves as documented.
func TestEffectiveParallelism(t *testing.T) {
	cases := []struct{ in, min int }{{0, 1}, {1, 1}, {4, 4}, {-1, 1}}
	for _, c := range cases {
		o := &Options{Parallelism: c.in}
		got := o.effectiveParallelism()
		if c.in > 1 && got != c.in {
			t.Errorf("Parallelism=%d resolved to %d", c.in, got)
		}
		if got < c.min {
			t.Errorf("Parallelism=%d resolved to %d, want >= %d", c.in, got, c.min)
		}
	}
}

// TestBorrowedRowsNeverEscape: a join stage emits each joined row in a scratch
// row the next emit overwrites, so every sink that keeps rows must copy them.
// Each retaining sink is put above a probe that spans several morsels; the run
// at one worker must return the rows of the reference evaluator, which shares
// no code with it, and the run at four, and both in the columnar source form —
// where the probe gathers a batch and a sink without a batch form is handed
// the batch unrolled into one scratch row — the same rows in the same order. A
// missing copy shows as a chunk's rows all reading as the last row written.
// Run under the race detector (make race), a scratch row shared between
// workers shows there too.
func TestBorrowedRowsNeverEscape(t *testing.T) {
	col := func(table, name string) expr.ColumnID { return expr.ColumnID{Table: table, Name: name} }
	// 2500 probe rows over three morsels, two build rows per key.
	store, l := keyedStore(t, "l", 2*MorselSize+452, 50)
	probe := func() *algebra.Join {
		return &algebra.Join{
			L:    l,
			R:    keyedValuesPlan("r", 100, 50),
			Cond: expr.Eq(expr.Column("l", "k"), expr.Column("r", "k")),
		}
	}
	// (r.v DESC, l.v) is a total order of the probe's rows: columns 3 and 1.
	sorted := &algebra.Sort{
		Input: probe(), Keys: []algebra.SortItem{{Col: col("r", "v"), Desc: true}, {Col: col("l", "v")}},
	}
	const top = 37
	plans := []struct {
		sink string
		plan algebra.Node
	}{
		{"root", probe()},
		{"root, keyless join", thetaJoin(probe())},
		{"root, through a filter", &algebra.Select{
			Input: probe(), Cond: &expr.Binary{Op: expr.OpLt, L: expr.Column("r", "v"), R: expr.IntLit(70)},
		}},
		{"sort", sorted},
		{"TopK", &algebra.Limit{N: top, Input: sorted}},
		{"DISTINCT", &algebra.Project{Distinct: true, Input: probe(), Items: []algebra.ProjItem{
			{E: expr.Column("r", "v"), As: col("", "rv")}, {E: expr.Column("l", "k"), As: col("", "k")},
		}}},
		{"build side of an upper hash join", &algebra.Join{
			L: keyedValuesPlan("u", 60, 50), R: probe(),
			Cond: expr.Eq(expr.Column("u", "k"), expr.Column("l", "k")),
		}},
		{"right side of an upper keyless join", thetaJoin(&algebra.Join{
			L: keyedValuesPlan("u", 6, 50), R: probe(),
			Cond: expr.Eq(expr.Column("u", "k"), expr.Column("l", "k")),
		})},
	}
	same := func(t *testing.T, got, want []value.Row) {
		t.Helper()
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("%d rows, want %d (and some)", len(got), len(want))
		}
		for i := range want {
			if g, w := value.GroupKeyAll(got[i]), value.GroupKeyAll(want[i]); g != w {
				t.Fatalf("row %d is %v, want %v", i, got[i], want[i])
			}
		}
	}
	for _, tc := range plans {
		t.Run(tc.sink, func(t *testing.T) {
			want, err := workload.RefEval(tc.plan, store, nil)
			must(t, err)
			one, err := Run(tc.plan, store, nil)
			must(t, err)
			if !sameMultiset(one.Rows, want) {
				t.Fatalf("%d rows at one worker differ from the reference evaluator's %d", len(one.Rows), len(want))
			}
			for _, opts := range []*Options{
				{Parallelism: 4},
				{Vectorize: true},
				{Vectorize: true, Parallelism: 4},
			} {
				got, err := Run(tc.plan, store, opts)
				must(t, err)
				t.Logf("vectorize=%v workers=%d", opts.Vectorize, opts.Parallelism)
				same(t, got.Rows, one.Rows)
			}
		})
	}
}

// TestLimitStopsTheSource: a bare LIMIT takes its input as one in-order chunk
// and ends the run at the row that fills it — at any worker count its rows are
// the first n of the unlimited run, and the source has handed up less than one
// morsel beyond them, not all it holds. In the columnar source form that is the
// batches holding the first n rows, each unrolled into a scratch row the limit
// must copy.
func TestLimitStopsTheSource(t *testing.T) {
	const rows, n = 48000, 10
	store, src := keyedStore(t, "t", rows, 50)
	for _, tc := range []struct {
		name string
		plan func(src algebra.Node) algebra.Node
	}{
		{"filter → project", func(src algebra.Node) algebra.Node {
			return &algebra.Project{
				Input: &algebra.Select{
					Input: src, Cond: expr.NewBinary(expr.OpGe, expr.Column("t", "k"), expr.IntLit(25)),
				},
				Items: []algebra.ProjItem{
					{E: expr.Column("t", "v"), As: expr.ColumnID{Name: "v"}},
					{E: expr.Column("t", "k"), As: expr.ColumnID{Name: "k"}},
				},
			}
		}},
		{"hash-join probe", func(src algebra.Node) algebra.Node {
			return &algebra.Join{
				L: src, R: keyedValuesPlan("r", 100, 50),
				Cond: expr.Eq(expr.Column("t", "k"), expr.Column("r", "k")),
			}
		}},
	} {
		for _, run := range []struct {
			workers   int
			vectorize bool
		}{{1, false}, {2, false}, {4, false}, {1, true}, {4, true}} {
			workers, vectorize := run.workers, run.vectorize
			name := fmt.Sprintf("%s/workers=%d", tc.name, workers)
			if vectorize {
				name += ", vectorized"
			}
			t.Run(name, func(t *testing.T) {
				plan := tc.plan(src)
				full, err := Run(plan, store, &Options{Parallelism: workers})
				must(t, err)
				col := obs.NewCollector()
				got, err := Run(&algebra.Limit{Input: plan, N: n}, store, &Options{Parallelism: workers, Vectorize: vectorize, Metrics: col})
				must(t, err)
				if len(got.Rows) != n {
					t.Fatalf("%d rows, want %d", len(got.Rows), n)
				}
				for i, row := range got.Rows {
					if g, w := value.GroupKeyAll(row), value.GroupKeyAll(full.Rows[i]); g != w {
						t.Fatalf("row %d is %v, want %v", i, row, full.Rows[i])
					}
				}
				read := col.Lookup(src).RowsOut.Load()
				t.Logf("the source handed up %d rows", read)
				if read >= n+MorselSize {
					t.Errorf("the source handed up %d of its %d rows for LIMIT %d", read, rows, n)
				}
			})
		}
	}
}
