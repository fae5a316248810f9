// Morsel-style intra-operator parallelism. The executor stays a pull-based
// Volcano engine at operator granularity; a worker count above one
// (Options.Parallelism) changes how the materializing operators do their
// work, not which operators exist. Filter, projection and nested-loop join
// become a morselMapOp (this file); the hash join builds its table
// partitioned and probes over morsels; hash aggregation builds one partial
// table per worker; sorts run chunked (sortRowsStable). One worker is serial
// execution.
//
// Determinism is a hard requirement — the serial-vs-parallel oracle tests
// assert row-identical results and identical per-operator cardinalities —
// so everything that runs on the worker pool follows the same discipline:
//
//   - Work is partitioned by fixed chunk boundaries that depend only on the
//     input size, never on worker scheduling. Workers pull chunk indices
//     from an atomic cursor, but each chunk's output is a pure function of
//     its row range.
//   - Per-chunk outputs are concatenated (or merged) in chunk-index order,
//     which reproduces the one-worker output order row for row.
//   - Aggregation keeps one thread-local partial-aggregate table per chunk
//     and absorbs them in chunk order through the accumulators' Merge step
//     (groupTable.absorb). Group output order (first appearance) and
//     accumulator fold order therefore do not depend on the worker count;
//     results are bit-identical whenever the aggregate arithmetic is exact
//     (integers, exactly representable floats).
//
// The hash join follows the partitioned build/probe scheme (joinTable): the
// build side is scattered into one hash partition per worker by join-key
// hash (a serial scatter, preserving build-input order within each
// partition), the partition tables are built by parallel workers, and probe
// workers then consume morsels of the probe side, each row probing the
// partition it hashes to.
package exec

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/value"
)

// MorselSize is the number of rows in one scheduling unit. Small enough to
// balance skewed predicates across workers, large enough to amortize the
// per-morsel bookkeeping.
const MorselSize = 1024

// effectiveParallelism resolves Options.Parallelism: 0 and 1 mean one
// worker (serial execution), negative means one worker per CPU, anything
// else is the worker count itself.
func (o *Options) effectiveParallelism() int {
	p := o.Parallelism
	if p < 0 {
		p = runtime.NumCPU()
	}
	if p < 1 {
		p = 1
	}
	return p
}

// numChunks is the number of size-row chunks covering [0, n).
func numChunks(n, size int) int {
	if n <= 0 {
		return 0
	}
	return (n + size - 1) / size
}

// forEachChunk partitions [0, n) into fixed size-row chunks and runs
// fn(worker, chunk, lo, hi) for each, fanning the chunks out to at most
// `workers` goroutines that pull chunk indices from a shared atomic cursor.
// Chunk boundaries depend only on n and size, so per-chunk results are
// deterministic regardless of which worker runs which chunk; the worker
// index (0 on the serial fallback path) exists purely for observability —
// per-worker morsel accounting — and must not influence results. The first
// error (by chunk index) cancels remaining chunks and is returned; a panic
// in fn terminates only its worker (the pool drains and joins normally) and
// surfaces as an *ExecPanicError carrying `where` and the worker id, after
// any deterministic chunk-indexed error. Every worker is joined before
// forEachChunk returns, error or not.
func forEachChunk(where string, workers, n, size int, fn func(worker, chunk, lo, hi int) error) error {
	chunks := numChunks(n, size)
	if chunks == 0 {
		return nil
	}
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		// Serial fallback: a panic here unwinds to Run's top-level recovery.
		for c := 0; c < chunks; c++ {
			lo := c * size
			hi := lo + size
			if hi > n {
				hi = n
			}
			if err := fn(0, c, lo, hi); err != nil {
				return err
			}
		}
		return nil
	}
	var cursor atomic.Int64
	var failed atomic.Bool
	errs := make([]error, chunks)
	panicErrs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		worker := w
		goSafe(&wg, where, worker, func(err error) {
			panicErrs[worker] = err
			failed.Store(true)
		}, func() {
			for {
				c := int(cursor.Add(1)) - 1
				if c >= chunks || failed.Load() {
					return
				}
				lo := c * size
				hi := lo + size
				if hi > n {
					hi = n
				}
				if err := fn(worker, c, lo, hi); err != nil {
					errs[c] = err
					failed.Store(true)
					return
				}
			}
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, err := range panicErrs {
		if err != nil {
			return err
		}
	}
	return nil
}

// chunkSizeFor splits n rows into one contiguous chunk per worker — the
// chunking used by thread-local partial aggregation, where the merge cost
// scales with the chunk count rather than the row count.
func chunkSizeFor(n, workers int) int {
	size := (n + workers - 1) / workers
	if size < 1 {
		size = 1
	}
	return size
}

// concatChunks flattens per-chunk outputs in chunk order.
func concatChunks(outs [][]value.Row) []value.Row {
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	if total == 0 {
		return nil
	}
	flat := make([]value.Row, 0, total)
	for _, o := range outs {
		flat = append(flat, o...)
	}
	return flat
}

// drainBoth drains two operators concurrently — inter-subtree parallelism
// for plans whose join inputs are themselves expensive. The per-node stats
// hooks must be (and are) safe for concurrent Close against a shared sink.
// Panics on either side become *ExecPanicError; the left side is recovered
// locally (not left to Run's top-level recovery) precisely so that wg.Wait
// always runs and the right-side goroutine is joined before return.
func drainBoth(where string, l, r Operator) (lrows, rrows []value.Row, err error) {
	var rerr error
	var wg sync.WaitGroup
	goSafe(&wg, where, -1, func(e error) { rerr = e }, func() {
		rrows, rerr = drain(r)
	})
	lrows, lerr := func() (rows []value.Row, err error) {
		defer func() {
			if rec := recover(); rec != nil {
				rows, err = nil, panicError(where, -1, rec)
			}
		}()
		return drain(l)
	}()
	wg.Wait()
	if lerr != nil {
		return nil, nil, lerr
	}
	if rerr != nil {
		return nil, nil, rerr
	}
	return lrows, rrows, nil
}

// bufOp is the streaming tail shared by the materializing operators: Open
// fills out, Next drains it.
type bufOp struct {
	out []value.Row
	pos int
}

func (b *bufOp) reset(rows []value.Row) { b.out, b.pos = rows, 0 }

func (b *bufOp) Next() (value.Row, bool, error) {
	if b.pos >= len(b.out) {
		return nil, false, nil
	}
	row := b.out[b.pos]
	b.pos++
	return row, true, nil
}

func (b *bufOp) Close() error { return nil }

// ------------------------------------------------------------ morsel map

// mapMorsels runs fn over every row of rows — MorselSize rows per scheduling
// unit, on up to par workers — and returns the outputs concatenated in morsel
// order, which is the order one serial pass would have produced. fn appends
// its row's outputs to out.
func mapMorsels(where string, par int, gov *governor, metrics *obs.OpMetrics, rows []value.Row,
	fn func(row value.Row, out []value.Row) ([]value.Row, error)) ([]value.Row, error) {
	outs := make([][]value.Row, numChunks(len(rows), MorselSize))
	err := forEachChunk(where, par, len(rows), MorselSize, func(w, c, lo, hi int) error {
		if err := gov.cancelled(); err != nil {
			return err
		}
		if metrics != nil {
			metrics.Morsel(w)
		}
		for _, row := range rows[lo:hi] {
			if err := gov.tick(); err != nil {
				return err
			}
			var err error
			if outs[c], err = fn(row, outs[c]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return concatChunks(outs), nil
}

// morselMapOp is the materializing row-at-a-time operator above one worker:
// filter, projection and nested-loop join are the three fn's the compiler
// gives it. It drains its input (both inputs, concurrently, for a join),
// maps morsels of the left input through fn — which also sees the drained
// right side — and buffers the result. DISTINCT deduplication stays a serial
// pass over the (cheap) already-mapped rows, keeping first occurrences in
// input order exactly as the serial projectOp does.
type morselMapOp struct {
	left, right Operator // right is nil for the unary operators
	par         int
	metrics     *obs.OpMetrics // nil unless metrics collection is on
	gov         *governor      // nil unless lifecycle governance is on
	where       string         // plan-node description, for panic/cancel reporting
	fn          func(row value.Row, side, out []value.Row) ([]value.Row, error)
	distinct    bool
	bufOp
}

func (m *morselMapOp) Open() error {
	var rows, side []value.Row
	var err error
	if m.right != nil {
		rows, side, err = drainBoth(m.where, m.left, m.right)
	} else {
		rows, err = drain(m.left)
	}
	if err != nil {
		return err
	}
	out, err := mapMorsels(m.where, m.par, m.gov, m.metrics, rows,
		func(row value.Row, out []value.Row) ([]value.Row, error) { return m.fn(row, side, out) })
	if err != nil {
		return err
	}
	if m.distinct {
		seen := make(map[string]bool, len(out))
		dedup := out[:0]
		for _, row := range out {
			if err := m.gov.tick(); err != nil {
				return err
			}
			key := value.GroupKeyAll(row)
			if !seen[key] {
				seen[key] = true
				dedup = append(dedup, row)
			}
		}
		out = dedup
	}
	m.reset(out)
	return nil
}

// partitionOf hashes a join key into one of n partitions (FNV-32a).
func partitionOf(key []byte, n int) int {
	h := uint32(2166136261)
	for _, b := range key {
		h = (h ^ uint32(b)) * 16777619
	}
	return int(h % uint32(n))
}

// --------------------------------------------------------- parallel sort

// sortRowsStable stable-sorts rows under cmp, in parallel when par > 1:
// fixed contiguous chunks are sorted concurrently (in place) and then
// merged pairwise, ties taking the left — lower-index — chunk's row first.
// The output permutation is exactly a serial stable sort's, so parallel and
// serial sorts are interchangeable everywhere, including beneath
// order-exploiting operators.
func sortRowsStable(where string, rows []value.Row, par int, cmp func(a, b value.Row) int) []value.Row {
	if par <= 1 || len(rows) < 2*MorselSize {
		slices.SortStableFunc(rows, cmp)
		return rows
	}
	size := chunkSizeFor(len(rows), par)
	chunks := numChunks(len(rows), size)
	runs := make([][]value.Row, chunks)
	// The chunk fns never return errors, so a non-nil result can only be a
	// contained worker panic; re-panic it (already typed) rather than drop
	// it — the operator or Run-level recovery reports it.
	if err := forEachChunk(where, par, len(rows), size, func(w, c, lo, hi int) error {
		runs[c] = rows[lo:hi]
		slices.SortStableFunc(runs[c], cmp)
		return nil
	}); err != nil {
		panic(err)
	}
	// Pairwise merge passes; adjacent runs merge in parallel.
	for len(runs) > 1 {
		merged := make([][]value.Row, (len(runs)+1)/2)
		if err := forEachChunk(where, par, len(merged), 1, func(w, c, lo, hi int) error {
			a := runs[2*c]
			if 2*c+1 >= len(runs) {
				merged[c] = a
				return nil
			}
			b := runs[2*c+1]
			out := make([]value.Row, 0, len(a)+len(b))
			i, k := 0, 0
			for i < len(a) && k < len(b) {
				// Stability: take from the left run unless the right
				// row is strictly smaller.
				if cmp(b[k], a[i]) < 0 {
					out = append(out, b[k])
					k++
				} else {
					out = append(out, a[i])
					i++
				}
			}
			out = append(out, a[i:]...)
			out = append(out, b[k:]...)
			merged[c] = out
			return nil
		}); err != nil {
			panic(err)
		}
		runs = merged
	}
	return runs[0]
}
