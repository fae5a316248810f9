// The row engine: morsel-driven pipelines at every worker count. Every plan
// node lowers to a pipeline (pipeOp, this file). A leaf or a breaker is a
// pipeline's source; the streaming nodes above it — filter, projection, a
// join's probe of its left side — are its stages. Chunks of the source are
// carried through the whole chain, and the breaker above is its
// sink: one partial group table per chunk for hash grouping, a morsel-ordered
// collection for everything else that must hold rows (the result, an in-memory
// sort's input, a join's build side), or — for a
// consumer that is serial by nature: LIMIT, TopK, grouping a key-ordered
// stream, a spill-capable sort, a refused join's grace path — the whole source
// as one chunk in order (pipeOp.each). Nothing between two breakers is
// materialized. The worker count (Options.Parallelism) decides only how many
// goroutines carry the chunks — one worker runs them in a loop, on the
// caller's goroutine — and how many chunks hash grouping asks for. Sorts run
// chunked (sortRowsStable).
//
// A batch is a chunk. With Options.Vectorize a stored table's leaf is a
// source in columnar form (colSource) and the scheduling unit is one
// vec.Batch instead of a run of rows: the stages that have a batch form
// (vector.go: kernelized filter, bare-column projection, the gathering probe)
// hand the batch on, the sinks that take batches (partial group tables, the
// collection) consume it, and where the chain meets a stage or a sink that
// has only a row form the batch is unrolled into one scratch row per logical
// row (pipeOp.unroll). It is the same runner, the same chunk boundaries — a
// function of the source's batch count — and the same sinks. Rows handed to
// the run (a Values literal, a leaf bound through Options.Sources) stay a
// row source.
//
// Borrowed rows. A join stage writes each joined row into a scratch row it
// owns and emits that, so does a projection that is not a rename, and an
// unrolled batch is read into one; the row is valid until the next emit. A
// sink that keeps rows copies them once — the collection into its worker's
// slab, so a kept row is not a heap object of its own; the group sink keeps
// only a new group's grouping values, so N joined rows cost G states.
//
// Determinism is a hard requirement — the serial-vs-parallel oracle tests
// assert row-identical results and identical per-operator cardinalities —
// so everything that runs on the worker pool follows the same discipline:
//
//   - Work is partitioned by fixed chunk boundaries that depend only on the
//     length of the pipeline's source, never on worker scheduling. Workers
//     pull chunk indices from an atomic cursor, but each chunk's output is a
//     pure function of its row range.
//   - Collected outputs are concatenated in chunk-index order, which is the
//     order one pass over the source produces.
//   - Aggregation keeps one partial-aggregate table per chunk — one contiguous
//     chunk per worker — and combines them in chunk order: a group stays in
//     the earliest table holding it, which takes later chunks' states through
//     the accumulators' Merge step (groupCore.combine). Group output order
//     (first appearance) and accumulator fold order therefore do not depend
//     on the worker count; results are bit-identical whenever the aggregate
//     arithmetic is exact (integers, exactly representable floats).
//
// The hash join follows the partitioned build/probe scheme (joinTable): the
// build side is collected and its row indexes scattered into one partition
// per worker by the range of the join key's hash (a serial scatter,
// preserving build-input order within each partition), the partition indexes
// are built by parallel workers, and the probe stage of every chunk then
// looks each row up in the partition its key hashes to.
package exec

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/vec"
)

// MorselSize is the number of rows in one scheduling unit. Small enough to
// balance skewed predicates across workers, large enough to amortize the
// per-morsel bookkeeping.
const MorselSize = 1024

// effectiveParallelism resolves Options.Parallelism: 0 and 1 mean one
// worker, negative means one worker per CPU, anything else is the worker
// count itself.
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
// index (0 when one worker runs the loop) exists purely for observability —
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
		// One worker is the caller: no goroutine, and a panic here unwinds to
		// Run's top-level recovery.
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

// ForEach runs fn(worker, i) for every i in [0, n) on the executor's worker
// pool — forEachChunk with one index per chunk, so everything said there
// holds: at most `workers` goroutines, one worker is the caller's own
// goroutine, the first error by index wins, a panic surfaces as an
// *ExecPanicError naming `where`, and every worker is joined before ForEach
// returns. It is the pool the distributed runtime runs a fragment's sites on.
func ForEach(where string, workers, n int, fn func(worker, i int) error) error {
	return forEachChunk(where, workers, n, 1, func(w, i, _, _ int) error { return fn(w, i) })
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

// concatChunks flattens per-chunk outputs in chunk order; a single chunk's
// output is handed over as it is.
func concatChunks(outs [][]value.Row) []value.Row {
	if len(outs) == 1 {
		return outs[0]
	}
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

// -------------------------------------------------------------- pipelines

// emitFn receives one row from the stage below. The row is borrowed: it may
// be a scratch row its producer overwrites on the next call, so a receiver
// that keeps the row copies it if so — the collection into its slab, any
// other through pipeOp.keep.
type emitFn func(row value.Row) error

// batchFn receives one batch from the stage below. The batch, its vectors and
// its selection are borrowed until the next call.
type batchFn func(b *vec.Batch) error

// stage is one streaming plan node inside a pipeline: a filter, a projection,
// a join's probe of its left side — or, with neither bind nor
// batch, a node that only passes on what it is handed (a Sort the propagated
// order made unnecessary).
type stage struct {
	// passes: the stage hands on every row it is given, as it is given — a
	// rename (passStage), or a node with no work of its own. A collection
	// whose stages all pass is its source's rows (collect).
	passes  bool
	metrics *obs.OpMetrics // the node's; one Morsel per chunk, or per batch, it handles
	// join is set on a join's probe stage, whose build runs once, before the
	// first chunk: it materializes the side its rows are matched against. On
	// a spill-capable run a build the budget refuses (errRefused) cuts the
	// pipeline here: the join's grace path takes the pipeline below it as one
	// in-order chunk and returns the joined rows as a source: the external
	// sorter's result, as a sort's (pipeOp.cut).
	join *hashJoinOp
	// bind returns the stage's row function for one chunk, handing what it
	// produces to emit. Per-chunk state (scratch rows, key buffers) lives in
	// the closure, so chunks share nothing.
	bind func(emit emitFn) emitFn
	// batch is the stage's batch form, given instead of bind to a pipeline
	// that is still in batches: the function the worker runs a chunk's
	// batches through, handing what it produces to next. Its scratch —
	// selection, output vectors, key encoder — is the worker's, so it is
	// made once per worker and run, not once per batch. The runner ticks
	// and counts the Morsel before each batch (perBatch).
	batch func(worker int, next batchFn) batchFn
	// metered: the node's output is ticked and counted here, per chunk; out
	// is the node's instrumentation (nil when only the governor is on).
	metered bool
	out     *metricOp
}

// sink is the breaker a pipeline ends in.
type sink interface {
	// begin is told the source's length — n units of which morsel make one
	// scheduling unit: MorselSize rows, one batch — and answers with the
	// units per chunk, having made room for that many chunks' results.
	begin(n, morsel int) int
	// bind returns the receiver of one chunk's rows; the worker carrying the
	// chunk is for morsel accounting only.
	bind(worker, chunk int) (emitFn, error)
}

// batchSink is a sink that also takes a chunk as batches, when the pipeline
// is in batches all the way up.
type batchSink interface {
	bindBatch(worker, chunk int) (batchFn, error)
}

// breaker is a pipeline's source in row form: a node that holds state — a
// grouping (a GroupBy's or DISTINCT's), a sort, LIMIT, TopK — or a leaf's rows
// (leafRows). open runs the node's input pipelines into its store and returns
// its output: rows the run owns; from a sort or a grouping that went to disk,
// the merge of its runs, which the runner pulls into an in-order sink or
// drains for any other, and closes; or from a hash grouping, its groups' rows,
// which the runner has finished on demand as it carries them. Every other
// spill file a breaker made is swept before open returns.
type breaker interface {
	open() (opened, error)
}

// opened is a pipeline's source, open: one of rows the run owns, a merge, rows
// made on demand, or a columnar leaf's batches.
type opened struct {
	rows    []value.Row
	merge   *mergeIter
	made    *groupRows
	batches []*vec.Batch
}

// colSource is a pipeline's source in columnar form, the form a stored
// table's leaf takes under Options.Vectorize: the table's cached batches.
type colSource struct {
	table   *storage.Table
	metrics *obs.OpMetrics // the leaf's; one Morsel per batch handed out
}

// pipeOp is the engine's one runner: a source, a chain of stages and — per
// run — a sink. Chunks of the source are carried through the whole chain, row
// by row or batch by batch, into the sink's per-chunk receiver, so nothing
// between two breakers is ever held as a slice. Chunk boundaries depend on
// the source's length only, and every sink keeps its per-chunk results in
// chunk order: rows, row order, group order and per-node counts are the same
// at any worker count and in either source form.
//
// Every plan node lowers to a pipeline: a leaf or a breaker starts one
// (compiler.source), and a streaming node adds its stage to its input's
// (compiler.input). A breaker above runs it into its own sink (hash
// grouping: one partial table per chunk), collects its rows in morsel order
// (collect), or takes them as one chunk in order (each). A pipeline is never
// pulled.
type pipeOp struct {
	src        breaker    // the node below the first stage, opened by run
	cols       *colSource // or the leaf below it in columnar form; src is nil
	srcOut     *metricOp  // the source node's instrumentation (nil when only the governor is on)
	srcMetered bool       // meter has placed srcOut
	stages     []stage
	// nbatch counts the stages in batch form — the first ones: the chain is
	// in batches up to stages[nbatch] and in rows from there.
	nbatch   int
	borrowed bool // the last stage emits scratch rows: a sink that keeps rows copies them
	metered  bool // some stage is
	par      int
	gov      *governor
	node     *nodeShape  // the topmost node using the pipeline, named when a worker panics
	scratch  []value.Row // per worker: the row a batch is unrolled into
	leaf     leafRows    // a row-form leaf's rows, which src points at: a leaf is no allocation of its own
}

// source starts the pipeline of node s, whose rows are a breaker's output: no
// stages yet, b as its source.
func (c *compiler) source(b breaker, s *nodeShape) *pipeOp {
	return &pipeOp{src: b, par: c.par, gov: c.gov, node: s}
}

// rows starts the pipeline of node s, a leaf whose rows are rows.
func (c *compiler) rows(rows []value.Row, s *nodeShape) *pipeOp {
	p := c.source(nil, s)
	p.leaf = rows
	p.src = &p.leaf
	return p
}

// inBatches reports whether what the pipeline's topmost stage hands on is
// still a batch — what a node asks before it adds its batch form, and a run
// before it binds a sink's.
func (p *pipeOp) inBatches() bool { return p.cols != nil && p.nbatch == len(p.stages) }

// add appends a node's stage. borrowed says whether the stage emits scratch
// rows; a stage that passes its input rows on (a filter) hands p.borrowed back.
func (p *pipeOp) add(st stage, borrowed bool) {
	if st.bind == nil && p.inBatches() {
		p.nbatch++
	}
	p.stages = append(p.stages, st)
	p.borrowed = borrowed
}

// meter makes the topmost node's output ticked and counted inside the
// pipeline — the node the compiler just lowered onto it, or, when that node
// added no stage of its own, a stage that only passes on what it is handed. A
// source node — a leaf, a breaker — is the runner's: its loop over the source
// is the node's tick and its count.
func (p *pipeOp) meter(out *metricOp) {
	if len(p.stages) == 0 && !p.srcMetered {
		p.srcMetered, p.srcOut = true, out
		return
	}
	if len(p.stages) == 0 || p.stages[len(p.stages)-1].metered {
		p.add(stage{passes: true}, p.borrowed)
	}
	last := &p.stages[len(p.stages)-1]
	last.metered, last.out = true, out
	p.metered = true
}

// eachOut calls fn on the metricOp of every instrumented node, topmost first.
func (p *pipeOp) eachOut(fn func(*metricOp)) {
	for i := len(p.stages) - 1; i >= 0; i-- {
		if out := p.stages[i].out; out != nil {
			fn(out)
		}
	}
	if p.srcOut != nil {
		fn(p.srcOut)
	}
}

// keep returns row as a receiver may hold it: a copy when the pipeline emits
// scratch rows, made on its own — for a consumer that keeps a bounded subset
// of its input (LIMIT, TopK, a spill path), where a slab page would be kept
// alive by the few rows cut from it.
func (p *pipeOp) keep(row value.Row) value.Row {
	if p.borrowed {
		return slices.Clone(row)
	}
	return row
}

// keepOver is keep for a row that replaces dropped, a row the receiver kept
// before and lets go of now: a copy is made over dropped.
func (p *pipeOp) keepOver(dropped, row value.Row) value.Row {
	if p.borrowed {
		return append(dropped[:0], row...)
	}
	return row
}

// run carries the source through the stages into s.
func (p *pipeOp) run(s sink) error {
	if err := p.gov.cancelled(); err != nil {
		return err
	}
	p.eachOut((*metricOp).begin)
	err := p.runChunks(s)
	p.eachOut((*metricOp).end)
	return err
}

// runChunks opens the source, starts the stages and drives the source through
// them into s. A stage whose start the budget refuses cuts the pipeline there
// (cut), and the stages above it start after the cut, over what it returns. A
// merge — the source's, or the cut's — is pulled into an in-order sink; any
// other sink cuts chunks, so it is drained first. One that is not read to its
// end is closed before runChunks returns.
func (p *pipeOp) runChunks(s sink) (err error) {
	var src opened
	if p.cols != nil {
		src.batches = p.cols.table.Columnar()
		p.scratch = make([]value.Row, p.par)
	} else if src, err = p.src.open(); err != nil {
		return err
	}
	defer func() {
		if cerr := src.merge.close(); err == nil {
			err = cerr
		}
	}()
	for i := 0; i < len(p.stages); i++ {
		j := p.stages[i].join
		if j == nil {
			continue
		}
		if err = j.build(); err == errRefused {
			// p is the stages above the cut from here, the first of them next.
			src, err = p.cut(i, src)
			i = -1
		}
		if err != nil {
			return err
		}
	}
	if _, ordered := s.(inOrder); !ordered && src.merge != nil {
		// Drained, polling the context per record.
		err = src.merge.each(func(sr spillRow) error {
			src.rows = append(src.rows, sr.row)
			return p.gov.cancelled()
		})
		if err != nil {
			return err
		}
		src.merge = nil
	}
	if h, ok := s.(*passOn); ok {
		h.rows = src.rows
		if src.made != nil {
			h.rows = src.made.slots()
		}
	}
	return p.drive(s, src)
}

// cut runs the source and the stages below stage i — whose start the budget
// refused: a spill-capable hash join — as one in-order chunk into the stage's
// grace path, and ends their instrumentation there; it closes the source's
// merge, if any, should the chunk not have read it to its end. p becomes the
// stages above, over the joined rows the grace path returns. It comes before
// any source row has moved, so nothing below is begun twice.
func (p *pipeOp) cut(i int, src opened) (opened, error) {
	below, st := *p, p.stages[i]
	below.stages = p.stages[:i]
	joined, err := st.join.graceJoin(func(fn emitFn) error { return below.drive(inOrder{fn}, src) })
	if cerr := src.merge.close(); err == nil {
		err = cerr
	}
	below.eachOut((*metricOp).end)
	p.stages, p.nbatch, p.cols = p.stages[i+1:], 0, nil
	p.srcOut, p.borrowed = st.out, p.borrowed && len(p.stages) > 0
	return joined, err
}

// drive carries an opened source through the stages into s: a merge pulled
// row by row into an in-order sink, rows or batches cut into s's chunks, and
// rows made on demand cut the same way, each made by the worker's cursor into
// its scratch row — or, for a collection that is its source's rows, into the
// row's own slot of the collection's slab.
func (p *pipeOp) drive(s sink, src opened) error {
	if src.merge != nil {
		emit, _, counts, err := p.bind(s, 0, 0)
		if err != nil {
			return err
		}
		read := 0
		for {
			// One tick per pull, the pull that finds the end included.
			if err = p.gov.tick(); err != nil {
				break
			}
			var sr spillRow
			var ok bool
			if sr, ok, err = src.merge.next(); !ok || err != nil {
				break
			}
			read++
			if err = emit(sr.row); err != nil {
				break
			}
		}
		p.count(read, counts)
		return err
	}
	// A collection that is its source's rows, with no tick and no count per
	// row, has nothing to do with a row but make it, if it is made on demand
	// — a chunk is its length — and nothing else for a second worker to do.
	_, idle := s.(*passOn)
	idle = idle && p.gov == nil && !p.metered
	workers := p.par
	if idle && src.made == nil {
		workers = 1
	}
	rows, batches, made := src.rows, src.batches, src.made
	n, morsel := len(rows), MorselSize
	switch {
	case p.cols != nil:
		n, morsel = len(batches), 1
	case made != nil:
		n = made.len()
		made.workers(workers)
	}
	size := s.begin(n, morsel)
	err := forEachChunk("", workers, n, size, func(w, c, lo, hi int) error {
		emit, carry, counts, err := p.bind(s, w, c)
		if err != nil {
			return err
		}
		// The source node's tick, one per unit it hands up: a batch, or a row.
		read := 0
		switch {
		case idle && made == nil:
			read = hi - lo
		case carry != nil:
			for _, b := range batches[lo:hi] {
				if err = p.gov.tick(); err != nil {
					break
				}
				if p.cols.metrics != nil {
					p.cols.metrics.Morsel(w)
				}
				read += b.Len()
				if err = carry(b); err != nil {
					break
				}
			}
		case made != nil:
			cur := made.at(w, lo)
			h, _ := s.(*passOn) // a collection: each row into its own slot of the slab
			for i := lo; i < hi; i++ {
				if err = p.gov.tick(); err != nil {
					break
				}
				row := cur.row
				if h != nil {
					row = h.rows[i]
				}
				if row, err = cur.next(row[:0]); err != nil {
					break
				}
				read++
				if !idle {
					if err = emit(row); err != nil {
						break
					}
				}
			}
		default:
			for _, row := range rows[lo:hi] {
				if err = p.gov.tick(); err != nil {
					break
				}
				read++
				if err = emit(row); err != nil {
					break
				}
			}
		}
		p.count(read, counts)
		return err
	})
	if pe, ok := err.(*ExecPanicError); ok && pe.Op == "" {
		pe.Op = p.node.name() // named only once a worker has panicked under it
	}
	return err
}

// bind composes one chunk's function, top to bottom: s's receiver for the
// chunk, the row stages over it, and — over a columnar source — the batch
// stages under those, with the batch unrolled into the worker's scratch row
// where the chain leaves batches. A columnar source is carried through carry,
// any other through emit; counts holds the rows out of each metered stage.
func (p *pipeOp) bind(s sink, w, c int) (emit emitFn, carry batchFn, counts []int64, err error) {
	if err := p.gov.cancelled(); err != nil {
		return nil, nil, nil, err
	}
	if bs, ok := s.(batchSink); ok && p.inBatches() {
		carry, err = bs.bindBatch(w, c)
	} else {
		emit, err = s.bind(w, c)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	if p.metered {
		counts = make([]int64, len(p.stages))
	}
	for i := len(p.stages) - 1; i >= p.nbatch; i-- {
		st := &p.stages[i]
		if st.metered {
			emit = p.meterFn(&counts[i], emit)
		}
		if st.bind != nil {
			emit = st.bind(emit)
			if st.metrics != nil {
				st.metrics.Morsel(w)
			}
		}
	}
	if p.cols == nil {
		return emit, nil, counts, nil
	}
	if carry == nil {
		carry = p.unroll(w, emit)
	}
	for i := p.nbatch - 1; i >= 0; i-- {
		st := &p.stages[i]
		if st.metered {
			carry = p.meterBatch(&counts[i], carry)
		}
		if st.batch != nil {
			carry = p.perBatch(st.metrics, w, st.batch(w, carry))
		}
	}
	return nil, carry, counts, nil
}

// perBatch is what every batch stage does before its own work: the stage's
// governor tick and its Morsel, once per batch.
func (p *pipeOp) perBatch(metrics *obs.OpMetrics, w int, stage batchFn) batchFn {
	return func(b *vec.Batch) error {
		if err := p.gov.tick(); err != nil {
			return err
		}
		if metrics != nil {
			metrics.Morsel(w)
		}
		return stage(b)
	}
}

// unroll is where a chain leaves batches: every logical row of a batch is
// read into the worker's scratch row and handed to emit — borrowed, like a
// join stage's joined row.
func (p *pipeOp) unroll(w int, emit emitFn) batchFn {
	scratch := &p.scratch[w]
	return func(b *vec.Batch) error {
		for i, n := 0, b.Len(); i < n; i++ {
			*scratch = b.ReadRow(i, *scratch)
			if err := emit(*scratch); err != nil {
				return err
			}
		}
		return nil
	}
}

// count adds a chunk's row counts to their nodes, once per chunk — also for a
// chunk that stopped early: read is the source rows it got to.
func (p *pipeOp) count(read int, counts []int64) {
	if p.srcOut != nil {
		p.srcOut.count.Add(int64(read))
	}
	for i, n := range counts {
		if out := p.stages[i].out; out != nil {
			out.count.Add(n)
		}
	}
}

// passStage is the stage of a node that hands on every row it is given, as it
// is given — every batch, in batch form: a projection that only renames. It
// makes nothing; it still ticks once per row (per batch, in perBatch) and
// counts a Morsel per chunk, as the projection it replaces did.
func (p *pipeOp) passStage(metrics *obs.OpMetrics) stage {
	st := stage{metrics: metrics, passes: true}
	if p.inBatches() {
		st.batch = func(_ int, next batchFn) batchFn { return next }
		return st
	}
	gov := p.gov
	st.bind = func(emit emitFn) emitFn {
		if gov == nil {
			return emit
		}
		return func(row value.Row) error {
			if err := gov.tick(); err != nil {
				return err
			}
			return emit(row)
		}
	}
	return st
}

// meterFn is a plan node's instrumentation as a stage: the governor tick and
// the row count per row, the count kept in the chunk's slot n and added to the
// node's counter once per chunk.
func (p *pipeOp) meterFn(n *int64, emit emitFn) emitFn {
	return func(row value.Row) error {
		if err := p.gov.tick(); err != nil {
			return err
		}
		*n++
		return emit(row)
	}
}

// meterBatch is meterFn for a node in batch form: one tick per batch, the
// batch's logical rows counted.
func (p *pipeOp) meterBatch(n *int64, next batchFn) batchFn {
	return func(b *vec.Batch) error {
		if err := p.gov.tick(); err != nil {
			return err
		}
		*n += int64(b.Len())
		return next(b)
	}
}

// collector is the sink that keeps rows: each chunk's output in its own
// slice, concatenated in chunk order — the order one pass over the source
// produces. A row it has to copy — a borrowed one, or a batch's — is cut from
// the slab of the worker carrying the chunk, not allocated on its own.
type collector struct {
	p     *pipeOp
	outs  [][]value.Row
	slabs []value.Slab // per worker
}

func (s *collector) begin(n, morsel int) int {
	s.outs = make([][]value.Row, numChunks(n, morsel))
	s.slabs = make([]value.Slab, s.p.par)
	return morsel
}

func (s *collector) bind(worker, chunk int) (emitFn, error) {
	out := &s.outs[chunk]
	if !s.p.borrowed {
		return func(row value.Row) error {
			*out = append(*out, row)
			return nil
		}, nil
	}
	slab := &s.slabs[worker]
	return func(row value.Row) error {
		*out = append(*out, slab.Copy(row))
		return nil
	}, nil
}

// bindBatch materializes a batch's logical rows, cut from the worker's slab.
func (s *collector) bindBatch(worker, chunk int) (batchFn, error) {
	out, slab := &s.outs[chunk], &s.slabs[worker]
	return func(b *vec.Batch) error {
		*out = b.AppendRows(*out, slab)
		return nil
	}, nil
}

// passOn is the sink of a collection that is its source's rows: it keeps
// nothing, and cuts the collector's chunks, so every stage ticks, counts and
// takes its morsels exactly as it would into a collector. The runner hands it
// the source's rows — for rows made on demand, one slab's worth of empty rows
// the runner makes them into.
type passOn struct{ rows []value.Row }

func (*passOn) begin(_, morsel int) int { return morsel }

func (*passOn) bind(_, _ int) (emitFn, error) {
	return func(value.Row) error { return nil }, nil
}

// collect runs the pipeline to completion and returns its rows in morsel
// order, in a slice the caller owns. Over a source in row form whose rows
// every stage passes on, the rows are the source's: the run ticks, counts and
// times them into passOn and hands them over — a breaker's own, a leaf's in a
// fresh header slice, a grouping's made straight into one slab — the one
// place a finished row reaches a result without another copy.
func (p *pipeOp) collect() ([]value.Row, error) {
	if p.src != nil && !slices.ContainsFunc(p.stages, func(st stage) bool { return !st.passes }) {
		h := &passOn{}
		if err := p.run(h); err != nil {
			return nil, err
		}
		if _, leaf := p.src.(*leafRows); leaf {
			return slices.Clone(h.rows), nil
		}
		return h.rows, nil
	}
	s := &collector{p: p}
	if err := p.run(s); err != nil {
		return nil, err
	}
	return concatChunks(s.outs), nil
}

// stream runs the pipeline to completion into c (Shape.Stream): above one worker
// cut into the collector's chunks, each chunk's rows handed to c's receiver
// for it; at one worker as c's one chunk, in order, a merge pulled row by row
// — unless a stage counts its morsels (metrics): then it is cut into the
// collector's chunks on the way, a merge drained first, so every node counts
// what it counts into Run's collection. Cutting without metrics too would
// bind the stages once per morsel: BenchmarkResultPath/wide/par1/stream went
// from 98 to 374 allocs/op and 199 to 217 KB/op at the same time (2-vCPU
// Xeon, Go 1.24), on the path every served SELECT takes.
func (p *pipeOp) stream(c Consumer) error {
	if p.par > 1 {
		return p.run(streamer{c})
	}
	c.Begin(1)
	if slices.ContainsFunc(p.stages, func(st stage) bool { return st.metrics != nil }) {
		return p.run(inMorsels{c.Chunk(0)})
	}
	return p.run(inOrder{c.Chunk(0)})
}

// streamer is the sink of a streamed run above one worker.
type streamer struct{ c Consumer }

func (s streamer) begin(n, morsel int) int {
	s.c.Begin(numChunks(n, morsel))
	return morsel
}

func (s streamer) bind(_, chunk int) (emitFn, error) { return s.c.Chunk(chunk), nil }

// inOrder is the sink of a consumer that is serial by nature: the whole source
// is one chunk, handed to fn row by row in order.
type inOrder struct{ fn emitFn }

func (s inOrder) begin(n, _ int) int { return n }

func (s inOrder) bind(_, _ int) (emitFn, error) { return s.fn, nil }

// inMorsels is inOrder with the source cut into the collector's chunks, all
// handed to fn in order on the caller's goroutine.
type inMorsels struct{ fn emitFn }

func (s inMorsels) begin(_, morsel int) int { return morsel }

func (s inMorsels) bind(_, _ int) (emitFn, error) { return s.fn, nil }

// errStop ends an in-order run early: its consumer has the rows it wants.
var errStop = errors.New("exec: in-order run stopped by its consumer")

// each hands fn the pipeline's rows as one chunk in order — borrowed, so fn
// keeps a row through keep. fn returning errStop ends the run at that row, at
// any worker count: nothing further is read from the source.
func (p *pipeOp) each(fn emitFn) error {
	if err := p.run(inOrder{fn}); err != errStop {
		return err
	}
	return nil
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
