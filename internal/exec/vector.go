// Vectorized execution. With Options.Vectorize set the compiler swaps the
// hot operators — scan, filter, bare-column projection, hash join, hash
// grouping — for batch-at-a-time implementations over vec.Batch columnar
// morsels. The row path stays fully intact behind the flag: every
// vectorized operator also implements the row Operator interface (a
// batch-to-row adapter), so mixed plans degrade gracefully — an operator
// with no vectorized implementation (sorts, DISTINCT projection, expression
// projection, merge and nested-loop joins) consumes its vectorized child
// through that adapter, and a vectorized operator above a row-only child
// pulls batches through a row-to-batch adapter.
//
// Determinism is the same hard requirement the morsel-parallel operators
// meet: for any plan, the vectorized path produces exactly the serial row
// path's rows in exactly its order, with identical per-node cardinalities
// (the three-way differential oracles assert this). Grouping and join keys
// route through vec.KeyEncoder, which reproduces value.GroupKey's canonical
// bytes, so NULL collision rules and int/float key collapsing carry over
// unchanged.
//
// Governance and metrics thread through at batch granularity: the governOp
// and metricOp wrappers forward NextBatch when their operator can produce
// batches (one cancellation/fault tick and one row-count update per batch
// instead of per row), and each vectorized operator records the batches it
// processes via OpMetrics.Morsel. Memory budgets are charged per vector
// allocation on the hash-join build side (the actual bytes the columnar
// build store grew by) and per group state, mirroring the row path's
// charge-on-admission discipline.
package exec

import (
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/vec"
)

// BatchOperator is a physical operator that can produce columnar batches.
// Every implementation also serves the row protocol (Operator), so any
// consumer can fall back to rows. A returned batch is valid only until the
// next NextBatch call unless the producer's stableBatches marker says
// otherwise.
type BatchOperator interface {
	Operator
	NextBatch() (*vec.Batch, bool, error)
}

// batchFeed is the consumer-side face of a batch producer: just the batch
// pull, satisfied by BatchOperators and by the row-to-batch adapter.
type batchFeed interface {
	NextBatch() (*vec.Batch, bool, error)
}

// batchSource returns op's batch face, or nil when op cannot produce
// batches. Wrappers (governOp, metricOp) implement NextBatch structurally
// but can only forward it when the operator inside them has a batch face;
// they report that through batchOK.
func batchSource(op Operator) BatchOperator {
	b, ok := op.(BatchOperator)
	if !ok {
		return nil
	}
	if c, ok := op.(interface{ batchOK() bool }); ok && !c.batchOK() {
		return nil
	}
	return b
}

// batchFeedFor adapts a compiled child into a batch feed: its own batch
// face when it has one, else a row-to-batch adapter of the given width.
func (c *compiler) batchFeedFor(op Operator, width int) batchFeed {
	if b := batchSource(op); b != nil {
		return b
	}
	return &rowBatcher{input: op, width: width}
}

// stableFeed reports whether src's batches remain valid after the next
// NextBatch call (scan and literal sources hand out cached batches;
// filters, projections and joins reuse their output buffers).
func stableFeed(src batchFeed) bool {
	s, ok := src.(interface{ stableBatches() bool })
	return ok && s.stableBatches()
}

// resetFeed rewinds adapter state (the row-to-batch adapter buffers rows
// and latches end-of-stream); operators call it from Open.
func resetFeed(src batchFeed) {
	if r, ok := src.(interface{ resetBatches() }); ok {
		r.resetBatches()
	}
}

// drainFeed materializes every non-empty batch of src, cloning when the
// producer reuses its buffers — the materialization step of the parallel
// vectorized operators, which need all batches resident before fanning
// chunks out to workers.
func drainFeed(src batchFeed) ([]*vec.Batch, error) {
	stable := stableFeed(src)
	var batches []*vec.Batch
	for {
		b, ok, err := src.NextBatch()
		if err != nil {
			return nil, err
		}
		if !ok {
			return batches, nil
		}
		if b.Len() == 0 {
			continue
		}
		if !stable {
			b = b.Clone()
		}
		batches = append(batches, b)
	}
}

// drainBatches pulls a batch operator to completion, materializing rows.
func drainBatches(b BatchOperator) ([]value.Row, error) {
	if err := b.Open(); err != nil {
		b.Close()
		return nil, err
	}
	var rows []value.Row
	for {
		batch, ok, err := b.NextBatch()
		if err != nil {
			b.Close()
			return nil, err
		}
		if !ok {
			break
		}
		rows = batch.AppendRows(rows)
	}
	if err := b.Close(); err != nil {
		return nil, err
	}
	return rows, nil
}

// rowAdapter serves a vectorized operator's row protocol: it walks the
// operator's own batches one logical row at a time, materializing each (the
// producer's buffers are only advanced after the previous batch is fully
// consumed, honoring the validity contract).
type rowAdapter struct {
	cur *vec.Batch
	pos int
}

func (a *rowAdapter) reset() { a.cur, a.pos = nil, 0 }

func (a *rowAdapter) next(src batchFeed) (value.Row, bool, error) {
	for {
		if a.cur != nil && a.pos < a.cur.Len() {
			row := a.cur.MaterializeRow(a.pos)
			a.pos++
			return row, true, nil
		}
		b, ok, err := src.NextBatch()
		if !ok || err != nil {
			return nil, false, err
		}
		a.cur, a.pos = b, 0
	}
}

// rowBatcher adapts a row-only child into a batch feed by buffering up to
// vec.BatchSize rows per batch. Its batches are freshly built each call and
// therefore stable.
type rowBatcher struct {
	input Operator
	width int
	buf   []value.Row
	done  bool
}

func (r *rowBatcher) resetBatches() { r.buf, r.done = r.buf[:0], false }

func (r *rowBatcher) stableBatches() bool { return true }

func (r *rowBatcher) NextBatch() (*vec.Batch, bool, error) {
	if r.done {
		return nil, false, nil
	}
	r.buf = r.buf[:0]
	for len(r.buf) < vec.BatchSize {
		row, ok, err := r.input.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			r.done = true
			break
		}
		r.buf = append(r.buf, row)
	}
	if len(r.buf) == 0 {
		return nil, false, nil
	}
	return vec.FromRows(r.buf, r.width), true, nil
}

// ------------------------------------------------------------------ scan

// vecScanOp iterates a stored table's cached columnar batches — zero
// conversion and zero allocation per batch after the table's first
// columnarization.
type vecScanOp struct {
	table   *storage.Table
	metrics *obs.OpMetrics

	batches []*vec.Batch
	idx     int
	rows    rowAdapter
}

func (s *vecScanOp) Open() error {
	s.batches = s.table.Columnar()
	s.idx = 0
	s.rows.reset()
	return nil
}

func (s *vecScanOp) NextBatch() (*vec.Batch, bool, error) {
	if s.idx >= len(s.batches) {
		return nil, false, nil
	}
	b := s.batches[s.idx]
	s.idx++
	if s.metrics != nil {
		s.metrics.Morsel(0)
	}
	return b, true, nil
}

func (s *vecScanOp) Next() (value.Row, bool, error) { return s.rows.next(s) }

func (s *vecScanOp) Close() error { return nil }

// stableBatches: the cached table batches are shared and read-only.
func (s *vecScanOp) stableBatches() bool { return true }

// ---------------------------------------------------------------- values

// vecValuesOp iterates literal rows (Values nodes and the leaves a run binds
// through Options.Sources) as columnar batches, columnarized once at first
// Open.
type vecValuesOp struct {
	rows    []value.Row
	width   int
	metrics *obs.OpMetrics

	batches []*vec.Batch
	built   bool
	idx     int
	radapt  rowAdapter
}

func (v *vecValuesOp) Open() error {
	if !v.built {
		v.batches = vec.Columnarize(v.rows, v.width, vec.BatchSize)
		v.built = true
	}
	v.idx = 0
	v.radapt.reset()
	return nil
}

func (v *vecValuesOp) NextBatch() (*vec.Batch, bool, error) {
	if v.idx >= len(v.batches) {
		return nil, false, nil
	}
	b := v.batches[v.idx]
	v.idx++
	if v.metrics != nil {
		v.metrics.Morsel(0)
	}
	return b, true, nil
}

func (v *vecValuesOp) Next() (value.Row, bool, error) { return v.radapt.next(v) }

func (v *vecValuesOp) Close() error { return nil }

func (v *vecValuesOp) stableBatches() bool { return true }

// ---------------------------------------------------------------- filter

// vecPred is a compiled predicate kernel: it appends the physical indices
// of the qualifying candidate rows to out and returns it. in lists the
// candidate physical indices; nil means all logical rows of the batch.
type vecPred func(b *vec.Batch, in, out []int32) []int32

// opTruth applies a comparison operator to a Compare sign.
func opTruth(op expr.BinOp, sign int) bool {
	switch op {
	case expr.OpEq:
		return sign == 0
	case expr.OpNe:
		return sign != 0
	case expr.OpLt:
		return sign < 0
	case expr.OpLe:
		return sign <= 0
	case expr.OpGt:
		return sign > 0
	default: // OpGe
		return sign >= 0
	}
}

// swapCmp reorients a comparison when its operands are swapped
// (lit OP col ⇔ col swapCmp(OP) lit).
func swapCmp(op expr.BinOp) expr.BinOp {
	switch op {
	case expr.OpLt:
		return expr.OpGt
	case expr.OpLe:
		return expr.OpGe
	case expr.OpGt:
		return expr.OpLt
	case expr.OpGe:
		return expr.OpLe
	default: // Eq, Ne are symmetric
		return op
	}
}

// compileVecPred compiles a bound predicate into a kernel, or nil when the
// shape is not kernelizable (the filter then falls back to per-row
// EvalTruth over a scratch row, preserving exact semantics for arithmetic,
// OR, IS NULL and host-variable predicates).
//
// Kernels reproduce EvalTruth's three-valued comparison semantics exactly:
// value.Compare reports ok=false for NULL operands, cross-kind operands and
// NaN, which evaluates to unknown, and unknown disqualifies — so kernels
// emit an index only for ok && opTruth. A conjunction chains its operand
// kernels over narrowing candidate lists, which equals the three-valued AND
// for filtering (a row passes iff both conjuncts are true).
func compileVecPred(e expr.Expr) vecPred {
	n, ok := e.(*expr.Binary)
	if !ok {
		return nil
	}
	if n.Op == expr.OpAnd {
		l := compileVecPred(n.L)
		r := compileVecPred(n.R)
		if l == nil || r == nil {
			return nil
		}
		var mid []int32
		return func(b *vec.Batch, in, out []int32) []int32 {
			mid = l(b, in, mid[:0])
			return r(b, mid, out)
		}
	}
	if !n.Op.IsComparison() {
		return nil
	}
	lc, lIsCol := n.L.(*expr.ColumnRef)
	rc, rIsCol := n.R.(*expr.ColumnRef)
	ll, lIsLit := n.L.(*expr.Literal)
	rl, rIsLit := n.R.(*expr.Literal)
	switch {
	case lIsCol && rIsLit && lc.Index >= 0:
		return cmpColLit(lc.Index, n.Op, rl.Val)
	case lIsLit && rIsCol && rc.Index >= 0:
		return cmpColLit(rc.Index, swapCmp(n.Op), ll.Val)
	case lIsCol && rIsCol && lc.Index >= 0 && rc.Index >= 0:
		return cmpColCol(lc.Index, rc.Index, n.Op)
	}
	return nil
}

// cmpColLit kernels a column-versus-literal comparison, with a typed loop
// for the dense all-valid INTEGER case and value.Compare everywhere else.
func cmpColLit(col int, op expr.BinOp, lit value.Value) vecPred {
	return func(b *vec.Batch, in, out []int32) []int32 {
		v := b.Cols[col]
		if in == nil {
			if b.Sel == nil && !v.Mixed() && v.Kind() == value.KindInt &&
				!v.HasNulls() && lit.Kind() == value.KindInt {
				li := lit.Int()
				for i, n := 0, v.Len(); i < n; i++ {
					e := v.Int(i)
					sign := 0
					switch {
					case e < li:
						sign = -1
					case e > li:
						sign = 1
					}
					if opTruth(op, sign) {
						out = append(out, int32(i))
					}
				}
				return out
			}
			for i, n := 0, b.Len(); i < n; i++ {
				phys := b.Index(i)
				if sign, ok := value.Compare(v.Value(phys), lit); ok && opTruth(op, sign) {
					out = append(out, int32(phys))
				}
			}
			return out
		}
		for _, p := range in {
			if sign, ok := value.Compare(v.Value(int(p)), lit); ok && opTruth(op, sign) {
				out = append(out, p)
			}
		}
		return out
	}
}

// cmpColCol kernels a column-versus-column comparison.
func cmpColCol(lcol, rcol int, op expr.BinOp) vecPred {
	return func(b *vec.Batch, in, out []int32) []int32 {
		lv, rv := b.Cols[lcol], b.Cols[rcol]
		if in == nil {
			for i, n := 0, b.Len(); i < n; i++ {
				phys := b.Index(i)
				if sign, ok := value.Compare(lv.Value(phys), rv.Value(phys)); ok && opTruth(op, sign) {
					out = append(out, int32(phys))
				}
			}
			return out
		}
		for _, p := range in {
			if sign, ok := value.Compare(lv.Value(int(p)), rv.Value(int(p))); ok && opTruth(op, sign) {
				out = append(out, p)
			}
		}
		return out
	}
}

// vecFilterOp evaluates the predicate a batch at a time, emitting selection
// views over its input's vectors — survivors are never copied. It streams
// (no materialization) at any parallelism level; output order is input
// order, exactly like the row filter at any worker count.
type vecFilterOp struct {
	input   Operator
	src     batchFeed
	cond    expr.Expr
	pred    vecPred // nil: fall back to per-row EvalTruth
	params  expr.Params
	metrics *obs.OpMetrics

	out     vec.Batch
	sel     []int32
	scratch value.Row
	rows    rowAdapter
}

func (f *vecFilterOp) Open() error {
	f.rows.reset()
	resetFeed(f.src)
	return f.input.Open()
}

func (f *vecFilterOp) NextBatch() (*vec.Batch, bool, error) {
	for {
		b, ok, err := f.src.NextBatch()
		if !ok || err != nil {
			return nil, false, err
		}
		if f.metrics != nil {
			f.metrics.Morsel(0)
		}
		f.sel = f.sel[:0]
		if f.pred != nil {
			f.sel = f.pred(b, nil, f.sel)
		} else {
			for i, n := 0, b.Len(); i < n; i++ {
				f.scratch = b.ReadRow(i, f.scratch)
				truth, err := expr.EvalTruth(f.cond, f.scratch, f.params)
				if err != nil {
					return nil, false, err
				}
				if truth == value.True {
					f.sel = append(f.sel, int32(b.Index(i)))
				}
			}
		}
		if len(f.sel) == 0 {
			continue
		}
		b.View(f.sel, &f.out)
		return &f.out, true, nil
	}
}

func (f *vecFilterOp) Next() (value.Row, bool, error) { return f.rows.next(f) }

func (f *vecFilterOp) Close() error { return f.input.Close() }

// --------------------------------------------------------------- project

// vecProjectOp handles the all-bare-columns, non-DISTINCT projection as a
// zero-copy column permutation (selection vectors carry over untouched).
// Any other projection shape keeps the row operators.
type vecProjectOp struct {
	input   Operator
	src     batchFeed
	cols    []int
	metrics *obs.OpMetrics

	out  vec.Batch
	rows rowAdapter
}

// bareColumns extracts the source column of every item if all items are
// bound bare column references.
func bareColumns(items []expr.Expr) ([]int, bool) {
	cols := make([]int, len(items))
	for i, item := range items {
		cr, ok := item.(*expr.ColumnRef)
		if !ok || cr.Index < 0 {
			return nil, false
		}
		cols[i] = cr.Index
	}
	return cols, true
}

func (p *vecProjectOp) Open() error {
	p.rows.reset()
	resetFeed(p.src)
	return p.input.Open()
}

func (p *vecProjectOp) NextBatch() (*vec.Batch, bool, error) {
	b, ok, err := p.src.NextBatch()
	if !ok || err != nil {
		return nil, false, err
	}
	if p.metrics != nil {
		p.metrics.Morsel(0)
	}
	b.Project(p.cols, &p.out)
	return &p.out, true, nil
}

func (p *vecProjectOp) Next() (value.Row, bool, error) { return p.rows.next(p) }

func (p *vecProjectOp) Close() error { return p.input.Close() }
