// The batch forms of the streaming stages. With Options.Vectorize a stored
// table's leaf is a source in columnar form (colSource, parallel.go) and the
// runner carries one vec.Batch per scheduling unit; the nodes below are the
// ones with a batch form — a stage that takes a batch and hands a batch on:
//
//   - Select: a compiled predicate kernel (or per-row EvalTruth over a scratch
//     row when the shape is not kernelizable) narrows the selection vector;
//     survivors are never copied.
//   - Project, bare columns and not DISTINCT: a zero-copy column permutation —
//     or, for a rename (the input's columns in order), the batch handed on.
//   - hash-join probe with an equi-key (vector_join.go): keys encoded
//     column-at-a-time, the shared joinTable looked up per row, the output
//     batch gathered by index.
//
// Hash grouping takes batches as a sink (vector_group.go), the collection
// materializes them; every other node — expression and DISTINCT projection,
// the probe of a join without an equi-key (every probe row matches the whole
// build side, so a batch would gather |batch| × |R| rows), sorts, LIMIT,
// grouping a key-ordered stream, every spill-capable breaker — has only its
// row form, and the runner unrolls the batch into one borrowed scratch row
// per logical row where the chain reaches it (pipeOp.unroll). Everything above the first breaker is the row
// engine: a breaker's output is rows.
//
// Determinism is the same hard requirement the row form meets: for any plan
// the columnar source form produces exactly the row form's rows in exactly
// its order, with identical per-node cardinalities, at every worker count
// (the differential oracles assert this). Grouping and join keys route
// through vec.KeyEncoder, which reproduces value.GroupKey's canonical bytes,
// so NULL collision rules and int/float key collapsing carry over unchanged.
//
// A batch stage's scratch — selection, output vectors, key encoder, scratch
// row — belongs to the worker running it: made once per worker and run, and
// valid until that worker's next batch. Governance and metrics are per batch
// while the chain is in batches: one tick per batch at the source and at
// every stage and metered node, one Morsel per batch a node handles, row
// counts advanced by the batch's logical length. State is admitted exactly as
// the row form admits it, through the same stores (store.go).
package exec

import (
	"repro/internal/expr"
	"repro/internal/value"
	"repro/internal/vec"
)

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
// OR, IS NULL and host-variable predicates). A kernel may hold scratch, so
// it serves one worker.
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
			// No candidate left is not a nil list, which r would read as all rows.
			if mid = l(b, in, mid[:0]); len(mid) == 0 {
				return out
			}
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

// filterBatches is Select's batch form: the predicate evaluated a batch at a
// time, the survivors handed on as a selection view over the input's vectors.
// Output order is input order.
func (c *compiler) filterBatches(cond expr.Expr) func(int, batchFn) batchFn {
	type state struct {
		pred    vecPred // nil: per-row EvalTruth over scratch
		sel     []int32
		out     vec.Batch
		scratch value.Row
	}
	params := c.opts.Params
	states := make([]state, c.par)
	for w := range states {
		// A conjunction's kernel holds scratch of its own: one per worker.
		states[w].pred = compileVecPred(cond)
	}
	return func(w int, next batchFn) batchFn {
		st := &states[w]
		return func(b *vec.Batch) error {
			st.sel = st.sel[:0]
			if st.pred != nil {
				st.sel = st.pred(b, nil, st.sel)
			} else {
				for i, n := 0, b.Len(); i < n; i++ {
					st.scratch = b.ReadRow(i, st.scratch)
					truth, err := expr.EvalTruth(cond, st.scratch, params)
					if err != nil {
						return err
					}
					if truth == value.True {
						st.sel = append(st.sel, int32(b.Index(i)))
					}
				}
			}
			if len(st.sel) == 0 {
				return nil
			}
			b.View(st.sel, &st.out)
			return next(&st.out)
		}
	}
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

// projectBatches is the batch form of the all-bare-columns, non-DISTINCT
// projection: a column permutation of the input batch, its selection carried
// over untouched.
func (c *compiler) projectBatches(cols []int) func(int, batchFn) batchFn {
	outs := make([]vec.Batch, c.par)
	return func(w int, next batchFn) batchFn {
		out := &outs[w]
		return func(b *vec.Batch) error {
			b.Project(cols, out)
			return next(out)
		}
	}
}
