package exec

import (
	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// splitJoinCondition partitions the conjuncts of cond into equi-join keys
// (Type 2 atoms with one side in each input), as the key's column in the left
// and in the right input schema, and a residual predicate evaluated against
// the concatenated row.
func splitJoinCondition(cond expr.Expr, left, right algebra.Schema) (lcols, rcols []int, residual expr.Expr) {
	var rest []expr.Expr
	for _, conj := range expr.Conjuncts(cond) {
		atom := expr.ClassifyAtom(conj)
		if atom.Class == expr.AtomColCol {
			li, lerr := left.IndexOf(atom.Col)
			ri, rerr := right.IndexOf(atom.Col2)
			if lerr != nil || rerr != nil {
				// Try the swapped orientation.
				li, lerr = left.IndexOf(atom.Col2)
				ri, rerr = right.IndexOf(atom.Col)
			}
			if lerr == nil && rerr == nil {
				lcols, rcols = append(lcols, li), append(rcols, ri)
				continue
			}
		}
		rest = append(rest, conj)
	}
	return lcols, rcols, expr.And(rest...)
}

// join shapes a join: its condition split into the equi-key and the residual,
// bound once. A Product is the join of its inputs with no condition; either
// way s's node is the one metrics are registered under, and must match the
// node its instrumentation (and the cost model's estimates) are keyed by.
func (sh shaper) join(s *nodeShape, node *algebra.Join) error {
	left, err := sh.shape(node.L)
	if err != nil {
		return err
	}
	right, err := sh.shape(node.R)
	if err != nil {
		return err
	}
	lSchema, rSchema := node.L.Schema(), node.R.Schema()
	lcols, rcols, residual := splitJoinCondition(node.Cond, lSchema, rSchema)
	boundResidual, err := expr.Bind(residual, node.Schema())
	if err != nil {
		return err
	}
	width := len(lSchema) + len(rSchema)
	s.named()
	// The join is a stage of the left input's pipeline: probe order follows
	// the left input, and left columns keep their positions in the
	// concatenated schema — at any worker count and on either side of the
	// spill decision. A join without an equi-key is the hash join over the
	// empty key: every build row shares the one chain, in build order, and
	// the residual is the whole condition — left order, each row's matches
	// in right order.
	s.order = left.order
	s.bind = func(c *compiler) (*pipeOp, error) {
		metrics := c.nodeMetrics(s.node)
		p, err := c.input(left, s)
		if err != nil {
			return nil, err
		}
		r, err := c.compile(right)
		if err != nil {
			return nil, err
		}
		op := &hashJoinOp{
			right: r, lcols: lcols, rcols: rcols, width: width,
			residual: boundResidual, params: c.opts.Params, par: c.stateWorkers(),
			metrics: metrics, gov: c.gov, mgr: c.spill, where: s.name(),
		}
		// The probe is in the form the pipeline is in, but in rows on a
		// spill-capable run, where a build the budget refuses cuts the pipeline
		// at the stage and the join goes grace, and for a keyless join, where a
		// batch would gather |batch| × |R| joined rows at once.
		st := stage{metrics: metrics, join: op}
		if p.inBatches() && c.spill == nil && len(lcols) > 0 {
			op.probes = make([]probeState, c.par)
			st.batch = op.probeBatches
		} else {
			st.bind = func(emit emitFn) emitFn { return op.probeInto(make(value.Row, op.width), emit) }
		}
		p.add(st, true)
		return p, nil
	}
	return nil
}

// hashJoinOp is the hash join: it builds a joinTable on the right input and
// probes it with left rows in left order, each row's matches in build order.
// build and the probe are a stage of the left input's pipeline — the table
// built partitioned above one worker; probeInto writes each joined row into
// the chunk's scratch row and hands it straight to the stage above,
// probeBatches (vector_join.go) gathers a batch's joined rows into the
// worker's output vectors. On a spill-capable run the build admits by refusal,
// and a refused build cuts the pipeline at the stage: the join goes grace
// (grace.go), which takes the whole left side as one in-order chunk and
// returns the joined rows as the source of the stages above. The rows and
// their order are the same in all forms.
type hashJoinOp struct {
	right        *pipeOp
	lcols, rcols []int // key columns in the left/right rows; none: the empty key
	width        int   // columns of a joined row
	residual     expr.Expr
	params       expr.Params
	par          int
	metrics      *obs.OpMetrics        // nil unless metrics collection is on
	gov          *governor             // nil unless lifecycle governance is on
	mgr          *storage.SpillManager // nil: a budget breach aborts
	where        string                // plan-node description for errors

	table  *joinTable
	probes []probeState // batch form only: one per worker
	files  []*spillFile // grace partition files, swept before graceJoin returns
}

// build drains the right input into the join table, on j.par workers. A build
// the budget refuses leaves the drained rows in the table for the grace path.
func (j *hashJoinOp) build() error {
	rrows, err := j.right.collect()
	if err != nil {
		return err
	}
	j.table = &joinTable{cols: j.rcols, adm: admissionFor(j.gov, j.mgr, j.where), metrics: j.metrics}
	return j.table.build(rrows, j.par)
}

// probeInto is the probe: the joined rows of one left row that pass the
// residual, in build order, each written into joined — the caller's scratch
// row, overwritten by the next — and handed to emit.
func (j *hashJoinOp) probeInto(joined value.Row, emit emitFn) emitFn {
	var key [64]byte
	return func(row value.Row) error {
		if err := j.gov.tick(); err != nil {
			return err
		}
		if anyNullAt(row, j.lcols) {
			return nil
		}
		matches := j.table.lookup(appendKey(key[:0], row, j.lcols))
		if matches.n == 0 {
			return nil
		}
		if j.metrics != nil {
			j.metrics.ProbeHits.Add(int64(matches.n))
		}
		n := copy(joined, row)
		for m := matches.head; m >= 0; m = j.table.next[m] {
			// A skewed key's chain — the whole build side under the empty
			// key — can dominate the run, so it ticks itself.
			if err := j.gov.tick(); err != nil {
				return err
			}
			copy(joined[n:], j.table.rows[m])
			truth, err := expr.EvalTruth(j.residual, joined, j.params)
			if err != nil {
				return err
			}
			if truth == value.True {
				if err := emit(joined); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

func anyNullAt(row value.Row, cols []int) bool {
	for _, c := range cols {
		if row[c].IsNull() {
			return true
		}
	}
	return false
}

func compareAt(a value.Row, aCols []int, b value.Row, bCols []int) int {
	for i := range aCols {
		if c := value.OrderKey(a[aCols[i]], b[bCols[i]]); c != 0 {
			return c
		}
	}
	return 0
}
