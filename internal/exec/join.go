package exec

import (
	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// equiKey is one equality column pair extracted from a join condition.
type equiKey struct {
	left, right int // positions in the left/right input schemas
}

// splitJoinCondition partitions the conjuncts of cond into equi-join keys
// (Type 2 atoms with one side in each input) and a residual predicate
// evaluated against the concatenated row.
func splitJoinCondition(cond expr.Expr, left, right algebra.Schema) (keys []equiKey, residual expr.Expr) {
	var rest []expr.Expr
	for _, conj := range expr.Conjuncts(cond) {
		atom := expr.ClassifyAtom(conj)
		if atom.Class == expr.AtomColCol {
			li, lerr := left.IndexOf(atom.Col)
			ri, rerr := right.IndexOf(atom.Col2)
			if lerr == nil && rerr == nil {
				keys = append(keys, equiKey{left: li, right: ri})
				continue
			}
			// Try the swapped orientation.
			li, lerr = left.IndexOf(atom.Col2)
			ri, rerr = right.IndexOf(atom.Col)
			if lerr == nil && rerr == nil {
				keys = append(keys, equiKey{left: li, right: ri})
				continue
			}
		}
		rest = append(rest, conj)
	}
	return keys, expr.And(rest...)
}

// compileJoin lowers a join. key is the logical node metrics are registered
// under — the original plan node, which for a Product differs from the
// synthetic Join wrapper node, and must match the node its instrumentation
// (and the cost model's estimates) are keyed by.
func (c *compiler) compileJoin(node *algebra.Join, key algebra.Node) (compiled, error) {
	metrics := c.nodeMetrics(key)
	where := key.Describe()
	left, err := c.compile(node.L)
	if err != nil {
		return compiled{}, err
	}
	right, err := c.compile(node.R)
	if err != nil {
		return compiled{}, err
	}
	lSchema, rSchema := node.L.Schema(), node.R.Schema()
	keys, residual := splitJoinCondition(node.Cond, lSchema, rSchema)
	boundResidual, err := expr.Bind(residual, node.Schema())
	if err != nil {
		return compiled{}, err
	}

	strategy := c.opts.Join
	if strategy == JoinAuto {
		if len(keys) > 0 {
			strategy = JoinHash
		} else {
			strategy = JoinNestedLoop
		}
	}
	if len(keys) == 0 && strategy != JoinNestedLoop {
		// Hash and merge joins need an equi-key; fall back.
		strategy = JoinNestedLoop
	}

	switch strategy {
	case JoinHash:
		// Probe order follows the left input; left columns keep their
		// positions in the concatenated schema — at any worker count and on
		// either side of the spill decision.
		width := len(lSchema) + len(rSchema)
		op := &hashJoinOp{
			right: right.pipe, width: width,
			residual: boundResidual, params: c.opts.Params, par: c.stateWorkers(),
			metrics: metrics, gov: c.gov, mgr: c.spill, where: where,
		}
		op.lcols, op.rcols = keyColumns(keys)
		// The probe is a stage of the left input's pipeline, in the form the
		// pipeline is in — in rows on a spill-capable run, where a build the
		// budget refuses cuts the pipeline at the stage and the join goes grace.
		p := left.pipeline(key)
		st := stage{metrics: metrics, start: op.build}
		if p.inBatches() && c.spill == nil {
			op.probes = make([]probeState, c.par)
			st.batch = op.probeBatches
		} else {
			st.bind = func(emit emitFn) emitFn { return op.probeInto(make(value.Row, width), emit) }
		}
		if c.spill != nil {
			st.grace = op.graceJoin
		}
		p.add(st, true)
		return compiled{pipe: p, order: left.order}, nil
	case JoinSortMerge:
		// Exploit pre-sorted inputs (Section 7: eager aggregation's
		// sorted output feeds the join): when the left input already
		// streams in some permutation of the key columns, permute the
		// key list to match and skip that side's sort; likewise for
		// the right side against the (possibly permuted) keys.
		lCols, _ := keyColumns(keys)
		lSorted := false
		if orderedPrefixSet(left.order, lCols) {
			perm := make([]equiKey, 0, len(keys))
			for _, oc := range left.order[:len(keys)] {
				for _, k := range keys {
					if k.left == oc {
						perm = append(perm, k)
						break
					}
				}
			}
			if len(perm) == len(keys) {
				keys = perm
				lSorted = true
			}
		}
		outOrder, rCols := keyColumns(keys)
		rSorted := lSorted && hasSequencePrefix(right.order, rCols)
		op := &mergeJoinOp{
			left: left.pipe, right: right.pipe, keys: keys,
			lSorted: lSorted, rSorted: rSorted,
			residual: boundResidual, params: c.opts.Params, par: c.par,
			gov: c.gov, where: where,
		}
		return compiled{pipe: c.source(op, key), order: outOrder}, nil
	default:
		// Nested loop evaluates the full condition as a residual.
		full, err := expr.Bind(node.Cond, node.Schema())
		if err != nil {
			return compiled{}, err
		}
		// A stage of the left input's pipeline, each row scanning the whole
		// collected right side: left order, each row's matches in right order.
		p, gov, params := left.pipeline(key), c.gov, c.opts.Params
		width := len(lSchema) + len(rSchema)
		var rrows []value.Row
		p.add(stage{
			metrics: metrics,
			start:   func() (err error) { rrows, err = right.pipe.collect(); return err },
			bind: func(emit emitFn) emitFn {
				joined := make(value.Row, width)
				return func(lrow value.Row) error {
					if err := gov.tick(); err != nil {
						return err
					}
					n := copy(joined, lrow)
					// The inner scan can run long between emitted rows (a
					// selective condition over a large right side): it ticks itself.
					for _, rrow := range rrows {
						if err := gov.tick(); err != nil {
							return err
						}
						copy(joined[n:], rrow)
						truth, err := expr.EvalTruth(full, joined, params)
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
			},
		}, true)
		return compiled{pipe: p, order: left.order}, nil
	}
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
	lcols, rcols []int // key columns in the left/right rows
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
			// A skewed key's chain can dominate the run, so it ticks itself.
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

// mergeJoinOp sorts both inputs on the join keys and merges them, emitting
// the cross product of each matching key group. NULL keys are dropped for
// the same reason as in the hash join. lSorted/rSorted mark inputs already
// ordered on the keys, whose sort is skipped. With par > 1 the two inputs
// are drained concurrently and the key sorts run as parallel stable sorts.
type mergeJoinOp struct {
	left, right      *pipeOp
	keys             []equiKey
	lSorted, rSorted bool
	residual         expr.Expr
	params           expr.Params
	par              int
	gov              *governor
	where            string
}

func (j *mergeJoinOp) open() ([]value.Row, *mergeIter, error) {
	var lrows, rrows []value.Row
	var err error
	if j.par > 1 {
		lrows, rrows, err = drainBoth(j.where, j.left, j.right)
	} else if lrows, err = j.left.collect(); err == nil {
		rrows, err = j.right.collect()
	}
	if err != nil {
		return nil, nil, err
	}
	lCols, rCols := keyColumns(j.keys)
	if lrows, err = dropNullKeys(j.gov, lrows, lCols); err != nil {
		return nil, nil, err
	}
	if rrows, err = dropNullKeys(j.gov, rrows, rCols); err != nil {
		return nil, nil, err
	}
	if !j.lSorted {
		lrows = sortByCols(j.where, lrows, lCols, j.par)
	}
	if !j.rSorted {
		rrows = sortByCols(j.where, rrows, rCols, j.par)
	}

	var out []value.Row
	li, ri := 0, 0
	for li < len(lrows) && ri < len(rrows) {
		cmp := compareAt(lrows[li], lCols, rrows[ri], rCols)
		switch {
		case cmp < 0:
			li++
		case cmp > 0:
			ri++
		default:
			// Find the extent of the matching group on both sides.
			lEnd := li + 1
			for lEnd < len(lrows) && compareAt(lrows[lEnd], lCols, rrows[ri], rCols) == 0 {
				lEnd++
			}
			rEnd := ri + 1
			for rEnd < len(rrows) && compareAt(lrows[li], lCols, rrows[rEnd], rCols) == 0 {
				rEnd++
			}
			for a := li; a < lEnd; a++ {
				for b := ri; b < rEnd; b++ {
					// The per-key cross product materializes without pulls,
					// so it ticks itself (a skewed key can dominate the run).
					if err := j.gov.tick(); err != nil {
						return nil, nil, err
					}
					row := lrows[a].Concat(rrows[b])
					truth, err := expr.EvalTruth(j.residual, row, j.params)
					if err != nil {
						return nil, nil, err
					}
					if truth == value.True {
						out = append(out, row)
					}
				}
			}
			li, ri = lEnd, rEnd
		}
	}
	return out, nil, nil
}

// keyColumns splits equi-keys into the left and right column lists.
func keyColumns(keys []equiKey) (left, right []int) {
	left, right = make([]int, len(keys)), make([]int, len(keys))
	for i, k := range keys {
		left[i], right[i] = k.left, k.right
	}
	return left, right
}

func anyNullAt(row value.Row, cols []int) bool {
	for _, c := range cols {
		if row[c].IsNull() {
			return true
		}
	}
	return false
}

func dropNullKeys(gov *governor, rows []value.Row, cols []int) ([]value.Row, error) {
	out := rows[:0]
	for _, r := range rows {
		if err := gov.tick(); err != nil {
			return nil, err
		}
		if !anyNullAt(r, cols) {
			out = append(out, r)
		}
	}
	return out, nil
}

func sortByCols(where string, rows []value.Row, cols []int, par int) []value.Row {
	return sortRowsStable(where, rows, par, func(a, b value.Row) int {
		return compareAt(a, cols, b, cols)
	})
}

func compareAt(a value.Row, aCols []int, b value.Row, bCols []int) int {
	for i := range aCols {
		if c := value.OrderKey(a[aCols[i]], b[bCols[i]]); c != 0 {
			return c
		}
	}
	return 0
}
