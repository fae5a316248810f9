package exec

import (
	"fmt"

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
	index := right.joinIndex(rcols, len(rSchema))
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
		if index != nil {
			if op.stored, err = c.store.Table(right.table); err != nil {
				return nil, err
			}
			op.index, op.drain = index, c.opts.Metrics != nil || c.opts.Trace != nil
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

// indexShape is how a join whose build side is a stored table's rows as
// stored finds the table version's join index: the index's key among the
// version's derived values, its key columns in the table's rows, the build
// columns' positions in the table's rows (nil: column i is the table's i),
// and what each of its entries is charged beyond its key — a row of the
// build side's width, as the join's own build would charge.
type indexShape struct {
	key      joinIndexKey
	keys     []int
	cols     []int
	rowBytes int64
}

// joinIndex is the indexShape of a join whose build side is s, width columns
// wide, keyed on s's columns rcols: nil unless s is a stored table's rows
// (nodeShape.table).
func (s *nodeShape) joinIndex(rcols []int, width int) *indexShape {
	if s.table == "" {
		return nil
	}
	keys := make([]int, len(rcols))
	for k, c := range rcols {
		keys[k] = s.column(c)
	}
	return &indexShape{
		key:      joinIndexKey(fmt.Sprint(keys)),
		keys:     keys,
		cols:     s.cols,
		rowBytes: rowHeaderBytes + valueSlotBytes*int64(width),
	}
}

// hashJoinOp is the hash join: it probes a joinTable over the right input
// with left rows in left order, each row's matches in build order. The build
// and the probe are a stage of the left input's pipeline — the table built
// partitioned above one worker; probeInto writes each joined row into the
// chunk's scratch row and hands it straight to the stage above,
// probeBatches (vector_join.go) gathers a batch's joined rows into the
// worker's output vectors. When the right input is a stored table's rows as
// stored — a Scan, bare or under a projection of plain columns — the join
// probes the table version's join index through the projection's column map.
// The index is made once per version (newJoinIndex), by the first run whose
// budget admits it, and every run that probes it is charged what its own
// build would have admitted (indexed). Any other right input, and an indexed
// one whose charge the budget refuses, is collected and built into a table of
// the run's own. On a spill-capable run that build admits by refusal, and a
// refused build cuts the pipeline at the stage: the join goes grace
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

	// For a right input that is a stored table's rows: how to find the
	// table's join index, the version the run reads, and whether metrics or
	// a trace need the right input run anyway, for its nodes' counts.
	index  *indexShape
	stored *storage.Table
	drain  bool

	table  *joinTable
	rmap   []int        // by build column: its position in a row of table; nil: the same
	probes []probeState // batch form only: one per worker
	files  []*spillFile // grace partition files, swept before graceJoin returns
}

// build makes the join table: the stored table's index when the budget admits
// its charge, else a table of the run's own — the right input drained into it
// on j.par workers. A build the budget refuses leaves the drained rows in the
// table for the grace path.
func (j *hashJoinOp) build() error {
	if j.index != nil {
		if ok, err := j.indexed(); err != nil || ok {
			if err == nil && j.drain {
				err = j.right.run(drained{})
			}
			return err
		}
	}
	rrows, err := j.right.collect()
	if err != nil {
		return err
	}
	j.table = &joinTable{cols: j.rcols, adm: admissionFor(j.gov, j.mgr, j.where), metrics: j.metrics}
	return j.table.build(rrows, j.par)
}

// indexed binds the join to the stored table version's join index and
// charges the run the bytes its own build would have admitted: entry by
// entry when the run makes the index, in one tryCharge when it finds it
// made. It reports false when the budget refuses them — the index is then
// neither made nor kept by this run — and the run builds as any other join
// does, so it aborts or goes grace exactly where it would have. A cancel
// during the making is the run's error.
func (j *hashJoinOp) indexed() (bool, error) {
	made := false
	v, err := j.stored.Derived(j.index.key, func(tab *storage.Table) (any, error) {
		// Every row's charge, keys aside, is less than the making admits:
		// a budget that does not fit it would refuse the making part way,
		// so it is not begun.
		if !j.gov.fits(int64(tab.Len()) * j.index.rowBytes) {
			return nil, errRefused
		}
		t, err := newJoinIndex(tab, j.index.keys, j.index.rowBytes, j.gov)
		made = err == nil
		return t, err
	})
	if err == errRefused {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	t := v.(*joinTable)
	bytes := t.keyBytes.Load() + t.entries.Load()*j.index.rowBytes
	if !made && !j.gov.tryCharge(bytes) {
		return false, nil
	}
	j.table, j.rmap = t, j.index.cols
	if j.metrics != nil {
		j.metrics.BuildEntries.Add(t.entries.Load())
		j.metrics.StateBytes.Add(bytes)
	}
	return true, nil
}

// col is the position of build column c in a row of j.table.
func (j *hashJoinOp) col(c int) int {
	if j.rmap == nil {
		return c
	}
	return j.rmap[c]
}

// gather copies build row — a row of j.table — into out, the right half of a
// joined row, through rmap.
func (j *hashJoinOp) gather(out, row value.Row) {
	if j.rmap == nil {
		copy(out, row)
		return
	}
	for c := range out {
		out[c] = row[j.rmap[c]]
	}
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
		var matches joinChain
		if j.table.dense {
			matches = j.table.denseMatch(row[j.lcols[0]])
		} else {
			matches = j.table.lookup(appendKey(key[:0], row, j.lcols))
		}
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
			j.gather(joined[n:], j.table.rows[m])
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
