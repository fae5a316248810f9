package exec

import (
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/value"
	"repro/internal/vec"
)

// vecHashJoinOp is the vectorized hash join. The build (right) side is
// drained into a columnar build store (vec.Table) plus a hash index from
// canonical key bytes to build-row ordinals; the probe (left) side is
// consumed a batch at a time, keys encoded column-at-a-time, and output
// batches gathered by index — left columns from the probe batch, right
// columns from the build store. Rows with a NULL in any key column are
// dropped on both sides, exactly like the row hash join.
//
// Output order matches the row hashJoinOp row for row: probe rows in
// input order, each row's matches in build insertion order, residual
// filtering applied per concatenated row. With par > 1 the probe batches
// are materialized and fanned out to workers one batch per chunk, and the
// per-batch outputs stream in batch order — the same order again.
//
// The memory budget is charged per vector allocation: each admitted build
// row is charged the exact bytes the build store's vectors grew by, plus
// its key bytes (the row path charges an approximation of the same state).
type vecHashJoinOp struct {
	left, right    Operator
	lsrc, rsrc     batchFeed
	keys           []equiKey
	residual       expr.Expr
	params         expr.Params
	par            int
	metrics        *obs.OpMetrics
	gov            *governor
	where          string
	lwidth, rwidth int

	build *vec.Table
	table map[string][]int32
	lcols []int

	ps          probeState
	serialProbe bool
	outs        []*vec.Batch
	oidx        int
	rows        rowAdapter
}

// probeState is the per-consumer probe scratch: the key encoder, the
// gathered left/build index lists, and (in serial mode) the reused output
// vectors and selection. Parallel workers each own one; their output
// vectors are allocated fresh per batch instead so chunk outputs survive
// until the stream phase.
type probeState struct {
	enc     vec.KeyEncoder
	lidx    []int32
	ridx    []int32
	cols    []*vec.Vector
	sel     []int32
	scratch value.Row
}

func (j *vecHashJoinOp) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if err := j.right.Open(); err != nil {
		return err
	}
	resetFeed(j.lsrc)
	resetFeed(j.rsrc)
	j.lcols = make([]int, len(j.keys))
	rcols := make([]int, len(j.keys))
	for i, k := range j.keys {
		j.lcols[i] = k.left
		rcols[i] = k.right
	}
	j.build = vec.NewTable(j.rwidth)
	j.table = make(map[string][]int32)
	var enc vec.KeyEncoder
	var entries, stateBytes int64
	for {
		rb, ok, err := j.rsrc.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		keys := enc.Encode(rb, rcols)
		for i, n := 0, rb.Len(); i < n; i++ {
			if vec.NullAt(rb, i, rcols) {
				continue
			}
			grew := j.build.AppendRow(rb, i)
			key := string(keys[i])
			j.table[key] = append(j.table[key], int32(j.build.Len()-1))
			entries++
			entry := grew + int64(len(key))
			stateBytes += entry
			// Budget check per admitted build row, charged with the actual
			// vector growth: the query aborts on the exact allocation that
			// crosses the limit.
			if err := j.gov.charge(j.where, entry); err != nil {
				return err
			}
		}
	}
	if j.metrics != nil {
		j.metrics.BuildEntries.Add(entries)
		j.metrics.StateBytes.Add(stateBytes)
	}
	j.rows.reset()
	j.outs = nil
	j.oidx = 0
	j.serialProbe = j.par <= 1
	if j.serialProbe {
		return nil
	}
	return j.openParallel()
}

// openParallel materializes the probe batches and processes them on the
// worker pool, one batch per chunk; outputs are retained per chunk and
// streamed in batch order by NextBatch.
func (j *vecHashJoinOp) openParallel() error {
	batches, err := drainFeed(j.lsrc)
	if err != nil {
		return err
	}
	outs := make([]*vec.Batch, len(batches))
	states := make([]probeState, j.par)
	err = forEachChunk(j.where, j.par, len(batches), 1, func(w, c, lo, hi int) error {
		if err := j.gov.cancelled(); err != nil {
			return err
		}
		if j.metrics != nil {
			j.metrics.Morsel(w)
		}
		if err := j.gov.tick(); err != nil {
			return err
		}
		out, err := j.processBatch(&states[w], batches[c], false)
		if err != nil {
			return err
		}
		outs[c] = out
		return nil
	})
	if err != nil {
		return err
	}
	j.outs = outs
	return nil
}

// processBatch probes one left batch and gathers the output batch, or nil
// when no row survives. With reuse set the output vectors and selection
// come from ps and are overwritten by the next call (the serial streaming
// contract); without it they are freshly allocated so the batch can be
// retained (the parallel path).
func (j *vecHashJoinOp) processBatch(ps *probeState, b *vec.Batch, reuse bool) (*vec.Batch, error) {
	keys := ps.enc.Encode(b, j.lcols)
	ps.lidx, ps.ridx = ps.lidx[:0], ps.ridx[:0]
	var hits int64
	for i, n := 0, b.Len(); i < n; i++ {
		if vec.NullAt(b, i, j.lcols) {
			continue
		}
		matches := j.table[string(keys[i])]
		if len(matches) == 0 {
			continue
		}
		hits += int64(len(matches))
		phys := int32(b.Index(i))
		for _, m := range matches {
			ps.lidx = append(ps.lidx, phys)
			ps.ridx = append(ps.ridx, m)
		}
	}
	if j.metrics != nil && hits > 0 {
		j.metrics.ProbeHits.Add(hits)
	}
	if len(ps.lidx) == 0 {
		return nil, nil
	}
	cols := ps.cols
	if !reuse || cols == nil {
		cols = make([]*vec.Vector, j.lwidth+j.rwidth)
		for i := range cols {
			cols[i] = &vec.Vector{}
		}
		if reuse {
			ps.cols = cols
		}
	}
	for c := 0; c < j.lwidth; c++ {
		v := cols[c]
		v.Reset()
		src := b.Cols[c]
		for _, p := range ps.lidx {
			v.AppendFrom(src, int(p))
		}
	}
	for c := 0; c < j.rwidth; c++ {
		v := cols[j.lwidth+c]
		v.Reset()
		src := j.build.Col(c)
		for _, p := range ps.ridx {
			v.AppendFrom(src, int(p))
		}
	}
	out := vec.NewBatch(cols)
	if j.residual != nil {
		var sel []int32
		if reuse {
			sel = ps.sel[:0]
		}
		for i, n := 0, out.Len(); i < n; i++ {
			ps.scratch = out.ReadRow(i, ps.scratch)
			truth, err := expr.EvalTruth(j.residual, ps.scratch, j.params)
			if err != nil {
				return nil, err
			}
			if truth == value.True {
				sel = append(sel, int32(i))
			}
		}
		if reuse {
			ps.sel = sel
		}
		if len(sel) == 0 {
			return nil, nil
		}
		out.Sel = sel
	}
	return out, nil
}

func (j *vecHashJoinOp) NextBatch() (*vec.Batch, bool, error) {
	if j.serialProbe {
		for {
			b, ok, err := j.lsrc.NextBatch()
			if !ok || err != nil {
				return nil, false, err
			}
			if j.metrics != nil {
				j.metrics.Morsel(0)
			}
			out, err := j.processBatch(&j.ps, b, true)
			if err != nil {
				return nil, false, err
			}
			if out == nil {
				continue
			}
			return out, true, nil
		}
	}
	for j.oidx < len(j.outs) {
		out := j.outs[j.oidx]
		j.oidx++
		if out == nil {
			continue
		}
		return out, true, nil
	}
	return nil, false, nil
}

func (j *vecHashJoinOp) Next() (value.Row, bool, error) { return j.rows.next(j) }

func (j *vecHashJoinOp) Close() error {
	lerr := j.left.Close()
	rerr := j.right.Close()
	if lerr != nil {
		return lerr
	}
	return rerr
}
