package exec

import (
	"repro/internal/expr"
	"repro/internal/value"
	"repro/internal/vec"
)

// probeState is one worker's probe scratch: the key encoder, the matched left
// rows' indices, the output vectors and selection, and the scratch row the
// residual is evaluated over. All of it is reused from batch to batch.
type probeState struct {
	enc     vec.KeyEncoder
	lidx    []int32
	cols    []*vec.Vector
	out     vec.Batch
	sel     []int32
	scratch value.Row
}

// probeBatches is the probe in batch form: a left batch's keys are encoded
// column-at-a-time and looked up in the join table the row form reads, and
// the joined rows are gathered into the worker's output vectors — left
// columns by index from the probe batch, right columns from the build rows of
// the key's chain — and handed on as one batch. Rows with a NULL in any key
// column are dropped, exactly like the row probe, and the output is in the
// row probe's order: probe rows in input order, each row's matches in build
// order, the residual applied per joined row.
func (j *hashJoinOp) probeBatches(w int, next batchFn) batchFn {
	ps := &j.probes[w]
	return func(b *vec.Batch) error {
		if ps.cols == nil {
			ps.cols = make([]*vec.Vector, j.width)
			for c := range ps.cols {
				ps.cols[c] = &vec.Vector{}
			}
		}
		left, right := ps.cols[:b.Width()], ps.cols[b.Width():]
		for _, v := range right {
			v.Reset()
		}
		keys := ps.enc.Encode(b, j.lcols)
		ps.lidx = ps.lidx[:0]
		for i, n := 0, b.Len(); i < n; i++ {
			if vec.NullAt(b, i, j.lcols) {
				continue
			}
			phys := int32(b.Index(i))
			for m := j.table.lookup(keys[i]).head; m >= 0; m = j.table.next[m] {
				// A skewed key's chain can dominate the batch, so it ticks itself.
				if err := j.gov.tick(); err != nil {
					return err
				}
				ps.lidx = append(ps.lidx, phys)
				row := j.table.rows[m]
				for c, v := range right {
					v.AppendBoxed(row[c])
				}
			}
		}
		if len(ps.lidx) == 0 {
			return nil
		}
		if j.metrics != nil {
			j.metrics.ProbeHits.Add(int64(len(ps.lidx)))
		}
		for c, v := range left {
			v.Reset()
			src := b.Cols[c]
			for _, p := range ps.lidx {
				v.AppendFrom(src, int(p))
			}
		}
		ps.out.Reset(ps.cols)
		if j.residual != nil {
			ps.sel = ps.sel[:0]
			for i, n := 0, ps.out.Len(); i < n; i++ {
				ps.scratch = ps.out.ReadRow(i, ps.scratch)
				truth, err := expr.EvalTruth(j.residual, ps.scratch, j.params)
				if err != nil {
					return err
				}
				if truth == value.True {
					ps.sel = append(ps.sel, int32(i))
				}
			}
			if len(ps.sel) == 0 {
				return nil
			}
			ps.out.Sel = ps.sel
		}
		return next(&ps.out)
	}
}
