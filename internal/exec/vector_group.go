package exec

import (
	"repro/internal/expr"
	"repro/internal/value"
	"repro/internal/vec"
)

// aggColRef is one aggregate argument resolved against the input columns:
// star marks COUNT(*); col >= 0 is a bare column reference read straight
// from the vector; col < 0 falls back to evaluating the bound argument
// expression over a scratch row.
type aggColRef struct {
	col  int
	star bool
}

// initAggCols resolves every aggregate argument against the input columns,
// once per run of a grouping whose input pipeline is in batches.
func (g *groupCore) initAggCols() {
	g.aggCols = g.aggCols[:0]
	for _, spec := range g.specs {
		for _, agg := range spec.aggs {
			ref := aggColRef{col: -1}
			if agg.Func == expr.AggCountStar {
				ref.star = true
			} else if cr, ok := agg.Arg.(*expr.ColumnRef); ok && cr.Index >= 0 {
				ref.col = cr.Index
			}
			g.aggCols = append(g.aggCols, ref)
		}
	}
}

// bindBatch is hash aggregation's batch form: the chunk's batches are folded
// into the chunk's own table, group keys encoded column-at-a-time through
// vec.KeyEncoder (byte-identical to value.GroupKey, so partitions equal the
// row form's) and bare-column aggregate arguments read straight from the
// vectors. It is the row sink with a batch feeder: the same groupTable, the
// same chunk-order combine, hence the same groups in the same order.
func (s *partialTables) bindBatch(worker, chunk int) (batchFn, error) {
	t, err := s.g.newTable()
	s.tables[chunk] = t
	// One chunk per worker: the chunk's scratch is made once per worker and run.
	var enc vec.KeyEncoder
	var scratch value.Row
	return func(b *vec.Batch) error {
		if err := s.g.gov.tick(); err != nil {
			return err
		}
		if s.g.metrics != nil {
			s.g.metrics.Morsel(worker)
		}
		return s.g.feedBatch(t, b, &enc, &scratch)
	}, err
}

// feedBatch folds one batch into t: keys encoded column-at-a-time, groups
// looked up by key bytes (no string is built for a group already present).
func (g *groupCore) feedBatch(t *groupTable, b *vec.Batch, enc *vec.KeyEncoder, scratch *value.Row) error {
	var keys [][]byte
	if t.index != nil {
		keys = enc.Encode(b, g.groupCols)
	}
	for i, n := 0, b.Len(); i < n; i++ {
		var st *groupState
		if t.index == nil {
			st = t.order[0]
		} else if st = t.index[string(keys[i])]; st == nil {
			var err error
			*scratch = b.ReadRow(i, *scratch)
			if st, err = t.insert(string(keys[i]), *scratch); err != nil {
				return err
			}
		}
		if err := g.feedVec(st, b, i, scratch); err != nil {
			return err
		}
	}
	return nil
}

// feedVec folds logical row i of b into a group's accumulators, reading
// bare-column arguments from the vectors and materializing the scratch row
// only when some argument needs expression evaluation. The fold order over
// (spec, agg) pairs matches groupCore.feed exactly.
func (g *groupCore) feedVec(st *groupState, b *vec.Batch, i int, scratch *value.Row) error {
	phys := b.Index(i)
	loaded := false
	ac := 0
	for _, spec := range g.specs {
		for _, agg := range spec.aggs {
			ref := g.aggCols[ac]
			var v value.Value
			switch {
			case ref.star:
				v = value.Null // ignored by the COUNT(*) accumulator
			case ref.col >= 0:
				v = b.Cols[ref.col].Value(phys)
			default:
				if !loaded {
					*scratch = b.ReadRow(i, *scratch)
					loaded = true
				}
				var err error
				v, err = expr.Eval(agg.Arg, *scratch, g.params)
				if err != nil {
					return err
				}
			}
			if err := st.accs[ac].Add(v); err != nil {
				return err
			}
			ac++
		}
	}
	return nil
}
