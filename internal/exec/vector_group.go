package exec

import (
	"repro/internal/expr"
	"repro/internal/paged"
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
// once, when the grouping is shaped; a run whose input is in batches reads
// them.
func (g *groupCore) initAggCols() {
	g.aggCols = g.aggCols[:0]
	for _, agg := range g.aggs {
		ref := aggColRef{col: -1}
		if agg.Func == expr.AggCountStar {
			ref.star = true
		} else if cr, ok := agg.Arg.(*expr.ColumnRef); ok && cr.Index >= 0 {
			ref.col = cr.Index
		}
		g.aggCols = append(g.aggCols, ref)
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
	feed := new(batchFeed)
	return func(b *vec.Batch) error {
		if err := s.g.gov.tick(); err != nil {
			return err
		}
		if s.g.metrics != nil {
			s.g.metrics.Morsel(worker)
		}
		return feed.fold(t, b)
	}, err
}

// batchFeed is the scratch one chunk folds its batches with, a block of
// foldBlock logical rows at a time.
type batchFeed struct {
	enc  vec.KeyEncoder
	row  value.Row              // a logical row read out of the batch
	ids  [foldBlock]int32       // the group of each row of the block
	vals [foldBlock]value.Value // one aggregate's argument for each row of the block
}

// foldBlock rows' ids and arguments stay in the first-level cache between the
// pass that writes them and the pass that reads them.
const foldBlock = 256

// fold folds one batch into t, each block of rows in two passes: every row's
// group id first — keys encoded column-at-a-time, groups looked up by key
// bytes, a row read out of the batch only when it starts a group — then each
// accumulator column over the id vector, at one dynamic dispatch per column
// and block. Each accumulator still sees its group's values in row order.
func (f *batchFeed) fold(t *groupTable, b *vec.Batch) error {
	g, n := t.core, b.Len()
	var keys [][]byte
	if !t.scalar {
		keys = f.enc.Encode(b, g.groupCols)
	}
	for lo := 0; lo < n; lo += foldBlock {
		ids := f.ids[:min(foldBlock, n-lo)]
		if !t.scalar { // else every id stays 0: the scalar aggregation's one group
			for i := range ids {
				key := keys[lo+i]
				hash := paged.Hash(key)
				id := t.index.Lookup(hash, key)
				if id < 0 {
					var err error
					f.row = b.ReadRow(lo+i, f.row)
					if id, err = t.insert(hash, key, f.row); err != nil {
						return err
					}
				}
				ids[i] = int32(id)
			}
		}
		for k, col := range t.cols {
			var vals []value.Value // nil: COUNT(*) ignores its input
			switch ref := g.aggCols[k]; {
			case ref.star:
			case ref.col >= 0:
				vals = f.vals[:len(ids)]
				v := b.Cols[ref.col]
				for i := range vals {
					vals[i] = v.Value(b.Index(lo + i))
				}
			default:
				// The argument is an expression: evaluate it over the rows.
				vals = f.vals[:len(ids)]
				for i := range vals {
					var err error
					f.row = b.ReadRow(lo+i, f.row)
					if vals[i], err = expr.Eval(g.aggs[k].Arg, f.row, g.params); err != nil {
						return err
					}
				}
			}
			if err := col.AddEach(ids, vals); err != nil {
				return err
			}
		}
	}
	return nil
}
