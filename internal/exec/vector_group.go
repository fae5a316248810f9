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

// vecHashGroupOp is vectorized hash aggregation. Group keys are encoded
// column-at-a-time per batch through vec.KeyEncoder (byte-identical to
// value.GroupKey, so partitions equal the row engine's), and aggregate
// arguments that are bare columns feed straight from the vectors; anything
// else evaluates over a per-batch scratch row. Group output order is first
// appearance, and the accumulator fold visits rows in input order — both
// identical to the row hashGroupOp.
//
// It is hashGroupOp with a batch feeder: the same groupTable, partial
// tables and chunk-order combine, hence the same results.
type vecHashGroupOp struct {
	groupCore
	in      Operator // opened and closed here, read through src
	src     batchFeed
	aggCols []aggColRef
}

// initAggCols resolves every aggregate argument once at compile time.
func (g *vecHashGroupOp) initAggCols() {
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

// feedVec folds logical row i of b into a group's accumulators, reading
// bare-column arguments from the vectors and materializing the scratch row
// only when some argument needs expression evaluation. The fold order over
// (spec, agg) pairs matches groupCore.feed exactly.
func (g *vecHashGroupOp) feedVec(st *groupState, b *vec.Batch, i int, scratch *value.Row) error {
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

func (g *vecHashGroupOp) Open() error {
	if err := g.in.Open(); err != nil {
		return err
	}
	resetFeed(g.src)
	g.ran("vec-hash")
	if g.par <= 1 || g.scalarGroup() {
		// One table fed straight off the stream, no materialization.
		t, err := g.newTable()
		if err != nil {
			return err
		}
		var enc vec.KeyEncoder
		var scratch value.Row
		for {
			b, ok, err := g.src.NextBatch()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if g.metrics != nil {
				g.metrics.Morsel(0)
			}
			if err := g.feedBatch(t, b, &enc, &scratch); err != nil {
				return err
			}
		}
		g.recordBuild(len(t.order), t.keyBytes)
		return g.combine([]*groupTable{t})
	}
	// Above one worker the input batches are materialized and contiguous
	// batch chunks aggregate into thread-local partial tables, combined in
	// chunk order like the row operator's.
	batches, err := drainFeed(g.src)
	if err != nil {
		return err
	}
	size := chunkSizeFor(len(batches), g.par)
	tables := make([]*groupTable, numChunks(len(batches), size))
	err = forEachChunk(g.where, g.par, len(batches), size, func(w, c, lo, hi int) error {
		if err := g.gov.cancelled(); err != nil {
			return err
		}
		if g.metrics != nil {
			g.metrics.Morsel(w)
		}
		t, err := g.newTable()
		if err != nil {
			return err
		}
		var enc vec.KeyEncoder
		var scratch value.Row
		for _, b := range batches[lo:hi] {
			if err := g.gov.tick(); err != nil {
				return err
			}
			if err := g.feedBatch(t, b, &enc, &scratch); err != nil {
				return err
			}
		}
		tables[c] = t
		g.recordBuild(len(t.order), t.keyBytes)
		return nil
	})
	if err != nil {
		return err
	}
	return g.combine(tables)
}

// feedBatch folds one batch into t: keys encoded column-at-a-time, groups
// looked up by key bytes (no string is built for a group already present).
func (g *vecHashGroupOp) feedBatch(t *groupTable, b *vec.Batch, enc *vec.KeyEncoder, scratch *value.Row) error {
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

func (g *vecHashGroupOp) Close() error { return g.in.Close() }
