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
// into the chunk's own table, bare-column aggregate arguments read straight
// from the vectors. A one-column table that is not hashed for good finds a
// row's group by its grouping value — an INTEGER vector's int64s straight as
// slot offsets once the table is dense —; any other encodes group keys
// column-at-a-time through vec.KeyEncoder (byte-identical to value.GroupKey,
// so partitions equal the row form's). It is the row sink with a batch
// feeder: the same groupTable, the same chunk-order combine, hence the same
// groups in the same order.
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
	// A one-column table's key of each row of the block: keySlot bytes of
	// slab each, klen its length — 0 when it does not fit, to be made where
	// it is used.
	klen [foldBlock]uint8
	slab [foldBlock * keySlot]byte
}

// keySlot holds a one-column key of any fixed-width kind.
const keySlot = 16

// foldBlock rows' ids and arguments stay in the first-level cache between the
// pass that writes them and the pass that reads them.
const foldBlock = 256

// fold folds one batch into t, each block of rows in two passes: every row's
// group id first — a row read out of the batch only when it starts a group —
// then each accumulator column over the id vector, at one dynamic dispatch
// per column and block. Each accumulator still sees its group's values in row
// order.
func (f *batchFeed) fold(t *groupTable, b *vec.Batch) error {
	g, n := t.core, b.Len()
	hashed := !t.scalar && t.layout == layoutHashed
	var keys [][]byte
	if hashed {
		keys = f.enc.Encode(b, g.groupCols)
	}
	for lo := 0; lo < n; lo += foldBlock {
		ids := f.ids[:min(foldBlock, n-lo)]
		var err error
		switch {
		case t.scalar: // every id stays 0: the scalar aggregation's one group
		case hashed:
			err = f.keyGroups(t, b, lo, ids, keys[lo:])
		default:
			err = f.valueGroups(t, b, lo, ids)
		}
		if err != nil {
			return err
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

// keyGroups finds the groups of rows lo, lo+1, … of b in a hashed table by
// their encoded keys.
func (f *batchFeed) keyGroups(t *groupTable, b *vec.Batch, lo int, ids []int32, keys [][]byte) error {
	for i := range ids {
		key := keys[i]
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
	return nil
}

// valueGroups finds the groups of rows lo, lo+1, … of b in a one-column
// table by their grouping values, whatever layout the table is in — which a
// new group may change: by offset in a dense table, an INTEGER vector's
// int64s read straight; else by the value's key. A table not dense at the
// block's start has the block's keys made in one pass before any is hashed,
// as vec.KeyEncoder makes them: a hash reading a key just written stalls on
// the stores (BenchmarkGroupTable/batch/sparse/ is about 1.3× slower made
// row by row).
func (f *batchFeed) valueGroups(t *groupTable, b *vec.Batch, lo int, ids []int32) error {
	col := b.Cols[t.core.groupCols[0]]
	ints, nulls := col.Kind() == value.KindInt && !col.Mixed(), col.HasNulls()
	// valueAt is the grouping value at physical index phys, read straight
	// from an INTEGER vector.
	valueAt := func(phys int) value.Value {
		if ints && !(nulls && col.IsNull(phys)) {
			return value.NewInt(col.Int(phys))
		}
		return col.Value(phys)
	}
	keyed := t.layout != layoutDense
	if keyed {
		for i := range ids {
			key := value.AppendGroupKey(f.slab[i*keySlot:i*keySlot:(i+1)*keySlot], valueAt(b.Index(lo+i)))
			f.klen[i] = 0
			if len(key) <= keySlot {
				f.klen[i] = uint8(len(key))
			}
		}
	}
	for i := range ids {
		phys, id := b.Index(lo+i), -1
		var key []byte // nil: the table is dense
		var hash uint32
		switch {
		case t.layout != layoutDense:
			if n := int(f.klen[i]); keyed && n > 0 {
				key = f.slab[i*keySlot : i*keySlot+n]
			} else { // a long key, or the table went hashed in this block
				t.probe = value.AppendGroupKey(t.probe[:0], valueAt(phys))
				key = t.probe
			}
			hash = paged.Hash(key)
			id = t.index.Lookup(hash, key)
		case ints && !(nulls && col.IsNull(phys)):
			if off := uint64(col.Int(phys)) - uint64(t.base); off < uint64(len(t.slots)) {
				id = int(t.slots[off]) - 1
			}
		default:
			id = t.denseGroup(col.Value(phys))
		}
		if id < 0 {
			var err error
			f.row = b.ReadRow(lo+i, f.row)
			if key != nil {
				id, err = t.insert(hash, key, f.row)
			} else {
				id, err = t.rowGroup(f.row)
			}
			if err != nil {
				return err
			}
		}
		ids[i] = int32(id)
	}
	return nil
}
