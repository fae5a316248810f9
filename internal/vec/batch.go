package vec

import (
	"repro/internal/value"
)

// Batch is a horizontal slice of a relation in columnar form: one Vector
// per column, all the same physical length, plus an optional selection
// vector. When Sel is non-nil the batch's logical rows are exactly the
// physical indices listed in Sel, in that order — a filter emits its
// input's vectors untouched and narrows Sel instead of copying survivors.
//
// A table's cached batches are shared and read-only. A batch handed from one
// pipeline stage to the next (and its buffers) is the producing worker's
// scratch: valid only until that worker's next batch.
type Batch struct {
	Cols []*Vector
	Sel  []int32
	n    int
}

// Reset makes b a batch over cols (all the same length) with no selection —
// how a producer re-fills the one output batch it reuses.
func (b *Batch) Reset(cols []*Vector) {
	b.Cols, b.Sel, b.n = cols, nil, 0
	if len(cols) > 0 {
		b.n = cols[0].Len()
	}
}

// Len returns the logical row count (len(Sel) when a selection is active).
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.n
}

// PhysLen returns the physical row count of the underlying vectors.
func (b *Batch) PhysLen() int { return b.n }

// Width returns the column count.
func (b *Batch) Width() int { return len(b.Cols) }

// Index maps logical row i to its physical index.
func (b *Batch) Index(i int) int {
	if b.Sel != nil {
		return int(b.Sel[i])
	}
	return i
}

// ReadRow fills scratch with logical row i and returns it, growing scratch
// as needed. The returned row aliases scratch and is overwritten by the
// next call — the zero-allocation escape hatch for per-row fallbacks
// (residual predicates, complex aggregate arguments).
func (b *Batch) ReadRow(i int, scratch value.Row) value.Row {
	if cap(scratch) < len(b.Cols) {
		scratch = make(value.Row, len(b.Cols))
	}
	scratch = scratch[:len(b.Cols)]
	phys := b.Index(i)
	for c, col := range b.Cols {
		scratch[c] = col.Value(phys)
	}
	return scratch
}

// AppendRows materializes every logical row onto dst in order, each row cut
// from slab.
func (b *Batch) AppendRows(dst []value.Row, slab *value.Slab) []value.Row {
	for i, n := 0, b.Len(); i < n; i++ {
		dst = append(dst, b.ReadRow(i, slab.Make(len(b.Cols))))
	}
	return dst
}

// View makes out a selection view over b's vectors: same columns, logical
// rows given by sel (physical indices into b). out's previous contents are
// discarded; sel is aliased, not copied.
func (b *Batch) View(sel []int32, out *Batch) {
	out.Cols = b.Cols
	out.Sel = sel
	out.n = b.n
}

// Project makes out a column-permutation view of b: out's column i aliases
// b's column cols[i], and the selection carries over. out's column slice is
// reused; no vector data is copied.
func (b *Batch) Project(cols []int, out *Batch) {
	if cap(out.Cols) < len(cols) {
		out.Cols = make([]*Vector, len(cols))
	}
	out.Cols = out.Cols[:len(cols)]
	for i, c := range cols {
		out.Cols[i] = b.Cols[c]
	}
	out.Sel = b.Sel
	out.n = b.n
}

// Columnarize splits rows into column-major batches of up to size rows
// each. String columns share one dictionary per column across all batches,
// so join and group keys over the same column compare by code.
func Columnarize(rows []value.Row, width, size int) []*Batch {
	if size <= 0 {
		size = BatchSize
	}
	if len(rows) == 0 {
		return nil
	}
	dicts := make([]*Dict, width)
	var out []*Batch
	for lo := 0; lo < len(rows); lo += size {
		hi := lo + size
		if hi > len(rows) {
			hi = len(rows)
		}
		cols := make([]*Vector, width)
		for c := range cols {
			cols[c] = &Vector{dict: dicts[c]}
			for _, r := range rows[lo:hi] {
				cols[c].Append(r[c])
			}
			if d := cols[c].StrDict(); d != nil {
				dicts[c] = d
			}
		}
		out = append(out, &Batch{Cols: cols, n: hi - lo})
	}
	return out
}
