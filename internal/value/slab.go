package value

// A Slab's first page holds slabFirstRows rows, and each page after it as
// many as all the pages before it, up to slabMaxRows: a few kept rows cost a
// few rows, a long run of them one allocation per slabMaxRows, and the pages
// before the first whole one hold slabMaxRows rows between them — a morsel
// of them, cut alone, fills its pages.
const (
	slabFirstRows = 8
	slabMaxRows   = 1024
)

// SlabPageRows is the rows of a slab's next page, given the rows its pages so
// far were made for. A store that cuts other cells than Values from pages —
// the boxed results of package gbj — pages by the same rule.
func SlabPageRows(made int) int { return min(max(made, slabFirstRows), slabMaxRows) }

// Slab cuts the rows a store keeps from pages of values, so a run of kept
// rows is a few large heap objects instead of one per row — fewer for the
// collector to mark on every cycle. A row is a full slice expression over its
// own window of a page: its capacity is its length, so appending to it moves
// it and writing to it changes no other row. A page lives while any row cut
// from it does; a store that keeps only a few of many rows copies them out.
// The zero Slab is empty and ready to use. A Slab is not safe for concurrent
// use, but the rows it has handed out are ordinary rows.
type Slab struct {
	free []Value // the current page's uncut tail
	made int     // the rows its pages were made for
}

// Copy returns a copy of row cut from the slab.
func (s *Slab) Copy(row Row) Row {
	out := s.Make(len(row))
	copy(out, row)
	return out
}

// Make returns a row of n NULLs cut from the slab.
func (s *Slab) Make(n int) Row {
	if n > len(s.free) || s.free == nil {
		rows := SlabPageRows(s.made)
		s.made += rows
		s.free = make([]Value, rows*n)
	}
	row := s.free[:n:n]
	s.free = s.free[n:]
	return row
}
