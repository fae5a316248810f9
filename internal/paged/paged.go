// Package paged holds the append-only array the group table and the
// accumulator columns keep their per-group state in — element i lives at a
// fixed place from the moment it is appended, and growing the array never
// copies what is already there — and Dict, the byte-key index every hashed
// store of the executor, and every key index of the table store, is built on.
package paged

// An Array's pages hold Size elements. Only the first page grows, doubling
// from firstCap, so an array of a few elements is a few elements large; every
// later page is allocated whole. A contiguous array that doubles instead
// copies — and leaves to the collector — as many bytes again as it ends up
// holding.
const (
	pageBits = 10
	Size     = 1 << pageBits
	firstCap = 8
)

// Array is an append-only array of T in fixed-size pages. The zero Array is
// empty and ready to use. A page of a pointer-free T is never scanned by the
// collector, however many elements the array holds.
type Array[T any] struct {
	pages [][]T
}

// At returns element i, which must have been appended. The pointer is valid
// until the next Append (only the first page ever moves).
func (a *Array[T]) At(i int) *T { return &a.pages[i>>pageBits][i&(Size-1)] }

// Append adds a zero element and returns it.
func (a *Array[T]) Append() *T {
	last := len(a.pages) - 1
	if last < 0 || len(a.pages[last]) == Size {
		size := Size
		if last < 0 {
			size = firstCap
		}
		a.pages = append(a.pages, make([]T, 0, size))
		last++
	}
	page := a.pages[last]
	if len(page) == cap(page) {
		grown := make([]T, len(page), 2*cap(page))
		copy(grown, page)
		page = grown
	}
	page = page[:len(page)+1]
	a.pages[last] = page
	return &page[len(page)-1]
}
