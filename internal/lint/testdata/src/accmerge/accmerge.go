// Fixture for the accmerge analyzer.
package accmerge

import "errors"

// Accumulator mirrors the engine's interface; the analyzer must not flag
// the interface itself.
type Accumulator interface {
	Add(v int) error
	Merge(other Accumulator) error
	Result() int
}

// goodSum implements the full contract: Merge type-asserts its partner.
type goodSum struct{ total int }

func (a *goodSum) Add(v int) error { a.total += v; return nil }

func (a *goodSum) Merge(other Accumulator) error {
	b, ok := other.(*goodSum)
	if !ok {
		return errors.New("mismatched accumulator kinds")
	}
	a.total += b.total
	return nil
}

func (a *goodSum) Result() int { return a.total }

// goodSwitch asserts through a type switch, which is equally law-abiding.
type goodSwitch struct{ n int }

func (a *goodSwitch) Add(v int) error { a.n++; return nil }

func (a *goodSwitch) Merge(other Accumulator) error {
	switch b := other.(type) {
	case *goodSwitch:
		a.n += b.n
		return nil
	default:
		return errors.New("mismatched accumulator kinds")
	}
}

func (a *goodSwitch) Result() int { return a.n }

// noMerge has the accumulator shape but cannot merge partials.
type noMerge struct{ total int } // want "accumulator noMerge has Add and Result but no Merge"

func (a *noMerge) Add(v int) error { a.total += v; return nil }

func (a *noMerge) Result() int { return a.total }

// blindMerge merges without checking its partner's kind.
type blindMerge struct{ total int }

func (a *blindMerge) Add(v int) error { a.total += v; return nil }

func (a *blindMerge) Merge(other Accumulator) error { // want "never type-asserts its partner"
	a.total += other.Result()
	return nil
}

func (a *blindMerge) Result() int { return a.total }

// Column mirrors the engine's column form: an accumulator per group id.
type Column interface {
	Add(g, v int) error
	MergeFrom(g int, src Column, sg int) error
	Result(g int) int
}

// goodColumn is the column form, generic over its state as the engine's is:
// MergeFrom is its Merge, and asserts its partner.
type goodColumn[T any] struct{ states []T }

func (c *goodColumn[T]) Add(g, v int) error { return nil }

func (c *goodColumn[T]) MergeFrom(g int, src Column, sg int) error {
	o, ok := src.(*goodColumn[T])
	if !ok {
		return errors.New("mismatched accumulator kinds")
	}
	c.states[g] = o.states[sg]
	return nil
}

func (c *goodColumn[T]) Result(g int) int { return g }

// blindColumn merges from whatever column it is handed.
type blindColumn struct{ totals []int }

func (c *blindColumn) Add(g, v int) error { c.totals[g] += v; return nil }

func (c *blindColumn) MergeFrom(g int, src Column, sg int) error { // want "never type-asserts its partner"
	c.totals[g] += src.Result(sg)
	return nil
}

func (c *blindColumn) Result(g int) int { return c.totals[g] }

// notAnAccumulator lacks Result; the contract does not apply.
type notAnAccumulator struct{ n int }

func (a *notAnAccumulator) Add(v int) error { a.n += v; return nil }
