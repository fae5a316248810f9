// Fixture for the govloop analyzer: row loops in the executor must touch
// the governor. The types mirror internal/exec's unexported governor just
// enough to exercise the rule — the analyzer matches the method names, the
// row-slice and batch-slice types are the real ones.
package govloop

import (
	"repro/internal/value"
	"repro/internal/vec"
)

type governor struct{}

func (g *governor) tick() error                        { return nil }
func (g *governor) cancelled() error                   { return nil }
func (g *governor) charge(where string, n int64) error { return nil }

type op struct {
	gov *governor
}

func (o *op) ungoverned(rows []value.Row) int {
	n := 0
	for _, row := range rows { // want "never touches the governor"
		n += len(row)
	}
	return n
}

// ungovernedBatches: a chunk of a columnar source is a run of batches, and
// the loop that carries them is held to the same rule, once per batch.
func (o *op) ungovernedBatches(batches []*vec.Batch, carry func(*vec.Batch) error) error {
	for _, b := range batches { // want "batch loop over batches never touches the governor"
		if err := carry(b); err != nil {
			return err
		}
	}
	return nil
}

func (o *op) tickedBatches(batches []*vec.Batch, carry func(*vec.Batch) error) error {
	for _, b := range batches {
		if err := o.gov.tick(); err != nil {
			return err
		}
		if err := carry(b); err != nil {
			return err
		}
	}
	return nil
}

func (o *op) ticked(rows []value.Row) error {
	for _, row := range rows {
		if err := o.gov.tick(); err != nil {
			return err
		}
		_ = row
	}
	return nil
}

func (o *op) charged(rows []value.Row) error {
	for _, row := range rows {
		if err := o.gov.charge("fixture", int64(len(row))); err != nil {
			return err
		}
	}
	return nil
}

// nestedInherited: the inner loop rides the outer loop's tick — one outer
// iteration bounds the ungoverned stretch.
func (o *op) nestedInherited(rows, matches []value.Row) error {
	for range rows {
		if err := o.gov.tick(); err != nil {
			return err
		}
		for _, m := range matches {
			_ = m
		}
	}
	return nil
}

// nestedUngoverned: neither level ticks; only the row loop is flagged (the
// outer loop ranges over [][]value.Row, which is not itself a row slice).
func (o *op) nestedUngoverned(groups [][]value.Row) {
	for _, rows := range groups {
		for _, row := range rows { // want "never touches the governor"
			_ = row
		}
	}
}

// closureDoesNotCount: a tick inside a function literal built in the loop
// body does not run per iteration.
func (o *op) closureDoesNotCount(rows []value.Row) func() error {
	var f func() error
	for _, row := range rows { // want "never touches the governor"
		f = func() error {
			_ = row
			return o.gov.tick()
		}
	}
	return f
}

// pulled: a pull through Next is not a tick — nothing says the iterator
// behind it ticks — so a row loop that only pulls is flagged.
type fakeOp struct{}

func (f *fakeOp) Next() (value.Row, bool, error) { return nil, false, nil }

func (o *op) pulled(rows []value.Row, src *fakeOp) error {
	for range rows { // want "never touches the governor"
		if _, _, err := src.Next(); err != nil {
			return err
		}
	}
	return nil
}
