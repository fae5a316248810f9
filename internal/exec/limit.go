package exec

import (
	"repro/internal/algebra"
	"repro/internal/value"
)

// limit shapes a Limit node. LIMIT over a fresh ORDER BY fuses into a
// bounded TopK (a size-N heap instead of a full materialized sort) — unless
// the order propagated from the input already proves it sorted, in which case
// the sort is elided exactly as in the bare Sort case and the limit just stops
// the stream after N rows.
func (sh shaper) limit(s *nodeShape, node *algebra.Limit) error {
	sort, fused := node.Input.(*algebra.Sort)
	if !fused {
		in, err := sh.shape(node.Input)
		if err != nil {
			return err
		}
		s.order = in.order
		s.bind = func(c *compiler) (*pipeOp, error) {
			p, err := c.input(in, s)
			if err != nil {
				return nil, err
			}
			return c.source(&limitOp{input: p, n: node.N}, s), nil
		}
		return nil
	}
	in, err := sh.shape(sort.Input)
	if err != nil {
		return err
	}
	keys, order, err := sortKeys(sort.Input.Schema(), sort.Keys)
	if err != nil {
		return err
	}
	sorted := hasSequencePrefix(in.order, order)
	s.order = order
	if sorted {
		s.order = in.order
	}
	s.bind = func(c *compiler) (*pipeOp, error) {
		p, err := c.input(in, s)
		if err != nil {
			return nil, err
		}
		// The fused Sort node has no operator of its own; a stage that only
		// counts records the rows flowing through the fused boundary (a sort is
		// 1:1, so the boundary count is the Sort's output cardinality) and
		// keeps EXPLAIN ANALYZE and the Stats sink consistent with an unfused
		// plan.
		if c.opts.Metrics != nil {
			p.meter(&metricOp{metrics: c.nodeMetrics(sort), clock: c.clock})
		}
		if sorted {
			return c.source(&limitOp{input: p, n: node.N}, s), nil
		}
		return c.source(&topKOp{input: p, keys: keys, n: node.N}, s), nil
	}
	return nil
}

// limitOp keeps the first n rows of its input, taken as one in-order chunk,
// and stops the run there: nothing past the row that filled it is read.
type limitOp struct {
	input *pipeOp
	n     int64
}

func (l *limitOp) open() (opened, error) {
	var out []value.Row
	var err error
	if l.n > 0 {
		err = l.input.each(func(row value.Row) error {
			if out = append(out, l.input.keep(row)); int64(len(out)) == l.n {
				return errStop
			}
			return nil
		})
	}
	return opened{rows: out}, err
}

// topKOp is the fused ORDER BY + LIMIT operator: a bounded max-heap of the
// n smallest rows under (keys, arrival seq) — the seq tie-break makes the
// result identical to a stable full sort followed by LIMIT. State is n
// rows, not the whole input.
type topKOp struct {
	input *pipeOp
	keys  []sortKey
	n     int64
}

func (t *topKOp) less(a, b spillRow) bool {
	c := cmpByKeys(t.keys, a.row, b.row)
	return c < 0 || c == 0 && a.seq < b.seq
}

func (t *topKOp) open() (opened, error) {
	// The root sorts after every other row kept: the one a better row evicts.
	heap := binHeap[spillRow]{before: func(a, b spillRow) bool { return t.less(b, a) }}
	seq := int64(0)
	err := t.input.each(func(row value.Row) error {
		sr := spillRow{seq: seq, row: row}
		seq++
		// A borrowed row is copied only when it enters the heap, over the row
		// it evicts once the heap is full: n copies in all.
		if int64(len(heap.items)) < t.n {
			sr.row = t.input.keep(row)
			heap.push(sr)
		} else if t.n > 0 && t.less(sr, heap.items[0]) {
			sr.row = t.input.keepOver(heap.items[0].row, row)
			heap.items[0] = sr
			heap.fix()
		}
		return nil
	})
	if err != nil {
		return opened{}, err
	}
	out := make([]value.Row, len(heap.items))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.pop().row
	}
	return opened{rows: out}, nil
}
