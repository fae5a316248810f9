package exec

import (
	"repro/internal/algebra"
	"repro/internal/value"
)

// compileLimit lowers a Limit node. LIMIT over a fresh ORDER BY fuses into
// a bounded TopK (a size-N heap instead of a full materialized sort) —
// unless the order propagated from the input already proves it sorted, in
// which case the sort is elided exactly as in the bare Sort case and the
// limit just stops the stream after N rows.
func (c *compiler) compileLimit(node *algebra.Limit) (compiled, error) {
	if s, ok := node.Input.(*algebra.Sort); ok {
		in, err := c.compile(s.Input)
		if err != nil {
			return compiled{}, err
		}
		schema := s.Input.Schema()
		keys := make([]sortKey, len(s.Keys))
		allAsc := true
		keyCols := make([]int, len(s.Keys))
		for i, k := range s.Keys {
			idx, err := schema.IndexOf(k.Col)
			if err != nil {
				return compiled{}, err
			}
			keys[i] = sortKey{col: idx, desc: k.Desc}
			keyCols[i] = idx
			if k.Desc {
				allAsc = false
			}
		}
		p := in.pipeline(node)
		// The fused Sort node has no operator of its own; a stage that only
		// counts records the rows flowing through the fused boundary (a sort is
		// 1:1, so the boundary count is the Sort's output cardinality) and
		// keeps EXPLAIN ANALYZE and the Stats sink consistent with an unfused
		// plan.
		if c.opts.Metrics != nil {
			p.meter(&metricOp{metrics: c.nodeMetrics(s), clock: c.clock})
		}
		if allAsc && hasSequencePrefix(in.order, keyCols) {
			return compiled{pipe: c.source(&limitOp{input: p, n: node.N}, node), order: in.order}, nil
		}
		outOrder := keyCols
		if !allAsc {
			outOrder = nil
		}
		return compiled{pipe: c.source(&topKOp{input: p, keys: keys, n: node.N}, node), order: outOrder}, nil
	}
	in, err := c.compile(node.Input)
	if err != nil {
		return compiled{}, err
	}
	return compiled{pipe: c.source(&limitOp{input: in.pipeline(node), n: node.N}, node), order: in.order}, nil
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

	heap []spillRow
}

func (t *topKOp) less(a, b spillRow) bool {
	c := cmpByKeys(t.keys, a.row, b.row)
	return c < 0 || c == 0 && a.seq < b.seq
}

// worse reports a sorting strictly after b — the max-heap's ordering, so
// the root is the worst row currently kept.
func (t *topKOp) worse(a, b spillRow) bool { return t.less(b, a) }

func (t *topKOp) push(sr spillRow) {
	t.heap = append(t.heap, sr)
	i := len(t.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !t.worse(t.heap[i], t.heap[parent]) {
			break
		}
		t.heap[i], t.heap[parent] = t.heap[parent], t.heap[i]
		i = parent
	}
}

func (t *topKOp) siftDown() {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		max := i
		if l < len(t.heap) && t.worse(t.heap[l], t.heap[max]) {
			max = l
		}
		if r < len(t.heap) && t.worse(t.heap[r], t.heap[max]) {
			max = r
		}
		if max == i {
			return
		}
		t.heap[i], t.heap[max] = t.heap[max], t.heap[i]
		i = max
	}
}

func (t *topKOp) open() (opened, error) {
	t.heap = t.heap[:0]
	seq := int64(0)
	err := t.input.each(func(row value.Row) error {
		sr := spillRow{seq: seq, row: row}
		seq++
		// A borrowed row is copied only when it enters the heap, over the row
		// it evicts once the heap is full: n copies in all.
		if int64(len(t.heap)) < t.n {
			sr.row = t.input.keep(row)
			t.push(sr)
		} else if t.n > 0 && t.less(sr, t.heap[0]) {
			sr.row = t.input.keepOver(t.heap[0].row, row)
			t.heap[0] = sr
			t.siftDown()
		}
		return nil
	})
	if err != nil {
		return opened{}, err
	}
	out := make([]value.Row, len(t.heap))
	for i := len(t.heap) - 1; i >= 0; i-- {
		out[i] = t.heap[0].row
		last := len(t.heap) - 1
		t.heap[0] = t.heap[last]
		t.heap = t.heap[:last]
		t.siftDown()
	}
	return opened{rows: out}, nil
}
