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
		if allAsc && hasSequencePrefix(in.order, keyCols) {
			return compiled{op: &limitOp{input: c.wrapNode(s, in.op), n: node.N}, order: in.order}, nil
		}
		outOrder := keyCols
		if !allAsc {
			outOrder = nil
		}
		// The fused Sort node has no operator of its own; wrapping the TopK's
		// input with the Sort's instrumentation records the rows flowing
		// through the fused boundary (a sort is 1:1, so the boundary count is
		// the Sort's output cardinality) and keeps EXPLAIN ANALYZE and the
		// Stats sink consistent with an unfused plan.
		return compiled{
			op:    &topKOp{input: c.wrapNode(s, in.op), keys: keys, n: node.N},
			order: outOrder,
		}, nil
	}
	in, err := c.compile(node.Input)
	if err != nil {
		return compiled{}, err
	}
	return compiled{op: &limitOp{input: in.op, n: node.N}, order: in.order}, nil
}

// limitOp passes through the first n rows and stops pulling.
type limitOp struct {
	input Operator
	n     int64
	seen  int64
}

func (l *limitOp) Open() error {
	l.seen = 0
	return l.input.Open()
}

func (l *limitOp) Next() (value.Row, bool, error) {
	if l.seen >= l.n {
		return nil, false, nil
	}
	row, ok, err := l.input.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.seen++
	return row, true, nil
}

func (l *limitOp) Close() error { return l.input.Close() }

// topKOp is the fused ORDER BY + LIMIT operator: a bounded max-heap of the
// n smallest rows under (keys, arrival seq) — the seq tie-break makes the
// result identical to a stable full sort followed by LIMIT. State is n
// rows, not the whole input.
type topKOp struct {
	input Operator
	keys  []sortKey
	n     int64

	heap []spillRow
	bufOp
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

func (t *topKOp) Open() error {
	if err := t.input.Open(); err != nil {
		return err
	}
	t.heap = t.heap[:0]
	seq := int64(0)
	for {
		row, ok, err := t.input.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		sr := spillRow{seq: seq, row: row}
		seq++
		if t.n <= 0 {
			continue
		}
		if int64(len(t.heap)) < t.n {
			t.push(sr)
			continue
		}
		if t.less(sr, t.heap[0]) {
			t.heap[0] = sr
			t.siftDown()
		}
	}
	out := make([]value.Row, len(t.heap))
	for i := len(t.heap) - 1; i >= 0; i-- {
		out[i] = t.heap[0].row
		last := len(t.heap) - 1
		t.heap[0] = t.heap[last]
		t.heap = t.heap[:last]
		t.siftDown()
	}
	t.reset(out)
	return nil
}

func (t *topKOp) Close() error { return t.input.Close() }
