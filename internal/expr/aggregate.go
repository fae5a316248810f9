package expr

import (
	"fmt"

	"repro/internal/paged"
	"repro/internal/value"
)

// Accumulator computes one aggregate function over the rows of a group.
// The grouping operator feeds it the aggregate argument's value for each
// row (value.Null for COUNT(*), whose accumulator ignores its input) and
// asks for the result once the group is complete.
//
// SQL2 semantics implemented here: all aggregates except COUNT(*) skip NULL
// inputs; COUNT of an empty/all-NULL group is 0 while SUM/AVG/MIN/MAX yield
// NULL; DISTINCT deduplicates inputs under =ⁿ before aggregating.
type Accumulator interface {
	// Add folds one input value into the aggregate.
	Add(v value.Value) error
	// Merge folds another accumulator of the same aggregate — a partial
	// aggregate over a disjoint subset of the group's rows — into this
	// one. This is the eager/partial aggregation algebra of the paper
	// reused as a combine rule: COUNT partials add, SUM partials add,
	// MIN/MAX partials compare, AVG partials combine their (n, sum)
	// pairs, and DISTINCT partials union their value sets. The parallel
	// executor merges thread-local partials with it; merging in a fixed
	// partition order keeps results deterministic.
	Merge(other Accumulator) error
	// Result returns the aggregate value for the group.
	Result() value.Value
}

// NewAccumulator builds an accumulator for the aggregate node.
func NewAccumulator(a *Aggregate) (Accumulator, error) {
	switch {
	case !validAggFunc(a.Func):
		return nil, fmt.Errorf("expr: unknown aggregate function %v", a.Func)
	case a.Distinct && a.Func != AggCountStar: // COUNT(*) admits no DISTINCT in our subset
		return &distinctAcc{fn: a.Func}, nil
	}
	return newPlainAcc(a.Func), nil
}

func validAggFunc(f AggFunc) bool { return f <= AggMax }

// newPlainAcc is the non-DISTINCT accumulator of a valid aggregate function.
func newPlainAcc(f AggFunc) Accumulator {
	switch f {
	case AggCountStar:
		return &countStarAcc{}
	case AggCount:
		return &countAcc{}
	case AggSum:
		return &sumAcc{}
	case AggAvg:
		return &avgAcc{}
	default:
		return &minmaxAcc{min: f == AggMin}
	}
}

// AccColumn is one aggregate's state for every group of a group table: group
// g's accumulator is element g of a paged array of accumulator structs, so a
// group costs no allocation of its own and a page of COUNT, SUM or AVG states
// holds no pointer for the collector to follow. Each method runs the
// Accumulator method of the same name on that element — the SQL2 rules, the
// int→float promotion and the Merge algebra are the accumulators' own.
type AccColumn interface {
	// Grow appends a fresh state: the next group's.
	Grow()
	// Reset makes group g's state fresh again.
	Reset(g int)
	// Add folds one input value into group g's state.
	Add(g int, v value.Value) error
	// AddEach folds vals[i] into group ids[i]'s state for every i, in order;
	// nil vals stands for COUNT(*)'s ignored inputs. It is Add over a batch
	// at one dynamic dispatch for the batch.
	AddEach(ids []int32, vals []value.Value) error
	// MergeFrom merges group sg's state of src — a column of the same
	// aggregate — into group g's. Merging into a fresh state yields exactly
	// the state merged in.
	MergeFrom(g int, src AccColumn, sg int) error
	// Result returns group g's aggregate value.
	Result(g int) value.Value
}

// NewAccColumn builds an empty accumulator column for the aggregate node.
func NewAccColumn(a *Aggregate) (AccColumn, error) {
	switch {
	case !validAggFunc(a.Func):
		return nil, fmt.Errorf("expr: unknown aggregate function %v", a.Func)
	case a.Distinct && a.Func != AggCountStar:
		return &accColumn[distinctAcc, *distinctAcc]{fresh: distinctAcc{fn: a.Func}}, nil
	}
	switch a.Func {
	case AggCountStar:
		return &accColumn[countStarAcc, *countStarAcc]{}, nil
	case AggCount:
		return &accColumn[countAcc, *countAcc]{}, nil
	case AggSum:
		return &accColumn[sumAcc, *sumAcc]{}, nil
	case AggAvg:
		return &accColumn[avgAcc, *avgAcc]{}, nil
	default:
		return &accColumn[minmaxAcc, *minmaxAcc]{fresh: minmaxAcc{min: a.Func == AggMin}}, nil
	}
}

// accColumn is the AccColumn of the accumulator struct T.
type accColumn[T any, P interface {
	*T
	Accumulator
}] struct {
	states paged.Array[T]
	fresh  T // a state no value has been folded into
}

func (c *accColumn[T, P]) Grow()       { *c.states.Append() = c.fresh }
func (c *accColumn[T, P]) Reset(g int) { *c.states.At(g) = c.fresh }

func (c *accColumn[T, P]) Add(g int, v value.Value) error { return P(c.states.At(g)).Add(v) }

func (c *accColumn[T, P]) AddEach(ids []int32, vals []value.Value) error {
	var v value.Value
	for i, g := range ids {
		if vals != nil {
			v = vals[i]
		}
		if err := P(c.states.At(int(g))).Add(v); err != nil {
			return err
		}
	}
	return nil
}

func (c *accColumn[T, P]) MergeFrom(g int, src AccColumn, sg int) error {
	o, ok := src.(*accColumn[T, P])
	if !ok {
		return mergeMismatch(c, src)
	}
	return P(c.states.At(g)).Merge(P(o.states.At(sg)))
}

func (c *accColumn[T, P]) Result(g int) value.Value { return P(c.states.At(g)).Result() }

// mergeMismatch is the error for merging accumulators, or accumulator
// columns, of different kinds.
func mergeMismatch(dst, src any) error {
	return fmt.Errorf("expr: cannot merge %T into %T", src, dst)
}

type countStarAcc struct{ n int64 }

func (c *countStarAcc) Add(value.Value) error { c.n++; return nil }
func (c *countStarAcc) Result() value.Value   { return value.NewInt(c.n) }

func (c *countStarAcc) Merge(other Accumulator) error {
	o, ok := other.(*countStarAcc)
	if !ok {
		return mergeMismatch(c, other)
	}
	c.n += o.n
	return nil
}

type countAcc struct{ n int64 }

func (c *countAcc) Add(v value.Value) error {
	if !v.IsNull() {
		c.n++
	}
	return nil
}
func (c *countAcc) Result() value.Value { return value.NewInt(c.n) }

func (c *countAcc) Merge(other Accumulator) error {
	o, ok := other.(*countAcc)
	if !ok {
		return mergeMismatch(c, other)
	}
	c.n += o.n
	return nil
}

// sumAcc keeps integer sums exact in int64 and promotes to float on the
// first float input.
type sumAcc struct {
	seen    bool
	isFloat bool
	i       int64
	f       float64
}

func (s *sumAcc) Add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	if !v.IsNumeric() {
		return fmt.Errorf("expr: SUM over non-numeric value %s", v)
	}
	s.seen = true
	if v.Kind() == value.KindFloat && !s.isFloat {
		s.isFloat = true
		s.f = float64(s.i)
	}
	if s.isFloat {
		f, _ := v.AsFloat()
		s.f += f
	} else {
		s.i += v.Int()
	}
	return nil
}

// Merge adds the other partial's sum. Integer partials merge exactly; a
// float partial promotes the receiver, the same rule Add applies per value.
func (s *sumAcc) Merge(other Accumulator) error {
	o, ok := other.(*sumAcc)
	if !ok {
		return mergeMismatch(s, other)
	}
	if !o.seen {
		return nil
	}
	if o.isFloat {
		return s.Add(value.NewFloat(o.f))
	}
	return s.Add(value.NewInt(o.i))
}

func (s *sumAcc) Result() value.Value {
	if !s.seen {
		return value.Null
	}
	if s.isFloat {
		return value.NewFloat(s.f)
	}
	return value.NewInt(s.i)
}

type avgAcc struct {
	n   int64
	sum float64
}

func (a *avgAcc) Add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	f, ok := v.AsFloat()
	if !ok {
		return fmt.Errorf("expr: AVG over non-numeric value %s", v)
	}
	a.n++
	a.sum += f
	return nil
}

func (a *avgAcc) Merge(other Accumulator) error {
	o, ok := other.(*avgAcc)
	if !ok {
		return mergeMismatch(a, other)
	}
	a.n += o.n
	a.sum += o.sum
	return nil
}

func (a *avgAcc) Result() value.Value {
	if a.n == 0 {
		return value.Null
	}
	return value.NewFloat(a.sum / float64(a.n))
}

type minmaxAcc struct {
	min  bool
	seen bool
	best value.Value
}

func (m *minmaxAcc) Add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	if !m.seen {
		m.seen = true
		m.best = v
		return nil
	}
	sign, ok := value.Compare(v, m.best)
	if !ok {
		return fmt.Errorf("expr: MIN/MAX over incomparable values %s and %s", v, m.best)
	}
	if (m.min && sign < 0) || (!m.min && sign > 0) {
		m.best = v
	}
	return nil
}

func (m *minmaxAcc) Merge(other Accumulator) error {
	o, ok := other.(*minmaxAcc)
	if !ok || o.min != m.min {
		return mergeMismatch(m, other)
	}
	if !o.seen {
		return nil
	}
	return m.Add(o.best)
}

func (m *minmaxAcc) Result() value.Value {
	if !m.seen {
		return value.Null
	}
	return m.best
}

// distinctAcc deduplicates inputs under =ⁿ before delegating. NULL inputs
// are forwarded (the inner accumulator skips them), so dedup only needs to
// track non-null keys. vals keeps the distinct values in first-appearance
// order so that Merge replays the other partial's values deterministically.
// The set and the inner accumulator are made by the first value, so a fresh
// distinctAcc is a plain struct value an accumulator column can copy.
type distinctAcc struct {
	fn    AggFunc
	seen  map[string]bool
	vals  []value.Value
	inner Accumulator
}

func (d *distinctAcc) Add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	key := value.GroupKeyAll(value.Row{v})
	if d.seen[key] {
		return nil
	}
	if d.seen == nil {
		d.seen, d.inner = make(map[string]bool), newPlainAcc(d.fn)
	}
	d.seen[key] = true
	d.vals = append(d.vals, v)
	return d.inner.Add(v)
}

// Merge unions the other partial's distinct values: each value unseen here
// flows through Add, continuing the inner accumulator's left-to-right fold
// exactly as serial execution would.
func (d *distinctAcc) Merge(other Accumulator) error {
	o, ok := other.(*distinctAcc)
	if !ok || o.fn != d.fn {
		return mergeMismatch(d, other)
	}
	for _, v := range o.vals {
		if err := d.Add(v); err != nil {
			return err
		}
	}
	return nil
}

func (d *distinctAcc) Result() value.Value {
	if d.inner == nil {
		return newPlainAcc(d.fn).Result()
	}
	return d.inner.Result()
}
