package expr

import (
	"encoding/binary"
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
		return newDistinctAcc(a.Func), nil
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
		return newDistinctColumn(a.Func), nil
	}
	return newPlainColumn(a.Func), nil
}

// newPlainColumn is the non-DISTINCT accumulator column of a valid aggregate
// function.
func newPlainColumn(f AggFunc) AccColumn {
	switch f {
	case AggCountStar:
		return &accColumn[countStarAcc, *countStarAcc]{}
	case AggCount:
		return &accColumn[countAcc, *countAcc]{}
	case AggSum:
		return &accColumn[sumAcc, *sumAcc]{}
	case AggAvg:
		return &accColumn[avgAcc, *avgAcc]{}
	default:
		return &accColumn[minmaxAcc, *minmaxAcc]{fresh: minmaxAcc{min: f == AggMin}}
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

// distinctColumn is the AccColumn of a DISTINCT aggregate: the plain
// aggregate's column, fed only a group's first occurrence of each value under
// =ⁿ. NULL inputs are dropped here, as the plain aggregate would skip them.
// Which values the groups have seen is one paged.Dict for the whole column,
// keyed by (group tag, canonical value bytes) encoded into a reused buffer,
// so a duplicate allocates nothing. A group's values are chained in
// first-appearance order, which MergeFrom replays through Add — continuing
// the plain aggregate's left-to-right fold exactly as serial execution would.
type distinctColumn struct {
	fn     AggFunc
	inner  AccColumn
	index  paged.Dict
	groups paged.Array[distinctGroup]
	vals   paged.Array[distinctVal] // by index id
	tags   uint32                   // tags handed out
	key    []byte                   // scratch: the key being looked up
}

// distinctGroup is one group's value set: the tag its index keys start with
// and the chain of its values (ids into vals, -1 for none).
type distinctGroup struct {
	tag        uint32
	head, tail int32
	n          int
}

// distinctVal is one (group, value) entry and the next value of its group.
type distinctVal struct {
	v    value.Value
	next int32
}

func newDistinctColumn(f AggFunc) *distinctColumn {
	return &distinctColumn{fn: f, inner: newPlainColumn(f)}
}

func (c *distinctColumn) Grow() {
	c.inner.Grow()
	*c.groups.Append() = c.fresh()
}

// fresh is an empty value set under a tag no group has had.
func (c *distinctColumn) fresh() distinctGroup {
	c.tags++
	return distinctGroup{tag: c.tags, head: -1, tail: -1}
}

// Reset gives group g an empty set under a new tag, so its old entries are
// never found again. When they are all the index holds — the one live group
// of a stream aggregation — the index starts over instead of keeping them.
func (c *distinctColumn) Reset(g int) {
	c.inner.Reset(g)
	grp := c.groups.At(g)
	if grp.n == c.index.Len() {
		c.index, c.vals = paged.Dict{}, paged.Array[distinctVal]{}
	}
	*grp = c.fresh()
}

func (c *distinctColumn) Add(g int, v value.Value) error {
	if v.IsNull() {
		return nil
	}
	grp := c.groups.At(g)
	c.key = binary.LittleEndian.AppendUint32(c.key[:0], grp.tag)
	c.key = value.AppendGroupKey(c.key, v)
	hash := paged.Hash(c.key)
	if c.index.Lookup(hash, c.key) >= 0 {
		return nil
	}
	id := int32(c.index.Append(hash, c.key))
	*c.vals.Append() = distinctVal{v: v, next: -1}
	if grp.tail < 0 {
		grp.head = id
	} else {
		c.vals.At(int(grp.tail)).next = id
	}
	grp.tail = id
	grp.n++
	return c.inner.Add(g, v)
}

func (c *distinctColumn) AddEach(ids []int32, vals []value.Value) error {
	for i, g := range ids {
		if err := c.Add(int(g), vals[i]); err != nil {
			return err
		}
	}
	return nil
}

// MergeFrom adds src's group sg's values to group g in their order of first
// appearance: a union of the two sets that folds what g had not seen.
func (c *distinctColumn) MergeFrom(g int, src AccColumn, sg int) error {
	o, ok := src.(*distinctColumn)
	if !ok || o.fn != c.fn {
		return mergeMismatch(c, src)
	}
	for id := o.groups.At(sg).head; id >= 0; {
		val := o.vals.At(int(id))
		v, next := val.v, val.next // Add may move c's first page, o's too if o is c
		if err := c.Add(g, v); err != nil {
			return err
		}
		id = next
	}
	return nil
}

func (c *distinctColumn) Result(g int) value.Value { return c.inner.Result(g) }

// distinctAcc is a DISTINCT aggregate's Accumulator: group 0 of a
// distinctColumn of its own.
type distinctAcc struct{ col *distinctColumn }

func newDistinctAcc(f AggFunc) *distinctAcc {
	col := newDistinctColumn(f)
	col.Grow()
	return &distinctAcc{col: col}
}

func (d *distinctAcc) Add(v value.Value) error { return d.col.Add(0, v) }

// Merge unions the other partial's distinct values into this one's, as
// distinctColumn.MergeFrom does for a group.
func (d *distinctAcc) Merge(other Accumulator) error {
	o, ok := other.(*distinctAcc)
	if !ok {
		return mergeMismatch(d, other)
	}
	return d.col.MergeFrom(0, o.col, 0)
}

func (d *distinctAcc) Result() value.Value { return d.col.Result(0) }
