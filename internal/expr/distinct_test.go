package expr

import (
	"testing"

	"repro/internal/value"
)

// distinctCol is a COUNT(DISTINCT v) column of the given number of groups.
func distinctCol(t *testing.T, f AggFunc, groups int) *distinctColumn {
	t.Helper()
	col, err := NewAccColumn(&Aggregate{Func: f, Arg: Column("T", "v"), Distinct: true})
	if err != nil {
		t.Fatal(err)
	}
	c, ok := col.(*distinctColumn)
	if !ok {
		t.Fatalf("a DISTINCT aggregate's column is a %T", col)
	}
	for range groups {
		c.Grow()
	}
	return c
}

// addAll folds vals into group g of c.
func addAll(t *testing.T, c AccColumn, g int, vals ...value.Value) {
	t.Helper()
	for _, v := range vals {
		if err := c.Add(g, v); err != nil {
			t.Fatal(err)
		}
	}
}

// chain is group g's distinct values in the order its chain holds them.
func (c *distinctColumn) chain(g int) []value.Value {
	var vals []value.Value
	for id := c.groups.At(g).head; id >= 0; id = c.vals.At(int(id)).next {
		vals = append(vals, c.vals.At(int(id)).v)
	}
	return vals
}

// sameValues fails unless got is want, value for value and kind for kind.
func sameValues(t *testing.T, where string, got []value.Value, want ...value.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %v, want %v", where, got, want)
	}
	for i := range got {
		if got[i].Kind() != want[i].Kind() || !sameValue(got[i], want[i]) {
			t.Fatalf("%s: %v, want %v", where, got, want)
		}
	}
}

// TestDistinctColumnIsNullEquality: 1 and 1.0 are one value under =ⁿ, so the
// second is not counted, and the one kept — what SUM(DISTINCT) adds — is the
// first to arrive; NULL is never a value.
func TestDistinctColumnIsNullEquality(t *testing.T) {
	one, oneF := value.NewInt(1), value.NewFloat(1)
	count := distinctCol(t, AggCount, 1)
	addAll(t, count, 0, one, value.Null, oneF, one, value.Null)
	if got := count.Result(0); got.Int() != 1 {
		t.Fatalf("COUNT(DISTINCT) over 1, NULL, 1.0, 1, NULL = %v, want 1", got)
	}
	sameValues(t, "COUNT(DISTINCT) set", count.chain(0), one)
	sum := distinctCol(t, AggSum, 1)
	addAll(t, sum, 0, oneF, one, value.NewInt(2))
	if got := sum.Result(0); got.Kind() != value.KindFloat || got.Float() != 3 {
		t.Fatalf("SUM(DISTINCT) over 1.0, 1, 2 = %v, want the float 3", got)
	}
}

// TestDistinctColumnSharesValuesAcrossGroups: one index holds every group's
// values, and a value seen by one group is still new to another.
func TestDistinctColumnSharesValuesAcrossGroups(t *testing.T) {
	const groups = 1000
	c := distinctCol(t, AggCount, groups)
	for g := range groups {
		for v := range g % 7 {
			addAll(t, c, g, value.NewInt(int64(v)), value.NewInt(int64(v)))
		}
	}
	total := 0
	for g := range groups {
		if got := c.Result(g).Int(); got != int64(g%7) {
			t.Fatalf("group %d counts %d distinct values, want %d", g, got, g%7)
		}
		total += g % 7
	}
	if c.index.Len() != total {
		t.Fatalf("the index holds %d (group, value) entries, want %d", c.index.Len(), total)
	}
}

// TestDistinctColumnMergeOrder: MergeFrom folds the source group's values in
// their order of first appearance, after the destination's own, skipping
// those it holds — and into a fresh group leaves exactly the source's set.
func TestDistinctColumnMergeOrder(t *testing.T) {
	v := func(ns ...int64) []value.Value {
		vals := make([]value.Value, len(ns))
		for i, n := range ns {
			vals[i] = value.NewInt(n)
		}
		return vals
	}
	dst, src := distinctCol(t, AggCount, 2), distinctCol(t, AggCount, 2)
	addAll(t, dst, 0, v(3, 1, 3)...)
	addAll(t, src, 1, v(2, 1, 5, 2, 3, 4)...)
	for _, g := range []int{0, 1} {
		if err := dst.MergeFrom(g, src, 1); err != nil {
			t.Fatal(err)
		}
	}
	sameValues(t, "merged into a used group", dst.chain(0), v(3, 1, 2, 5, 4)...)
	sameValues(t, "merged into a fresh group", dst.chain(1), v(2, 1, 5, 3, 4)...)
	if a, b := dst.Result(0).Int(), dst.Result(1).Int(); a != 5 || b != 5 {
		t.Fatalf("merged groups count %d and %d, want 5 and 5", a, b)
	}
}

// TestDistinctColumnReset: a reset group sees every value anew while the
// others keep theirs, and a group that holds all the index's entries — a
// stream aggregation's one live group — empties the index.
func TestDistinctColumnReset(t *testing.T) {
	c := distinctCol(t, AggCount, 2)
	addAll(t, c, 0, value.NewInt(1), value.NewInt(2))
	addAll(t, c, 1, value.NewInt(1))
	c.Reset(0)
	addAll(t, c, 0, value.NewInt(1))
	addAll(t, c, 1, value.NewInt(1))
	if a, b := c.Result(0).Int(), c.Result(1).Int(); a != 1 || b != 1 {
		t.Fatalf("after a reset of group 0: counts %d and %d, want 1 and 1", a, b)
	}
	one := distinctCol(t, AggCount, 1)
	for range 3 {
		addAll(t, one, 0, value.NewInt(1), value.NewInt(2), value.NewInt(3))
		one.Reset(0)
		if one.index.Len() != 0 {
			t.Fatalf("a reset of the only group left %d entries", one.index.Len())
		}
	}
}

// TestDistinctAccDuplicateAllocatesNothing: the standalone DISTINCT
// accumulator encodes a value's key into a reused buffer, so a value it has
// seen — a long string included — costs no allocation.
func TestDistinctAccDuplicateAllocatesNothing(t *testing.T) {
	acc, err := NewAccumulator(&Aggregate{Func: AggCount, Arg: Column("T", "v"), Distinct: true})
	if err != nil {
		t.Fatal(err)
	}
	vals := []value.Value{value.NewInt(7), value.NewString("a longer string than a small-string buffer holds"), value.NewFloat(2.5)}
	for _, v := range vals {
		if err := acc.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		for _, v := range vals {
			if err := acc.Add(v); err != nil {
				t.Fatal(err)
			}
		}
	}); avg != 0 {
		t.Errorf("three duplicates allocate %.2f times, want 0", avg)
	}
	if got := acc.Result().Int(); got != 3 {
		t.Fatalf("COUNT(DISTINCT) = %d, want 3", got)
	}
}
