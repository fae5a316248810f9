package expr

// Accumulator.Merge is the paper's eager/partial aggregation algebra: a
// partial aggregate over a disjoint subset of a group's rows folds into
// another partial to give exactly the aggregate over the union. These
// tests check that chunked accumulation + Merge reproduces the serial
// left-to-right fold for every aggregate kind — the property the parallel
// hash aggregation in internal/exec rests on.

import (
	"math/rand"
	"testing"

	"repro/internal/value"
)

// serialResult folds all values into one accumulator.
func serialResult(t *testing.T, agg *Aggregate, vals []value.Value) value.Value {
	t.Helper()
	acc, err := NewAccumulator(agg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if err := acc.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	return acc.Result()
}

// mergedResult splits the values into chunks, accumulates each separately,
// and merges the partials left to right.
func mergedResult(t *testing.T, agg *Aggregate, vals []value.Value, chunks int) value.Value {
	t.Helper()
	partials := make([]Accumulator, chunks)
	for i := range partials {
		acc, err := NewAccumulator(agg)
		if err != nil {
			t.Fatal(err)
		}
		partials[i] = acc
	}
	for i, v := range vals {
		// Contiguous chunks, like the executor's per-worker ranges.
		c := i * chunks / len(vals)
		if err := partials[c].Add(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range partials[1:] {
		if err := partials[0].Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	return partials[0].Result()
}

func sameValue(a, b value.Value) bool {
	return value.GroupKeyAll(value.Row{a}) == value.GroupKeyAll(value.Row{b})
}

func TestMergeMatchesSerialFold(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	aggs := []*Aggregate{
		{Func: AggCountStar},
		{Func: AggCount, Arg: Column("T", "v")},
		{Func: AggSum, Arg: Column("T", "v")},
		{Func: AggAvg, Arg: Column("T", "v")},
		{Func: AggMin, Arg: Column("T", "v")},
		{Func: AggMax, Arg: Column("T", "v")},
		{Func: AggCount, Arg: Column("T", "v"), Distinct: true},
		{Func: AggSum, Arg: Column("T", "v"), Distinct: true},
	}
	datasets := [][]value.Value{
		nil,               // empty: merge of fresh accumulators
		{value.Null},      // all-NULL input
		{value.NewInt(7)}, // singleton
	}
	// Random integer datasets with NULLs and heavy duplication (DISTINCT
	// must dedup across chunk boundaries).
	for i := 0; i < 6; i++ {
		n := 1 + r.Intn(40)
		vals := make([]value.Value, n)
		for j := range vals {
			if r.Intn(6) == 0 {
				vals[j] = value.Null
			} else {
				vals[j] = value.NewInt(int64(r.Intn(5)))
			}
		}
		datasets = append(datasets, vals)
	}
	// A float dataset with exactly representable values: SUM/AVG partials
	// must combine without drift.
	datasets = append(datasets, []value.Value{
		value.NewFloat(0.5), value.NewFloat(1.25), value.NewFloat(-2),
	})

	for ai, agg := range aggs {
		for di, vals := range datasets {
			want := serialResult(t, agg, vals)
			for _, chunks := range []int{1, 2, 3, 4} {
				if len(vals) == 0 && chunks > 1 {
					continue
				}
				if len(vals) > 0 && chunks > len(vals) {
					continue
				}
				got := mergedResult(t, agg, vals, chunks)
				if !sameValue(got, want) {
					t.Errorf("agg %d dataset %d chunks %d: merged %v, serial %v",
						ai, di, chunks, got, want)
				}
			}
		}
	}
}

// TestMergeKindMismatch: merging accumulators of different kinds is a
// programming error and must be reported, not silently miscomputed.
func TestMergeKindMismatch(t *testing.T) {
	kinds := []*Aggregate{
		{Func: AggCountStar},
		{Func: AggCount, Arg: Column("T", "v")},
		{Func: AggSum, Arg: Column("T", "v")},
		{Func: AggAvg, Arg: Column("T", "v")},
		{Func: AggMin, Arg: Column("T", "v")},
		{Func: AggCount, Arg: Column("T", "v"), Distinct: true},
	}
	for i, a := range kinds {
		for j, b := range kinds {
			if i == j {
				continue
			}
			dst, err := NewAccumulator(a)
			if err != nil {
				t.Fatal(err)
			}
			src, err := NewAccumulator(b)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.Merge(src); err == nil {
				t.Errorf("merging %T into %T did not error", src, dst)
			}
		}
	}
	// MIN and MAX share a type but differ in direction; merging them
	// must also fail.
	mn, _ := NewAccumulator(&Aggregate{Func: AggMin, Arg: Column("T", "v")})
	mx, _ := NewAccumulator(&Aggregate{Func: AggMax, Arg: Column("T", "v")})
	if err := mn.Merge(mx); err == nil {
		t.Error("merging a MAX partial into a MIN accumulator did not error")
	}
}

// TestAccColumnIsTheAccumulatorPerGroup: an accumulator column's group g is
// an accumulator — fed by Add or by AddEach over an id vector, merged from a
// second column into a used and into a fresh state, and reset, it reads what
// NewAccumulator's accumulators read over the same values; merging from a
// column of another aggregate is an error.
func TestAccColumnIsTheAccumulatorPerGroup(t *testing.T) {
	v := Column("T", "v")
	aggs := []*Aggregate{
		{Func: AggCountStar}, {Func: AggCount, Arg: v}, {Func: AggSum, Arg: v}, {Func: AggAvg, Arg: v},
		{Func: AggMin, Arg: v}, {Func: AggMax, Arg: v},
		{Func: AggCount, Arg: v, Distinct: true}, {Func: AggMax, Arg: v, Distinct: true},
	}
	const groups = 3
	vals := []value.Value{value.NewInt(4), value.Null, value.NewInt(-1), value.NewFloat(2.5), value.NewInt(4), value.NewInt(9), value.Null, value.NewInt(0)}
	ids := make([]int32, len(vals))
	for i := range ids {
		ids[i] = int32(i % groups)
	}
	for _, agg := range aggs {
		col := func() AccColumn {
			c, err := NewAccColumn(agg)
			if err != nil {
				t.Fatal(err)
			}
			for g := 0; g < groups+1; g++ { // the last group stays fresh
				c.Grow()
			}
			return c
		}
		byEach, byAdd := col(), col()
		each := vals
		if agg.Func == AggCountStar {
			each = nil // COUNT(*) ignores its input
		}
		if err := byEach.AddEach(ids, each); err != nil {
			t.Fatal(err)
		}
		want := make([]Accumulator, groups+1)
		for g := range want {
			want[g], _ = NewAccumulator(agg)
		}
		for i, val := range vals {
			if err := byAdd.Add(int(ids[i]), val); err != nil {
				t.Fatal(err)
			}
			if err := want[ids[i]].Add(val); err != nil {
				t.Fatal(err)
			}
		}
		for g := range want {
			if a, b, w := byEach.Result(g), byAdd.Result(g), want[g].Result(); !sameValue(a, w) || !sameValue(b, w) {
				t.Errorf("%s group %d: AddEach %v, Add %v, accumulator %v", agg, g, a, b, w)
			}
		}
		// Group 1 of byAdd into group 0 of byEach, and into its fresh group.
		if err := want[0].Merge(want[1]); err != nil {
			t.Fatal(err)
		}
		for _, into := range []int{0, groups} {
			if err := byEach.MergeFrom(into, byAdd, 1); err != nil {
				t.Fatal(err)
			}
		}
		if got := byEach.Result(0); !sameValue(got, want[0].Result()) {
			t.Errorf("%s: merged into a used state %v, accumulators %v", agg, got, want[0].Result())
		}
		if got := byEach.Result(groups); !sameValue(got, want[1].Result()) {
			t.Errorf("%s: merged into a fresh state %v, want the state merged in, %v", agg, got, want[1].Result())
		}
		byEach.Reset(0)
		if got := byEach.Result(0); !sameValue(got, want[groups].Result()) {
			t.Errorf("%s: a reset state reads %v, a fresh accumulator %v", agg, got, want[groups].Result())
		}
		for _, other := range aggs {
			if other.Func == agg.Func && other.Distinct == agg.Distinct {
				continue
			}
			src, _ := NewAccColumn(other)
			src.Grow()
			if err := byAdd.MergeFrom(0, src, 0); err == nil {
				t.Errorf("merging a %s column into a %s column did not error", other, agg)
			}
		}
	}
}
