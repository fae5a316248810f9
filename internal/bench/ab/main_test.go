package main

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", v, c.q, got, c.want)
		}
	}
	if v[0] != 4 {
		t.Errorf("quantile sorted its input in place: %v", v)
	}
}

// The A/A band is the spread of a ratio of medians between groups of the A/A
// runs: a ratio of medians inside it is within A/A, one past it is not.
func TestCompareBand(t *testing.T) {
	runs := func(vs ...float64) []map[string]float64 {
		out := make([]map[string]float64, len(vs))
		for i, v := range vs {
			out[i] = map[string]float64{"ms": v}
		}
		return out
	}
	m := metric{Name: "ms", Better: "lower"}
	a1, a2 := runs(10, 11, 9, 10.5, 9.5), runs(10.5, 9, 10, 11, 9.5)
	lo, hi := band([]float64{10, 11, 9, 10.5, 9.5}, []float64{10.5, 9, 10, 11, 9.5})
	if lo >= 1 || hi <= 1 {
		t.Fatalf("the band of two samples of one spread is [%.4f, %.4f], not about 1", lo, hi)
	}
	for _, c := range []struct {
		change []map[string]float64
		want   string
	}{
		{runs(10, 10.5, 9.5, 10, 10), "within A/A"},
		{runs(5, 6, 5.5, 6, 5), "outside A/A"},
	} {
		got := compare(m, a1, a2, runs(10, 11, 9, 10.5, 9.5), c.change)
		if !strings.HasSuffix(got, fmt.Sprintf("[%.4f, %.4f] %s", lo, hi, c.want)) {
			t.Errorf("compare = %q, want it to end [%.4f, %.4f] %s", got, lo, hi, c.want)
		}
	}
}

// The band is of a ratio of medians, so more runs of the same spread narrow
// it; a band of every ratio between single runs would widen instead. At
// three runs a side it reaches from the second smallest run over the second
// largest to the inverse.
func TestBandNarrowsWithRuns(t *testing.T) {
	spread := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 8 + 4*float64(i)/float64(n-1)
		}
		return v
	}
	few, many := spread(5), spread(41)
	flo, fhi := band(few, few)
	mlo, mhi := band(many, many)
	if mhi-mlo >= fhi-flo {
		t.Errorf("band over 41 runs [%.4f, %.4f] is no narrower than over 5 [%.4f, %.4f]", mlo, mhi, flo, fhi)
	}
	if lo, hi := band([]float64{1, 2, 3}, []float64{4, 5, 6}); math.Abs(lo-2.0/5) > 1e-9 || math.Abs(hi-5.0/2) > 1e-9 {
		t.Errorf("band of three runs a side is [%v, %v], want [2/5, 5/2]", lo, hi)
	}
	if lo, hi := band([]float64{3, 3}, []float64{3, 3, 3}); lo != 1 || hi != 1 {
		t.Errorf("band of constant runs is [%v, %v], want [1, 1]", lo, hi)
	}
}

// BASE's two sides build one export; the change is the work tree by default
// and an export of its own when CHANGE names a revision.
func TestSides(t *testing.T) {
	tmp := filepath.Join("t", "bench-ab")
	work := sides(tmp, "")
	if work["A"] != work["A2"] || work["A"] == "." || work["B"] != "." {
		t.Errorf("without a change the sides are %v, want BASE's export twice and the work tree", work)
	}
	rev := sides(tmp, "c4d5a98")
	if rev["A"] != work["A"] || rev["A2"] != work["A"] || rev["B"] == "." || rev["B"] == rev["A"] || filepath.Dir(rev["B"]) != tmp {
		t.Errorf("with a change the sides are %v, want BASE's export twice and a second export under %s", rev, tmp)
	}
}
