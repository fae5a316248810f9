package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer, and the value is one outlier, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples and the sample count. ok is false — the caller prints null —
// when fewer than minBeyond samples lie beyond the percentile. samples need
// not be sorted and is not modified.
func percentile(samples []float64, p float64) (v float64, n int, ok bool) {
	n = len(samples)
	if n == 0 {
		return 0, 0, false
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n, n-rank >= minBeyond
}

// median returns the nearest-rank median of however many samples there
// are, 0 for none: for per-layer spans, where a small sample is still the
// best estimate available.
func median(samples []float64) float64 {
	v, _, _ := percentile(samples, 50)
	return v
}

// mean returns the arithmetic mean, 0 for no samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	return sum / float64(len(samples))
}
