package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/value"
)

// TestForEachChunkCoverage: every index in [0, n) is visited exactly once,
// for worker counts and sizes spanning the serial path, single-chunk
// inputs, exact multiples and ragged tails.
func TestForEachChunkCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 8} {
		for _, n := range []int{0, 1, 7, 1023, 1024, 1025, 5000} {
			for _, size := range []int{1, 3, 1024} {
				var mu sync.Mutex
				visited := make([]int, n)
				err := forEachChunk("test", workers, n, size, func(worker, chunk, lo, hi int) error {
					if lo < 0 || hi > n || lo > hi {
						return fmt.Errorf("chunk %d has bad range [%d, %d)", chunk, lo, hi)
					}
					if worker < 0 || worker >= workers {
						return fmt.Errorf("chunk %d ran on out-of-range worker %d", chunk, worker)
					}
					mu.Lock()
					for i := lo; i < hi; i++ {
						visited[i]++
					}
					mu.Unlock()
					return nil
				})
				if err != nil {
					t.Fatalf("workers=%d n=%d size=%d: %v", workers, n, size, err)
				}
				for i, c := range visited {
					if c != 1 {
						t.Fatalf("workers=%d n=%d size=%d: index %d visited %d times", workers, n, size, i, c)
					}
				}
			}
		}
	}
}

// TestForEachChunkFirstError: when several chunks fail, the error of the
// LOWEST chunk index is reported — matching what a serial left-to-right
// pass would have hit first, which keeps error behavior deterministic.
func TestForEachChunkFirstError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := forEachChunk("test", workers, 10_000, 100, func(worker, chunk, lo, hi int) error {
			if chunk >= 3 {
				return fmt.Errorf("chunk %d failed", chunk)
			}
			return nil
		})
		if err == nil || err.Error() != "chunk 3 failed" {
			t.Fatalf("workers=%d: got %v, want the chunk-3 error", workers, err)
		}
	}
	if err := forEachChunk("test", 4, 0, 100, func(int, int, int, int) error {
		return errors.New("must not be called")
	}); err != nil {
		t.Fatalf("empty input: %v", err)
	}
}

// TestChunkSizeFor: one contiguous chunk per worker, covering everything.
func TestChunkSizeFor(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		for _, n := range []int{0, 1, 10, 999} {
			size := chunkSizeFor(n, workers)
			if n == 0 {
				continue
			}
			if size < 1 {
				t.Fatalf("n=%d workers=%d: size %d", n, workers, size)
			}
			if chunks := numChunks(n, size); chunks > workers {
				t.Fatalf("n=%d workers=%d: %d chunks exceed worker count", n, workers, chunks)
			}
		}
	}
}

// TestSortRowsStableMatchesSerial: the parallel merge sort must reproduce
// sort.SliceStable's permutation exactly, ties included. Keys are drawn
// from a tiny domain so duplicate keys — where stability matters — are
// everywhere, and the input is large enough to take the parallel path.
func TestSortRowsStableMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 3 * MorselSize
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(r.Intn(5))), value.NewInt(int64(i))}
	}
	less := func(a, b value.Row) bool { return a[0].Int() < b[0].Int() }

	want := make([]value.Row, n)
	copy(want, rows)
	sort.SliceStable(want, func(i, j int) bool { return less(want[i], want[j]) })

	for _, par := range []int{2, 3, 4, 8} {
		in := make([]value.Row, n)
		copy(in, rows)
		got := sortRowsStable("test", in, par, func(a, b value.Row) int { return value.OrderKey(a[0], b[0]) })
		for i := range got {
			if got[i][0].Int() != want[i][0].Int() || got[i][1].Int() != want[i][1].Int() {
				t.Fatalf("par=%d: position %d is (%d,%d), want (%d,%d)",
					par, i, got[i][0].Int(), got[i][1].Int(), want[i][0].Int(), want[i][1].Int())
			}
		}
	}
}

// TestPartitionOfRange: partition assignment stays in range and is a pure
// function of the key.
func TestPartitionOfRange(t *testing.T) {
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		p := partitionOf(key, 7)
		if p < 0 || p >= 7 {
			t.Fatalf("partitionOf(%q, 7) = %d", key, p)
		}
		if q := partitionOf(key, 7); q != p {
			t.Fatalf("partitionOf(%q, 7) unstable: %d then %d", key, p, q)
		}
	}
}

// TestEffectiveParallelism: the Options field resolves as documented.
func TestEffectiveParallelism(t *testing.T) {
	cases := []struct{ in, min int }{{0, 1}, {1, 1}, {4, 4}, {-1, 1}}
	for _, c := range cases {
		o := &Options{Parallelism: c.in}
		got := o.effectiveParallelism()
		if c.in > 1 && got != c.in {
			t.Errorf("Parallelism=%d resolved to %d", c.in, got)
		}
		if got < c.min {
			t.Errorf("Parallelism=%d resolved to %d, want >= %d", c.in, got, c.min)
		}
	}
}
