package exec

import (
	"errors"
	"fmt"
	"hash/fnv"
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

// TestSortRowsStableMatchesSerial: the sort kernel — serial and parallel
// merge — must reproduce sort.SliceStable's permutation exactly, ties included. Keys are drawn
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

	for _, par := range []int{1, 2, 3, 4, 8} {
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

// BenchmarkSortRowsStable is the sort layer on its own: 48 000 rows with
// 1 000 distinct keys (six-way ties, so stability is exercised), on an int
// key and on a string-then-int key, at one worker and at two.
func BenchmarkSortRowsStable(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	rows := make([]value.Row, 48000)
	for i := range rows {
		k := int64(r.Intn(1000))
		rows[i] = value.Row{value.NewInt(k), value.NewString(fmt.Sprintf("dim%05d", k/8)), value.NewInt(int64(i))}
	}
	for _, key := range []struct {
		name string
		cols []int
	}{{"int", []int{0}}, {"string+int", []int{1, 0}}} {
		cmp := func(a, b value.Row) int { return compareAt(a, key.cols, b, key.cols) }
		for _, par := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/par%d", key.name, par), func(b *testing.B) {
				b.ReportAllocs()
				in := make([]value.Row, len(rows))
				for i := 0; i < b.N; i++ {
					copy(in, rows)
					sortRowsStable("bench", in, par, cmp)
				}
			})
		}
	}
}

// TestPartitionOfRange: partition assignment stays in range and is the
// FNV-32a hash of the key bytes, as hash/fnv computes it — the inlined loop
// moves no key to another partition.
func TestPartitionOfRange(t *testing.T) {
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		p := partitionOf(key, 7)
		if p < 0 || p >= 7 {
			t.Fatalf("partitionOf(%q, 7) = %d", key, p)
		}
		h := fnv.New32a()
		h.Write(key)
		if want := int(h.Sum32() % 7); p != want {
			t.Fatalf("partitionOf(%q, 7) = %d, hash/fnv says %d", key, p, want)
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
