package exec

import (
	"context"
	"sync"
	"testing"
)

// BenchmarkGovernorTick is the layer benchmark of the per-row governance
// check: a tick on the governor of a run under a cancellable context and no
// fault injector — every source, filter, probe, projection and metered stage
// pays one per row — on one goroutine, and on two goroutines ticking one
// governor at once, as a run's workers do.
func BenchmarkGovernorTick(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := newGovernor(&Options{Context: ctx})
	defer g.detach()
	ticks := func(n int) {
		for i := 0; i < n; i++ {
			if err := g.tick(); err != nil {
				panic(err)
			}
		}
	}
	b.Run("goroutines=1", func(b *testing.B) {
		b.ReportAllocs()
		ticks(b.N)
	})
	b.Run("goroutines=2", func(b *testing.B) {
		b.ReportAllocs()
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ticks(b.N)
			}()
		}
		wg.Wait()
	})
}
