package dist

import (
	"runtime"
	"testing"

	"repro/internal/exec"
	"repro/internal/fault"
)

// TestSitesAtOnceRule pins the one rule: a Serial run, a memory budget and a
// fault injector each put the sites one after another, and nothing else
// does — not the fragments' worker count, not the other Recovery fields,
// not a collector or a context.
func TestSitesAtOnceRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cases := []struct {
		name  string
		nodes int
		opts  exec.Options
		rec   *Recovery
		want  int
	}{
		{"plain", 4, exec.Options{}, nil, 4},
		{"fewer nodes than processors", 2, exec.Options{}, nil, 2},
		{"more nodes than processors", 8, exec.Options{}, nil, 4},
		{"parallel fragments", 4, exec.Options{Parallelism: 4}, nil, 4},
		{"one-worker fragments", 4, exec.Options{Parallelism: 1}, nil, 4},
		{"vectorized fragments", 4, exec.Options{Vectorize: true}, nil, 4},
		{"recovery policy", 4, exec.Options{}, &Recovery{LinkRetries: 3, Stats: &RecoveryStats{}}, 4},
		{"serial", 4, exec.Options{}, &Recovery{Serial: true}, 1},
		{"memory budget", 4, exec.Options{MemoryBudget: 1 << 20}, nil, 1},
		{"fault injector", 4, exec.Options{Faults: fault.New(nil)}, nil, 1},
	}
	for _, c := range cases {
		if got := sitesAtOnce(c.nodes, &c.opts, c.rec); got != c.want {
			t.Errorf("%s: %d sites at once, want %d", c.name, got, c.want)
		}
	}
	runtime.GOMAXPROCS(1)
	if got := sitesAtOnce(4, &exec.Options{}, nil); got != 1 {
		t.Errorf("one processor: %d sites at once, want 1", got)
	}
}
