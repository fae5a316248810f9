package obs_test

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestFakeClockDeterministic(t *testing.T) {
	start := time.Unix(1000, 0)
	c := obs.NewFakeClock(start, time.Millisecond)
	for i := 1; i <= 5; i++ {
		got := c.Now()
		want := start.Add(time.Duration(i) * time.Millisecond)
		if !got.Equal(want) {
			t.Fatalf("Now call %d = %v, want %v", i, got, want)
		}
	}
	c.Set(start)
	if got := c.Now(); !got.Equal(start.Add(time.Millisecond)) {
		t.Fatalf("after Set, Now = %v", got)
	}
}

func TestWallClockMonotone(t *testing.T) {
	a := obs.Wall.Now()
	b := obs.Wall.Now()
	if b.Before(a) {
		t.Fatalf("wall clock went backwards: %v then %v", a, b)
	}
}

func TestCollectorNodeAndOrder(t *testing.T) {
	c := obs.NewCollector()
	c.SetWorkers(3)
	a := c.Node("a")
	b := c.Node("b")
	if c.Node("a") != a {
		t.Fatal("Node is not idempotent")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if c.Lookup("missing") != nil {
		t.Fatal("Lookup invented an entry")
	}
	a.RowsOut.Add(7)
	b.RowsOut.Add(9)
	a.Morsel(0)
	a.Morsel(2)
	a.Morsel(2)
	a.Morsel(99) // out of range: counted as a batch, not per-worker
	var order []string
	c.Each(func(id any, m *obs.OpMetrics) {
		order = append(order, id.(string))
	})
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("Each order = %v, want [a b]", order)
	}
	s := a.Snapshot()
	if s.RowsOut != 7 || s.Batches != 4 {
		t.Fatalf("snapshot = %+v", s)
	}
	if w := s.WorkerMorsels; len(w) != 3 || w[0] != 1 || w[1] != 0 || w[2] != 2 {
		t.Fatalf("worker morsels = %v", w)
	}
}

// TestConcurrentMetricAggregation hammers one OpMetrics and one Collector
// from many goroutines; under -race this proves the counters and the
// registration path are data-race-free (the satellite requirement for
// cross-worker metric aggregation).
func TestConcurrentMetricAggregation(t *testing.T) {
	c := obs.NewCollector()
	c.SetWorkers(8)
	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			m := c.Node("shared") // racy registration path on purpose
			for i := 0; i < perG; i++ {
				m.RowsOut.Add(1)
				m.ProbeHits.Add(2)
				m.StateBytes.Add(3)
				m.Morsel(worker)
			}
			c.Node(worker) // distinct keys too
		}(g)
	}
	wg.Wait()
	s := c.Node("shared").Snapshot()
	if s.RowsOut != goroutines*perG {
		t.Fatalf("RowsOut = %d, want %d", s.RowsOut, goroutines*perG)
	}
	if s.ProbeHits != 2*goroutines*perG || s.StateBytes != 3*goroutines*perG {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Batches != goroutines*perG {
		t.Fatalf("Batches = %d", s.Batches)
	}
	total := int64(0)
	for _, w := range s.WorkerMorsels {
		total += w
	}
	if total != goroutines*perG {
		t.Fatalf("worker morsels sum = %d", total)
	}
	if c.Len() != 1+goroutines {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestTracerJSONDeterministic(t *testing.T) {
	clock := obs.NewFakeClock(time.Unix(0, 0), time.Millisecond)
	tr := obs.NewTracer(clock)
	root := tr.Root("Sort")
	child := root.Child("GroupBy")
	leaf := child.Child("Scan Employee")
	orphan := root.Child("never-opened")
	_ = orphan

	root.Begin()
	child.Begin()
	leaf.Begin()
	leaf.End()
	child.End()
	root.End()

	if d := leaf.Duration(); d != time.Millisecond {
		t.Fatalf("leaf duration = %v, want 1ms", d)
	}
	if d := root.Duration(); d != 5*time.Millisecond {
		t.Fatalf("root duration = %v, want 5ms", d)
	}

	b, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var spans []struct {
		Name         string `json:"name"`
		DurationNs   int64  `json:"duration_ns"`
		NeverStarted bool   `json:"never_started"`
		Children     []struct {
			Name     string `json:"name"`
			Children []struct {
				Name       string `json:"name"`
				DurationNs int64  `json:"duration_ns"`
			} `json:"children"`
		} `json:"children"`
	}
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, b)
	}
	if len(spans) != 1 || spans[0].Name != "Sort" || spans[0].DurationNs != (5*time.Millisecond).Nanoseconds() {
		t.Fatalf("root span wrong: %s", b)
	}
	if len(spans[0].Children) != 2 || spans[0].Children[0].Name != "GroupBy" {
		t.Fatalf("children wrong: %s", b)
	}
	grand := spans[0].Children[0].Children
	if len(grand) != 1 || grand[0].Name != "Scan Employee" || grand[0].DurationNs != time.Millisecond.Nanoseconds() {
		t.Fatalf("grandchild wrong: %s", b)
	}

	// Same structure again with a fresh clock must serialize identically.
	clock2 := obs.NewFakeClock(time.Unix(0, 0), time.Millisecond)
	tr2 := obs.NewTracer(clock2)
	r2 := tr2.Root("Sort")
	c2 := r2.Child("GroupBy")
	l2 := c2.Child("Scan Employee")
	r2.Child("never-opened")
	r2.Begin()
	c2.Begin()
	l2.Begin()
	l2.End()
	c2.End()
	r2.End()
	b2, err := tr2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("trace JSON not deterministic:\n%s\nvs\n%s", b, b2)
	}
}

// TestGovernanceKeepsTheLargestReport: a cluster query reports used and
// spilled bytes once per fragment run, in whatever order the sites finish;
// the collector keeps the largest — the per-site high-water mark.
func TestGovernanceKeepsTheLargestReport(t *testing.T) {
	c := obs.NewCollector()
	for _, b := range []int64{40, 900, 12, 0} {
		c.SetBudgetUsed(b)
		c.SetSpilled(b / 2)
	}
	if g := c.Gov(); g.UsedBytes != 900 || g.SpillBytes != 450 {
		t.Fatalf("used=%d spilled=%d after reports 40, 900, 12, 0 — want the largest, 900 and 450", g.UsedBytes, g.SpillBytes)
	}
}

// TestFillRowsIn: a node's input is the sum of its children's outputs,
// derived for every registered node below the root in one call.
func TestFillRowsIn(t *testing.T) {
	children := map[string][]string{"join": {"left", "right"}, "left": {"scan"}}
	c := obs.NewCollector()
	for id, out := range map[string]int64{"join": 5, "left": 7, "right": 3, "scan": 20} {
		c.Node(id).RowsOut.Store(out)
	}
	c.Node("join").RowsIn.Store(99) // a stale partial sum is overwritten
	obs.FillRowsIn(c, "join", func(id string) []string { return children[id] })
	for id, want := range map[string]int64{"join": 10, "left": 20, "right": 0, "scan": 0} {
		if got := c.Lookup(id).RowsIn.Load(); got != want {
			t.Errorf("%s: RowsIn %d, want %d", id, got, want)
		}
	}
}
