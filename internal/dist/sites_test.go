package dist_test

// Sites run at once. A partitioned fragment's per-node runs execute
// together on the executor's worker pool, over a compiled plan nothing
// writes to. These tests hold that to four things: the concurrency is real
// (shown by a rendezvous, not by a stopwatch), one compiled plan serves
// concurrent runs, the answers — rows in order, link rows and bytes,
// recovery counters — are those of the one-at-a-time loop at any
// GOMAXPROCS, and a site's panic or a cancellation is still the run's.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// withProcs runs fn at the given GOMAXPROCS, which is what sitesAtOnce
// reads, and restores the old value.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// rendezvousClock makes the first clock reading of a run wait until a
// second one arrives. The first reading of an instrumented cluster run is
// taken inside a site's fragment run (the lowest fragment is partitioned,
// and its operators read the clock as they begin); while it waits, the only
// thing that can read the clock again is another site's run on another
// goroutine. Sites that run one after another never get there.
type rendezvousClock struct {
	readings atomic.Int64
	second   chan struct{}
	patience time.Duration
	alone    atomic.Bool // the first reading gave up waiting
}

func (c *rendezvousClock) Now() time.Time {
	switch c.readings.Add(1) {
	case 1:
		select {
		case <-c.second:
		case <-time.After(c.patience):
			c.alone.Store(true)
		}
	case 2:
		close(c.second)
	}
	return time.Time{}
}

// example1Cluster compiles the Example 1 query eagerly for a four-node
// cluster over a small instance.
func example1Cluster(t *testing.T) (*storage.Store, algebra.Node, *dist.Cluster, *dist.Plan) {
	t.Helper()
	store := exampleStore(t, 400, 8)
	cl, err := dist.NewCluster(store, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan := plansFor(t, store, workload.Example1Query)[0]
	dp, err := dist.Compile(plan, dist.Config{Nodes: 4, Strategy: dist.StrategyEager})
	if err != nil {
		t.Fatal(err)
	}
	return store, plan, cl, dp
}

// TestSitesRunAtOnce: on four nodes with two or more processors a second
// site starts before the first has finished.
func TestSitesRunAtOnce(t *testing.T) {
	store, plan, cl, dp := example1Cluster(t)
	want, err := exec.Run(plan, store, &exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clock := &rendezvousClock{second: make(chan struct{}), patience: 5 * time.Second}
	withProcs(max(2, runtime.GOMAXPROCS(0)), func() {
		res, err := cl.Run(dp, &exec.Options{Metrics: obs.NewCollector(), Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(workload.Multiset(want.Rows), workload.Multiset(res.Rows)) {
			t.Error("rows diverged from the single-site answer")
		}
	})
	if clock.alone.Load() {
		t.Fatalf("the first site's run waited %v and no second site started: the sites run one after another", clock.patience)
	}
}

// failoverBurst finds a link-drop burst that makes the four-node eager
// plan fail a node over and still complete, as
// TestRecoveryFailoverProducesExactRows does, and returns a constructor for
// the run's options (that schedule and its clock) with its recovery policy.
func failoverBurst(t *testing.T, cl *dist.Cluster, dp *dist.Plan) func() (*exec.Options, *dist.Recovery) {
	t.Helper()
	horizon := probeLinkTicks(t, cl, dp, exec.Options{})
	for start := int64(1); start <= horizon; start++ {
		mk := func() (*exec.Options, *dist.Recovery) {
			events := make([]fault.Event, 4)
			for i := range events {
				events[i] = fault.Event{Tick: start + int64(i), Kind: fault.LinkDrop}
			}
			clock := obs.NewFakeClock(time.Unix(0, 0), time.Millisecond)
			opts := &exec.Options{Faults: fault.NewLinkSchedule(events).WithClock(clock), Clock: clock}
			return opts, &dist.Recovery{LinkRetries: 2, Stats: &dist.RecoveryStats{}}
		}
		opts, rec := mk()
		if _, err := cl.RunRecover(dp, opts, rec); err == nil && rec.Stats.Failovers.Load() > 0 {
			return mk
		}
	}
	t.Fatalf("no burst position in %d link ordinals produced a successful failover", horizon)
	return nil
}

// TestOnePlanManyRuns: a compiled plan is immutable while it runs. Two
// goroutines run one *dist.Plan on one cluster — one of them under a
// schedule that forces a failover, whose re-execution binds a dead node's
// inputs again — and both answer exactly what a single site answers. Under
// -race a run that wrote its inputs into the plan tree is a reported race
// (and, unsynchronized, another site's rows).
func TestOnePlanManyRuns(t *testing.T) {
	r := rand.New(rand.NewSource(0xFA11))
	store := nullKeySweep(t, r)
	const query = `SELECT F.GroupID, SUM(F.V), COUNT(*)
	 FROM Fact F, Dim D WHERE F.DimID = D.DimID
	 GROUP BY F.GroupID`
	plan := plansFor(t, store, query)[0]
	oracle, err := exec.Run(plan, store, &exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := workload.Multiset(oracle.Rows)
	cl, err := dist.NewCluster(store, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := dist.Compile(plan, dist.Config{Nodes: 4, Strategy: dist.StrategyEager})
	if err != nil {
		t.Fatal(err)
	}
	burst := failoverBurst(t, cl, dp)

	const rounds = 20
	var wg sync.WaitGroup
	check := func(who string, res *exec.Result, err error) {
		if err != nil {
			t.Errorf("%s run: %v", who, err)
		} else if got := workload.Multiset(res.Rows); !slices.Equal(want, got) {
			t.Errorf("%s run diverged from the single-site answer\ngot:  %v\nwant: %v", who, got, want)
		}
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			res, err := cl.Run(dp, &exec.Options{Metrics: obs.NewCollector()})
			check("clean", res, err)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			opts, rec := burst()
			res, err := cl.RunRecover(dp, opts, rec)
			check("failover", res, err)
			if rec.Stats.Failovers.Load() == 0 {
				t.Error("the failover run did not fail over")
			}
		}
	}()
	wg.Wait()
}

// linkCounts reads every link's rows and bytes, then the cluster total.
func linkCounts(cl *dist.Cluster) []int64 {
	var out []int64
	for src := 0; src < cl.Nodes(); src++ {
		for dst := 0; dst < cl.Nodes(); dst++ {
			out = append(out, cl.Link(src, dst).Rows(), cl.Link(src, dst).Bytes())
		}
	}
	return append(out, cl.TotalBytes())
}

// analysis reads what EXPLAIN ANALYZE prints of a run's counts: every plan
// node's rows in and out, table entries and morsels, then the governor's
// used bytes.
func analysis(dp *dist.Plan, col *obs.Collector) []int64 {
	var out []int64
	algebra.Walk(dp.Root, func(n algebra.Node) {
		if m := col.Lookup(n); m != nil {
			out = append(out, m.RowsIn.Load(), m.RowsOut.Load(), m.BuildEntries.Load(), m.Batches.Load())
		}
	})
	return append(out, col.Gov().UsedBytes)
}

// TestSitesAtOnceSameAnswers: over the oracle's query corpus, a run at
// GOMAXPROCS 4 returns the rows of the run at GOMAXPROCS 1 in the same
// order, moves the same rows and bytes over every link, records the same
// per-operator counts and used bytes — whichever site finished last — and,
// under a bounded link-fault schedule, counts the same recoveries.
func TestSitesAtOnceSameAnswers(t *testing.T) {
	targetQueries := 60
	if testing.Short() {
		targetQueries = 15
	}
	type answer struct {
		rows     []value.Row
		links    []int64
		analysis []int64
		recovery [3]int64
	}
	r := rand.New(rand.NewSource(0x517E5))
	for q := 0; q < targetQueries; q++ {
		store := nullKeySweep(t, r)
		qs := workload.Templates(r)
		query := qs[r.Intn(len(qs))].Query
		plans := plansFor(t, store, query)
		plan := plans[r.Intn(len(plans))]
		nodes := []int{2, 4, 8}[r.Intn(3)]
		strategy := []dist.Strategy{dist.StrategyAuto, dist.StrategyEager, dist.StrategyLazy}[r.Intn(3)]
		par := 1 + 3*r.Intn(2)
		dp, err := dist.Compile(plan, dist.Config{Nodes: nodes, Strategy: strategy})
		if err != nil {
			t.Fatalf("compiling %q: %v", query, err)
		}
		faultSeed, faulted := r.Int63(), r.Intn(2) == 1

		run := func(procs int) (a answer) {
			withProcs(procs, func() {
				cl, err := dist.NewCluster(store, nodes, 0)
				if err != nil {
					t.Fatal(err)
				}
				// The context gives every fragment run a governor, so used
				// bytes are accounted.
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				opts := &exec.Options{Parallelism: par, Context: ctx, Metrics: obs.NewCollector()}
				stats := &dist.RecoveryStats{}
				rec := &dist.Recovery{LinkRetries: 8, Stats: stats}
				if faulted {
					horizon := probeLinkTicks(t, cl, dp, *opts)
					clock := obs.NewFakeClock(time.Unix(0, 0), time.Millisecond)
					opts.Faults = fault.NewSeededLinkOnly(faultSeed, max(horizon, 1), 4).WithClock(clock)
					opts.Clock = clock
				}
				res, err := cl.RunRecover(dp, opts, rec)
				if err != nil {
					t.Fatalf("%q on %d nodes at GOMAXPROCS %d: %v", query, nodes, procs, err)
				}
				a = answer{res.Rows, linkCounts(cl), analysis(dp, opts.Metrics), [3]int64{stats.Retries.Load(), stats.RedeliveriesDropped.Load(), stats.Failovers.Load()}}
			})
			return a
		}
		one, four := run(1), run(4)
		if len(one.rows) != len(four.rows) {
			t.Fatalf("%q on %d nodes: %d rows at GOMAXPROCS 1, %d at 4", query, nodes, len(one.rows), len(four.rows))
		}
		if a, b := workload.Fingerprint(one.rows), workload.Fingerprint(four.rows); !slices.Equal(a, b) {
			t.Fatalf("%q on %d nodes (strategy %v): rows differ\nGOMAXPROCS 1: %v\nGOMAXPROCS 4: %v", query, nodes, strategy, a, b)
		}
		if !slices.Equal(one.links, four.links) {
			t.Fatalf("%q on %d nodes (strategy %v): link counters differ\nGOMAXPROCS 1: %v\nGOMAXPROCS 4: %v", query, nodes, strategy, one.links, four.links)
		}
		if !slices.Equal(one.analysis, four.analysis) {
			t.Fatalf("%q on %d nodes (strategy %v): per-operator counts differ\nGOMAXPROCS 1: %v\nGOMAXPROCS 4: %v", query, nodes, strategy, one.analysis, four.analysis)
		}
		if one.recovery != four.recovery {
			t.Fatalf("%q on %d nodes: recovery counters %v at GOMAXPROCS 1, %v at 4", query, nodes, one.recovery, four.recovery)
		}
	}
}

// clockFunc is a clock that runs a function per reading.
type clockFunc func()

func (f clockFunc) Now() time.Time { f(); return time.Time{} }

// TestSiteFailureIsTheRunsFailure: a panic inside one site's fragment run
// comes back as one typed *exec.ExecPanicError, a cancellation as the
// context's error, and either way no site worker outlives the run.
func TestSiteFailureIsTheRunsFailure(t *testing.T) {
	_, _, cl, dp := example1Cluster(t)
	baseline := runtime.NumGoroutine()
	withProcs(max(2, runtime.GOMAXPROCS(0)), func() {
		var readings atomic.Int64
		_, err := cl.Run(dp, &exec.Options{Metrics: obs.NewCollector(), Clock: clockFunc(func() {
			if readings.Add(1) == 3 {
				panic("third reading")
			}
		})})
		var pe *exec.ExecPanicError
		if !errors.As(err, &pe) {
			t.Errorf("a site's panic surfaced as %T (%v), want *exec.ExecPanicError", err, err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		readings.Store(0)
		_, err = cl.Run(dp, &exec.Options{Context: ctx, Metrics: obs.NewCollector(), Clock: clockFunc(func() {
			if readings.Add(1) == 3 {
				cancel()
			}
		})})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("a run cancelled inside a site returned %v, want context.Canceled", err)
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("site workers outlived their runs: %d goroutines before, %d after", baseline, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
