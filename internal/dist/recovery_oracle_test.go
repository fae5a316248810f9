package dist_test

// Targeted recovery assertions beside the oracle matrix's recovery cells
// (internal/plancheck/modelcheck), which hold every *bounded* schedule (at
// most LinkRetries link faults) to exactly the rows a fault-free run
// produces: an exhausting schedule must surface a typed
// *dist.UnavailableError; the receiver-side shipment dedup must be
// load-bearing (disabling it through the seeded-bug hook must corrupt
// aggregates against the local run's rows); and a burst of drops must fail a
// node over and still return the local run's rows.
//
// Fault schedules here are keyed to link ordinals (fault.NewSeededLinkOnly,
// fault.NewLinkSchedule), so row-path executor traffic cannot absorb the
// scheduled events; every event lands on a real shipment tick. All backoff
// time is virtual (obs.FakeClock): the whole suite performs zero real
// sleeps no matter how many retries it provokes.

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/plancheck/modelcheck"
	"repro/internal/storage"
	"repro/internal/workload"
)

// probeLinkTicks runs the compiled plan with an inert injector and returns
// how many link ticks the run consumes — the horizon seeded schedules are
// drawn from, so every event lands inside the run.
func probeLinkTicks(t *testing.T, cl *dist.Cluster, dp *dist.Plan, opts exec.Options) int64 {
	t.Helper()
	probe := fault.New(nil)
	opts.Faults = probe
	if _, err := cl.Run(dp, &opts); err != nil {
		t.Fatalf("fault-free probe run failed: %v", err)
	}
	return probe.LinkTicks()
}

// TestRecoveryExhaustedBudgetIsTyped: an exhausting schedule — more drops
// than any retry budget, failover disabled — must not hang, corrupt or
// return partial rows: each run either still matches the oracle (the
// drops hit delays or already-acked ticks) or fails with the typed
// *dist.UnavailableError the engine degrades on. The sweep must actually
// provoke at least one such failure, or the assertion is vacuous.
func TestRecoveryExhaustedBudgetIsTyped(t *testing.T) {
	r := rand.New(rand.NewSource(0xE0F))
	sawUnavailable := false
	for trial := 0; trial < 60 && !sawUnavailable; trial++ {
		store := nullKeySweep(t, r)
		qs := workload.Templates(r)
		query := qs[r.Intn(len(qs))].Query
		plan := plansFor(t, store, query)[0]

		oracleRes, err := exec.Run(plan, store, &exec.Options{})
		if err != nil {
			t.Fatalf("local run for %q: %v", query, err)
		}
		want := workload.Multiset(oracleRes.Rows)

		nodes := []int{2, 4}[r.Intn(2)]
		cl, err := dist.NewCluster(store, nodes, 0)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := dist.Compile(plan, dist.Config{Nodes: nodes, Strategy: dist.StrategyEager})
		if err != nil {
			t.Fatal(err)
		}
		horizon := probeLinkTicks(t, cl, dp, exec.Options{})
		if horizon == 0 {
			continue
		}

		clock := obs.NewFakeClock(time.Unix(0, 0), time.Millisecond)
		inj := fault.NewSeededLinkOnly(r.Int63(), horizon, 8).WithClock(clock)
		rec := &dist.Recovery{LinkRetries: 0, FailThreshold: -1, Clock: clock}
		res, err := cl.RunRecover(dp, &exec.Options{Faults: inj}, rec)
		switch {
		case err == nil:
			if got := workload.Multiset(res.Rows); !slices.Equal(want, got) {
				t.Fatalf("exhausting schedule corrupted rows without an error\nquery: %s\nschedule: %v", query, inj.Events())
			}
		default:
			var ue *dist.UnavailableError
			if !errors.As(err, &ue) {
				t.Fatalf("exhausted budget surfaced an untyped error\nquery: %s\nschedule: %v\nerr (%T): %v",
					query, inj.Events(), err, err)
			}
			if res != nil {
				t.Fatalf("failed run returned a partial result for %q", query)
			}
			if ue.Attempts < 1 {
				t.Fatalf("UnavailableError reports %d attempts", ue.Attempts)
			}
			sawUnavailable = true
		}
	}
	if !sawUnavailable {
		t.Fatal("60 exhausting schedules never produced an UnavailableError — the sweep is vacuous")
	}
}

// TestRecoverySkipShipmentDedupCorrupts is the seeded-bug regression named
// after its hook (dist.TestHooks.SkipShipmentDedup): it proves the
// receiver-side dedup is load-bearing. A LinkDrop on a shipment's ack tick
// makes the sender retry a payload the receiver already merged; with dedup
// on, the redelivery is dropped and the rows match the oracle — with the
// hook disabling dedup, the same schedule double-merges an eagerly
// pre-aggregated shipment and the aggregates diverge.
func TestRecoverySkipShipmentDedupCorrupts(t *testing.T) {
	r := rand.New(rand.NewSource(0xDED0))
	store := nullKeySweep(t, r)
	const query = `SELECT D.DimID, D.Label, COUNT(F.FID), SUM(F.V)
	 FROM Fact F, Dim D WHERE F.DimID = D.DimID
	 GROUP BY D.DimID, D.Label`
	plan := plansFor(t, store, query)[0]

	oracleRes, err := exec.Run(plan, store, &exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := workload.Multiset(oracleRes.Rows)

	cl, err := dist.NewCluster(store, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := dist.Compile(plan, dist.Config{Nodes: 2, Strategy: dist.StrategyEager})
	if err != nil {
		t.Fatal(err)
	}
	horizon := probeLinkTicks(t, cl, dp, exec.Options{})
	if horizon == 0 {
		t.Fatal("eager two-node plan shipped nothing; the regression needs link traffic")
	}

	runWithDropAt := func(tick int64) ([]string, *dist.RecoveryStats) {
		clock := obs.NewFakeClock(time.Unix(0, 0), time.Millisecond)
		inj := fault.NewLinkSchedule([]fault.Event{{Tick: tick, Kind: fault.LinkDrop}}).WithClock(clock)
		stats := &dist.RecoveryStats{}
		rec := &dist.Recovery{LinkRetries: 2, Clock: clock, Stats: stats}
		res, err := cl.RunRecover(dp, &exec.Options{Faults: inj}, rec)
		if err != nil {
			t.Fatalf("single bounded drop at link ordinal %d failed the run: %v", tick, err)
		}
		return workload.Multiset(res.Rows), stats
	}

	// Sweep every link ordinal for ack-tick drops: the runs where the
	// receiver deduplicated a redelivery. Each such run must still match
	// the oracle.
	var ackTicks []int64
	for tick := int64(1); tick <= horizon; tick++ {
		got, stats := runWithDropAt(tick)
		if !slices.Equal(want, got) {
			t.Fatalf("dedup failed: drop at link ordinal %d diverged from the oracle\ngot: %v\nwant: %v", tick, got, want)
		}
		if stats.RedeliveriesDropped.Load() > 0 {
			ackTicks = append(ackTicks, tick)
		}
	}
	if len(ackTicks) == 0 {
		t.Fatalf("no drop in %d link ordinals provoked a redelivery — the sweep never exercised the dedup", horizon)
	}

	// Same schedules, dedup disabled: the double-merge must corrupt at
	// least one result. This is the divergence the recovery oracle exists
	// to catch.
	dist.TestHooks.SkipShipmentDedup = true
	defer func() { dist.TestHooks.SkipShipmentDedup = false }()
	corrupted := 0
	for _, tick := range ackTicks {
		if got, _ := runWithDropAt(tick); !slices.Equal(want, got) {
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatalf("SkipShipmentDedup left all %d ack-drop schedules oracle-identical — the dedup is not load-bearing", len(ackTicks))
	}
	t.Logf("dedup regression: %d link ordinals, %d ack-tick redeliveries, %d corrupted without dedup",
		horizon, len(ackTicks), corrupted)
}

// TestRecoveryFailoverProducesExactRows: a burst of consecutive link drops
// exhausts a node's retry budget, the circuit breaker declares it dead,
// ownership moves to a survivor, the plancheck dist-recovery rule vets the
// new ownership table — and the produced rows are still exactly the
// oracle's. The burst position is swept so at least one run demonstrably
// fails over and completes.
func TestRecoveryFailoverProducesExactRows(t *testing.T) {
	r := rand.New(rand.NewSource(0xFA11))
	store := nullKeySweep(t, r)
	const query = `SELECT F.GroupID, SUM(F.V), COUNT(*)
	 FROM Fact F, Dim D WHERE F.DimID = D.DimID
	 GROUP BY F.GroupID`
	plan := plansFor(t, store, query)[0]

	oracleRes, err := exec.Run(plan, store, &exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := workload.Multiset(oracleRes.Rows)

	cl, err := dist.NewCluster(store, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := dist.Compile(plan, dist.Config{Nodes: 4, Strategy: dist.StrategyEager})
	if err != nil {
		t.Fatal(err)
	}
	horizon := probeLinkTicks(t, cl, dp, exec.Options{})
	if horizon == 0 {
		t.Fatal("four-node eager plan shipped nothing")
	}

	const burst = 4
	recovered := false
	for start := int64(1); start <= horizon && !recovered; start++ {
		events := make([]fault.Event, burst)
		for i := range events {
			events[i] = fault.Event{Tick: start + int64(i), Kind: fault.LinkDrop}
		}
		clock := obs.NewFakeClock(time.Unix(0, 0), time.Millisecond)
		inj := fault.NewLinkSchedule(events).WithClock(clock)
		stats := &dist.RecoveryStats{}
		rec := &dist.Recovery{
			LinkRetries:   1,
			FailThreshold: 2,
			Clock:         clock,
			Verify:        modelcheck.RecoveryVerify,
			Stats:         stats,
		}
		res, err := cl.RunRecover(dp, &exec.Options{Faults: inj}, rec)
		if err != nil {
			// The burst hit the coordinator's link or cascaded past every
			// survivor: a typed failure is the documented outcome there.
			var ue *dist.UnavailableError
			if !errors.As(err, &ue) {
				t.Fatalf("failover burst at ordinal %d surfaced an untyped error (%T): %v", start, err, err)
			}
			continue
		}
		if got := workload.Multiset(res.Rows); !slices.Equal(want, got) {
			t.Fatalf("post-failover rows diverged (burst at ordinal %d, %d failovers)\ngot: %v\nwant: %v",
				start, stats.Failovers.Load(), got, want)
		}
		if stats.Failovers.Load() > 0 {
			recovered = true
			t.Logf("burst at ordinal %d: %d failover(s), %d retries, rows identical",
				start, stats.Failovers.Load(), stats.Retries.Load())
		}
	}
	if !recovered {
		t.Fatalf("no burst position in %d link ordinals produced a successful failover", horizon)
	}
}

// nullKeySweep draws a random NULL-key sweep store from the oracle corpus.
func nullKeySweep(t *testing.T, r *rand.Rand) *storage.Store {
	t.Helper()
	store, err := workload.NullKeySweep(r)
	if err != nil {
		t.Fatal(err)
	}
	return store
}
