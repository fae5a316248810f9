package gbj

// Engine-level fault-tolerance tests: the public Config.LinkRetries /
// Config.Faults / RecoveryCounters surface, retried distributed queries
// returning exactly the local rows, graceful distributed→local degradation
// when the cluster is unavailable, and the golden EXPLAIN ANALYZE output
// showing the recovery counters under the fake clock.

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// recoveryExample builds a two-node Example 1 engine with link traffic and
// returns it along with the local-run oracle rows.
func recoveryExample(t *testing.T) (*Engine, []string) {
	t.Helper()
	e := example1Engine(t, 200, 8)
	local, err := e.QueryOptionsContext(context.Background(), example1Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalRows(local)
	reconfigure(t, e, func(c *Config) {
		c.Nodes = 2
		c.DistStrategy = DistEager
	})
	return e, want
}

// TestEngineRetriedQueryMatchesLocal: link drops inside the retry budget
// are invisible in the rows — the distributed result still equals the
// local oracle — and visible in the engine-lifetime recovery counters.
func TestEngineRetriedQueryMatchesLocal(t *testing.T) {
	e, want := recoveryExample(t)
	reconfigure(t, e, func(c *Config) { c.LinkRetries = 3 })

	// Probe the fault-free run to confirm the plan ships at all.
	probe := fault.New(nil)
	reconfigure(t, e, func(c *Config) { c.Faults = probe })
	res, err := e.QueryOptionsContext(context.Background(), example1Query, nil)
	if err != nil {
		t.Fatalf("fault-free distributed run: %v", err)
	}
	if !slices.Equal(want, canonicalRows(res)) {
		t.Fatal("fault-free distributed run diverged from local")
	}
	if probe.LinkTicks() == 0 {
		t.Fatal("two-node eager plan consumed no link ticks; nothing to fault")
	}

	// Two drops on the first shipment's first two attempts: budget 3
	// absorbs them.
	drops := fault.NewLinkSchedule([]fault.Event{
		{Tick: 1, Kind: fault.LinkDrop},
		{Tick: 2, Kind: fault.LinkDrop},
	}).WithClock(obs.NewFakeClock(time.Unix(0, 0), time.Millisecond))
	reconfigure(t, e, func(c *Config) { c.Faults = drops })
	res, err = e.QueryOptionsContext(context.Background(), example1Query, nil)
	if err != nil {
		t.Fatalf("bounded drops inside the retry budget failed the query: %v", err)
	}
	if !slices.Equal(want, canonicalRows(res)) {
		t.Fatal("retried distributed run diverged from the local oracle")
	}
	if rc := e.RecoveryCounters(); rc.Retries == 0 {
		t.Fatalf("two scheduled drops left the retry counter at zero: %+v", rc)
	}
	reconfigure(t, e, func(c *Config) { c.Faults = nil })
}

// TestEngineDegradesToLocal: with retries disabled and a drop storm on the
// links, the distributed run is unavailable — and the engine transparently
// re-runs the query locally, counts the degradation, and still returns the
// oracle rows.
func TestEngineDegradesToLocal(t *testing.T) {
	e, want := recoveryExample(t)
	reconfigure(t, e, func(c *Config) { c.LinkRetries = 0 })
	storm := make([]fault.Event, 64)
	for i := range storm {
		storm[i] = fault.Event{Tick: int64(i + 1), Kind: fault.LinkDrop}
	}
	reconfigure(t, e, func(c *Config) { c.Faults = fault.NewLinkSchedule(storm) })
	fallbacksBefore := e.Fallbacks()

	res, err := e.QueryOptionsContext(context.Background(), example1Query, nil)
	if err != nil {
		t.Fatalf("query failed instead of degrading to local execution: %v", err)
	}
	if !slices.Equal(want, canonicalRows(res)) {
		t.Fatal("degraded run diverged from the local oracle")
	}
	rc := e.RecoveryCounters()
	if rc.Degraded == 0 {
		t.Fatalf("degradation not counted: %+v", rc)
	}
	if e.Fallbacks() <= fallbacksBefore {
		t.Fatalf("Fallbacks() did not advance on degradation: %d -> %d", fallbacksBefore, e.Fallbacks())
	}
	reconfigure(t, e, func(c *Config) { c.Faults = nil })
}

// TestEngineDegradedAnalyzeExplains: the same degradation through
// QueryAnalyzedContext — the analysis must describe the local re-run and carry
// the degradation line, so EXPLAIN ANALYZE never silently hides that the
// cluster was abandoned.
func TestEngineDegradedAnalyzeExplains(t *testing.T) {
	e, want := recoveryExample(t)
	reconfigure(t, e, func(c *Config) { c.LinkRetries = 0 })
	storm := make([]fault.Event, 64)
	for i := range storm {
		storm[i] = fault.Event{Tick: int64(i + 1), Kind: fault.LinkDrop}
	}
	reconfigure(t, e, func(c *Config) { c.Faults = fault.NewLinkSchedule(storm) })

	a, err := e.QueryAnalyzedContext(context.Background(), example1Query, nil)
	if err != nil {
		t.Fatalf("analyze failed instead of degrading: %v", err)
	}
	if !slices.Equal(want, canonicalRows(a.Result)) {
		t.Fatal("degraded analyze rows diverged from the local oracle")
	}
	out := a.String()
	if !strings.Contains(out, "degraded:") || !strings.Contains(out, "cluster unavailable") {
		t.Fatalf("EXPLAIN ANALYZE of a degraded run does not explain the degradation:\n%s", out)
	}
	if !a.Governance.Degraded {
		t.Fatal("analysis governance does not record the degradation")
	}
	reconfigure(t, e, func(c *Config) { c.Faults = nil })
}

// TestExplainAnalyzeGoldenRecovery pins the byte-exact EXPLAIN ANALYZE of
// a retried distributed query under the fake clock: the per-exchange
// retries= annotation and the "link retries:" governance line must render
// identically on every host.
func TestExplainAnalyzeGoldenRecovery(t *testing.T) {
	e := newExample1Engine(t)
	mustConfigure(t, e, Config{
		Mode:         ModeAlways,
		Nodes:        2,
		DistStrategy: DistEager,
		LinkRetries:  2,
		Faults: fault.NewLinkSchedule([]fault.Event{
			{Tick: 1, Kind: fault.LinkDrop},
			{Tick: 2, Kind: fault.LinkDrop},
		}).WithClock(obs.NewFakeClock(time.Unix(0, 0), time.Millisecond)),
	})
	analyzeGolden(t, e, "analyze_recovery", example1Query)
}
