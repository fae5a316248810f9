package dist

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/value"
)

// TestResolveRecoveryDefaults pins the policy normalization: nil disables
// fault tolerance outright (no retries, breaker off), and a zero-valued
// policy picks up the documented defaults.
func TestResolveRecoveryDefaults(t *testing.T) {
	off := resolveRecovery(nil)
	if off.LinkRetries != 0 || off.FailThreshold != -1 {
		t.Fatalf("nil policy resolved to %+v, want fail-fast with failover disabled", off)
	}

	def := resolveRecovery(&Recovery{})
	if def.LinkRetries != 0 {
		t.Errorf("zero LinkRetries resolved to %d, want 0", def.LinkRetries)
	}
	if def.FailThreshold != 3 {
		t.Errorf("FailThreshold default = %d, want 3", def.FailThreshold)
	}
	if def.Clock == nil {
		t.Error("Clock default is nil, want obs.Wall")
	}

	neg := resolveRecovery(&Recovery{LinkRetries: -5, FailThreshold: -1})
	if neg.LinkRetries != 0 {
		t.Errorf("negative LinkRetries resolved to %d, want 0", neg.LinkRetries)
	}
	if neg.FailThreshold != -1 {
		t.Errorf("negative FailThreshold resolved to %d, want -1 (failover off)", neg.FailThreshold)
	}
}

// TestBackoffSchedule pins the retry wait computation: deterministic for a
// given (tag, attempt), 1ms doubling per attempt up to a 50ms cap, with
// jitter strictly below 1ms.
func TestBackoffSchedule(t *testing.T) {
	tag := ShipTag{Seq: 7, Epoch: 1}

	for attempt := 1; attempt <= 10; attempt++ {
		a, b := backoff(tag, attempt), backoff(tag, attempt)
		if a != b {
			t.Fatalf("attempt %d: backoff is not deterministic: %v vs %v", attempt, a, b)
		}
		exp := min(time.Millisecond<<(attempt-1), 50*time.Millisecond)
		if a < exp || a >= exp+time.Millisecond {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, a, exp, exp+time.Millisecond)
		}
	}

	// Distinct tags get distinct jitter (the point of seeding by tag): with
	// 64 shipments at attempt 1 at least two waits should differ.
	seen := map[time.Duration]bool{}
	for seq := int64(0); seq < 64; seq++ {
		seen[backoff(ShipTag{Seq: seq}, 1)] = true
	}
	if len(seen) < 2 {
		t.Error("jitter is constant across shipment tags")
	}
}

// TestWaitBackoffHonorsDeadline: accumulated virtual backoff time must
// surface context.DeadlineExceeded without any real sleeping — the run's
// wall time stays near zero even as virtual waits pile past the deadline.
func TestWaitBackoffHonorsDeadline(t *testing.T) {
	clock := obs.NewFakeClock(time.Unix(0, 0), time.Millisecond)
	ctx, cancel := context.WithDeadline(context.Background(), clock.Now().Add(5*time.Millisecond))
	defer cancel()
	r := &runner{
		opts: &exec.Options{Context: ctx},
		rec:  resolveRecovery(&Recovery{LinkRetries: 100, Clock: clock}),
	}
	start := time.Now()
	var err error
	attempts := 0
	for err == nil && attempts < 100 {
		attempts++
		err = r.waitBackoff(ShipTag{Seq: 1}, attempts)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("100 backoffs against a 5ms deadline: got %v, want context.DeadlineExceeded", err)
	}
	if attempts >= 100 {
		t.Fatal("deadline never tripped")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("backoff slept for real (%v); waits must be virtual", elapsed)
	}
}

// TestFailOverGuards pins the circuit breaker's refusal cases: disabled
// policy, the coordinator, and a node still under the failure threshold
// all stay alive.
func TestFailOverGuards(t *testing.T) {
	mkRunner := func(threshold int) *runner {
		return &runner{
			cl:     &Cluster{nodes: make([]*Node, 4)},
			plan:   &Plan{},
			rec:    resolveRecovery(&Recovery{FailThreshold: threshold}),
			health: newHealth(4),
		}
	}

	r := mkRunner(-1)
	r.health.consec[2] = 100
	if _, ok, _ := r.failOver(nil, 2, 0); ok {
		t.Error("failover fired with the breaker disabled")
	}

	r = mkRunner(2)
	r.health.consec[0] = 100
	if _, ok, _ := r.failOver(nil, 0, 1); ok {
		t.Error("the coordinator was failed over; node 0 hosts the gathered result and must stay")
	}

	r = mkRunner(2)
	r.health.consec[2] = 1
	if _, ok, _ := r.failOver(nil, 2, 0); ok {
		t.Error("failover fired below the consecutive-failure threshold")
	}
	if r.health.dead[2] {
		t.Error("node declared dead below threshold")
	}
}

// TestFailOverMovesOwnership: at threshold the node dies, its shard
// ownership moves to the next surviving node, and the counter advances.
func TestFailOverMovesOwnership(t *testing.T) {
	r := &runner{
		cl:     &Cluster{nodes: make([]*Node, 4)},
		plan:   &Plan{},
		rec:    resolveRecovery(&Recovery{FailThreshold: 2}),
		health: newHealth(4),
	}
	r.health.consec[2] = 2
	next, ok, err := r.failOver(nil, 2, 0)
	if err != nil || !ok {
		t.Fatalf("failover refused: next=%d ok=%v err=%v", next, ok, err)
	}
	if next != 3 {
		t.Errorf("ownership moved to node %d, want the next survivor 3", next)
	}
	if !r.health.dead[2] {
		t.Error("node 2 not marked dead")
	}
	if r.health.owner[2] != 3 {
		t.Errorf("owner[2] = %d, want 3", r.health.owner[2])
	}
	if r.failovers != 1 {
		t.Errorf("failovers = %d, want 1", r.failovers)
	}

	// Node 3 dies next: its shards — and the ones it adopted from node 2 —
	// move to the next survivor on the ring, the coordinator.
	r.health.consec[3] = 2
	next, ok, err = r.failOver(nil, 3, 0)
	if err != nil || !ok || next != 0 {
		t.Fatalf("second failover: next=%d ok=%v err=%v, want owner 0", next, ok, err)
	}
	if r.health.owner[2] != 0 || r.health.owner[3] != 0 {
		t.Errorf("adopted shards not re-homed: owner=%v", r.health.owner)
	}

	// With nodes 2 and 3 dead, killing node 1 leaves only the coordinator.
	r.health.consec[1] = 2
	next, ok, err = r.failOver(nil, 1, 0)
	if err != nil || !ok || next != 0 {
		t.Fatalf("third failover: next=%d ok=%v err=%v", next, ok, err)
	}
}

// TestFailOverVerifyRejects: a Verify hook vetoes the recovery plan and the
// run fails with the wrapped rejection rather than retrying blindly.
func TestFailOverVerifyRejects(t *testing.T) {
	veto := errors.New("ownership table rejected")
	var gotAlive []bool
	var gotOwner []int
	r := &runner{
		cl:   &Cluster{nodes: make([]*Node, 4)},
		plan: &Plan{},
		rec: resolveRecovery(&Recovery{
			FailThreshold: 1,
			Verify: func(root algebra.Node, alive []bool, owner []int) error {
				gotAlive, gotOwner = alive, owner
				return veto
			},
		}),
		health: newHealth(4),
	}
	r.health.consec[1] = 1
	_, ok, err := r.failOver(nil, 1, 0)
	if ok {
		t.Error("failover proceeded past a Verify rejection")
	}
	if !errors.Is(err, veto) || !strings.Contains(fmt.Sprint(err), "recovery plan rejected") {
		t.Fatalf("got %v, want the wrapped Verify rejection", err)
	}
	if len(gotAlive) != 4 || gotAlive[1] {
		t.Errorf("Verify saw liveness %v, want node 1 dead", gotAlive)
	}
	if len(gotOwner) != 4 || gotOwner[1] != 2 {
		t.Errorf("Verify saw ownership %v, want owner[1]=2", gotOwner)
	}
}

// TestAcceptDedupsRedeliveries: the receiver merges a shipment tag once; a
// redelivery is dropped and counted, and the SkipShipmentDedup hook — the
// seeded bug the recovery oracle must catch — restores the double-merge.
func TestAcceptDedupsRedeliveries(t *testing.T) {
	r := &runner{inbox: make(map[int64]bool)}
	rows := []value.Row{{value.NewInt(1)}}
	tag := ShipTag{Seq: 9}

	got := r.accept(nil, tag, nil, rows)
	if len(got) != 1 {
		t.Fatalf("first delivery accepted %d rows, want 1", len(got))
	}
	got = r.accept(nil, tag, got, rows)
	if len(got) != 1 {
		t.Fatalf("redelivery changed the accepted rows to %d, want still 1", len(got))
	}
	if r.redelivered != 1 {
		t.Errorf("redelivered = %d, want 1", r.redelivered)
	}

	TestHooks.SkipShipmentDedup = true
	defer func() { TestHooks.SkipShipmentDedup = false }()
	got = r.accept(nil, tag, got, rows)
	if len(got) != 2 {
		t.Fatalf("with dedup disabled the redelivery must double-merge; got %d rows", len(got))
	}
}

// TestUnavailableErrorUnwraps: the typed degradation signal exposes the
// last attempt's error for errors.Is/As dispatch.
func TestUnavailableErrorUnwraps(t *testing.T) {
	inner := errors.New("link down")
	ue := &UnavailableError{Src: 1, Dst: 0, Seq: 4, Attempts: 3, Err: inner}
	if !errors.Is(ue, inner) {
		t.Error("UnavailableError does not unwrap its cause")
	}
	msg := ue.Error()
	for _, want := range []string{"1→0", "shipment 4", "3 attempt"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error text %q missing %q", msg, want)
		}
	}
}
