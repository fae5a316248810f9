// Fault-tolerance policy for the distributed runtime: per-shipment retry
// budgets with exponential backoff and deterministic jitter, a
// consecutive-failure circuit breaker that declares nodes dead and moves
// their shard ownership to survivors, and a typed unavailability error the
// engine layer turns into graceful distributed→local degradation.
//
// Everything here is driven through the run's clock (exec.Options.Clock): a
// backoff never sleeps for real — it advances virtual time and accounts the
// accumulated wait against the query context's deadline — so recovery
// schedules are deterministic under obs.FakeClock and free under obs.Wall.
package dist

import (
	"fmt"
	"sync/atomic"
	"time"
)

// TestHooks gate deliberately-broken recovery behaviour for regression
// tests. Production code never sets them.
var TestHooks struct {
	// SkipShipmentDedup disables the receiver-side (epoch, seq) shipment
	// dedup, so a retried shipment whose ack — not payload — was lost is
	// merged twice. With eager shipping that double-merges partial
	// aggregate states (SUM/COUNT/AVG silently double); the distributed
	// recovery oracle must catch the divergence.
	SkipShipmentDedup bool
}

// ShipTag identifies one logical shipment for exactly-once delivery. Seq
// is the runner-global shipment sequence number — every logical transfer
// gets a fresh one, and all retries of that transfer carry it. Epoch
// counts ownership re-routes (failovers) the shipment survived. The
// receiver accepts a Seq's payload at most once; any further delivery is
// a redelivery and is dropped.
type ShipTag struct {
	Seq   int64
	Epoch int
}

// Recovery configures the fault-tolerance layer of one distributed run:
// the values a query sets. A nil policy disables the layer — one attempt
// per shipment, no failover, fail-fast — the semantics the fail-fast chaos
// oracle relies on (Cluster.Run). Under a policy the circuit breaker is on
// (failThreshold), backoff reads the run's exec.Options.Clock, and every
// failover re-route is checked by plancheck.CheckRecovery.
type Recovery struct {
	// LinkRetries is the per-shipment retry budget: attempts beyond the
	// first. 0 (or negative) means no retries. Each retry waits backoff's
	// schedule.
	LinkRetries int
	// Stats, when set, accumulates the run's recovery counters into an
	// engine-lifetime aggregate (the \retries shell command reads it).
	Stats *RecoveryStats
	// Serial runs a fragment's sites one after another on the caller's
	// goroutine (see sitesAtOnce): how a query that asked for serial
	// execution reaches the runner. It changes no result.
	Serial bool
}

// failThreshold is the circuit breaker: under a Recovery policy, a node
// whose link fails this many consecutive attempts is declared dead and its
// shard ownership moves to a surviving node.
const failThreshold = 3

// The retry wait: baseBackoff before the first retry, doubling per retry up
// to maxBackoff.
const (
	baseBackoff = time.Millisecond
	maxBackoff  = 50 * time.Millisecond
)

// backoff computes the wait before retry attempt (1-based) of a shipment:
// baseBackoff·2^(attempt-1) capped at maxBackoff, plus a deterministic
// jitter in [0, baseBackoff) derived from the shipment tag by splitmix64.
// Same tag and attempt, same wait, on any host — which keeps recovery
// schedules reproducible from a seed.
func backoff(tag ShipTag, attempt int) time.Duration {
	d := baseBackoff
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	d = min(d, maxBackoff)
	return d + time.Duration(splitmix(uint64(tag.Seq)<<16^uint64(uint(tag.Epoch))<<8^uint64(attempt))%uint64(baseBackoff))
}

// splitmix is the same splitmix64 step internal/fault uses for schedules:
// deterministic jitter without math/rand.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RecoveryStats accumulates recovery counters across runs. All fields are
// atomics so concurrent queries on one engine aggregate safely.
type RecoveryStats struct {
	// Retries counts re-attempted link shipments.
	Retries atomic.Int64
	// RedeliveriesDropped counts duplicate deliveries the receivers
	// deduplicated.
	RedeliveriesDropped atomic.Int64
	// Failovers counts nodes declared dead whose work moved to survivors.
	Failovers atomic.Int64
	// Degraded counts distributed executions abandoned for a local re-run.
	Degraded atomic.Int64
}

// UnavailableError reports a shipment the fault-tolerance layer could not
// complete: the retry budget is exhausted and no failover target remained
// (or the policy forbade one). The engine layer treats it as the signal
// to degrade distributed execution to a local run.
type UnavailableError struct {
	// Src and Dst are the link endpoints of the failed shipment (Src is
	// the last owner tried).
	Src, Dst int
	// Seq is the shipment's sequence tag.
	Seq int64
	// Attempts is the total delivery attempts made, across all owners.
	Attempts int
	// Err is the last attempt's error.
	Err error
}

// Error renders the failure.
func (e *UnavailableError) Error() string {
	return fmt.Sprintf("dist: link %d→%d unavailable: shipment %d failed after %d attempt(s): %v",
		e.Src, e.Dst, e.Seq, e.Attempts, e.Err)
}

// Unwrap exposes the last attempt's error (typically a *fault.Error).
func (e *UnavailableError) Unwrap() error { return e.Err }

// health is the per-node circuit breaker: consecutive failed attempts,
// death, and the ownership table recording which survivor adopted each
// dead node's shards.
type health struct {
	consec []int
	dead   []bool
	owner  []int
}

func newHealth(n int) *health {
	h := &health{
		consec: make([]int, n),
		dead:   make([]bool, n),
		owner:  make([]int, n),
	}
	for i := range h.owner {
		h.owner[i] = i
	}
	return h
}

// ok resets the node's consecutive-failure count after a successful
// attempt.
func (h *health) ok(node int) { h.consec[node] = 0 }

// fail records one failed attempt against the node.
func (h *health) fail(node int) { h.consec[node]++ }

// aliveMask returns the liveness vector (true = alive).
func (h *health) aliveMask() []bool {
	out := make([]bool, len(h.dead))
	for i, d := range h.dead {
		out[i] = !d
	}
	return out
}

// ownerCopy returns the ownership table (a copy).
func (h *health) ownerCopy() []int {
	return append([]int(nil), h.owner...)
}
