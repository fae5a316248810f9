package server

// The admission ladder, rung by rung: full grant, degraded partial grant
// (serial + smaller budget, correct rows), queue, queue-full rejection,
// and deadline rejection — each surfacing the typed *AdmissionError and
// HTTP 429, never an engine OOM or panic.

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"
)

func TestAdmitFullGrant(t *testing.T) {
	ctx := context.Background()
	s, _ := newTestServer(t, Config{PoolBytes: 1 << 20, PerQueryBytes: 1 << 18})
	tkt, err := s.adm.admit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer tkt.release()
	if tkt.serial || tkt.budget != 1<<18 {
		t.Fatalf("full grant: serial=%v budget=%d", tkt.serial, tkt.budget)
	}
}

func TestAdmitDegradesBeforeRejecting(t *testing.T) {
	ctx := context.Background()
	s, c := newTestServer(t, Config{
		PoolBytes:     1 << 20,
		PerQueryBytes: 1 << 20,
		MaxQueue:      4,
	})
	// Occupy three quarters of the pool: the next admission can only get
	// a partial lease — the ladder's degraded rung.
	hog, err := s.adm.pool.Lease(ctx, 3<<18, 3<<18)
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Release()

	tkt, err := s.adm.admit(ctx)
	if err != nil {
		t.Fatalf("degraded admission rejected: %v", err)
	}
	if !tkt.serial || tkt.budget >= 1<<20 || tkt.budget < 1<<18 {
		t.Fatalf("expected partial serial grant, got serial=%v budget=%d", tkt.serial, tkt.budget)
	}
	tkt.release()

	// Through HTTP: the query runs (correct rows), flagged Degraded.
	resp, err := c.QueryDetail(ctx, groupByJoin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatal("partial-lease query not flagged Degraded")
	}
	if len(resp.Rows) != 3 || resp.Rows[0][2] != int64(2) {
		t.Fatalf("degraded query rows: %v", resp.Rows)
	}
	if st := s.adm.stats(); st.Degraded < 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestAdmitRejectsWhenQueueFull(t *testing.T) {
	ctx := context.Background()
	s, c := newTestServer(t, Config{
		PoolBytes:     1 << 20,
		PerQueryBytes: 1 << 20,
		MaxQueue:      0, // no queue: saturation rejects immediately
	})
	hog, err := s.adm.pool.Lease(ctx, 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Release()

	// Typed surface.
	_, err = s.adm.admit(ctx)
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("overload returned %T (%v), want *AdmissionError", err, err)
	}
	// HTTP surface: 429 with the admission code.
	_, err = c.QueryDetail(ctx, groupByJoin, nil)
	apiError(t, err, http.StatusTooManyRequests, "admission")
	var ae *APIError
	if !errors.As(err, &ae) || !ae.IsAdmission() {
		t.Fatalf("client error not admission: %v", err)
	}
	if st := s.adm.stats(); st.Rejected < 2 {
		t.Fatalf("stats: %+v", st)
	}

	// Capacity released: the same query is admitted and runs.
	hog.Release()
	if _, err := c.QueryDetail(ctx, groupByJoin, nil); err != nil {
		t.Fatalf("query after release: %v", err)
	}
}

func TestAdmitQueueDeadline(t *testing.T) {
	ctx := context.Background()
	s, _ := newTestServer(t, Config{
		PoolBytes:     1 << 20,
		PerQueryBytes: 1 << 20,
		MaxQueue:      4,
		QueueTimeout:  20 * time.Millisecond,
	})
	hog, err := s.adm.pool.Lease(ctx, 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Release()

	_, err = s.adm.admit(ctx)
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("deadline expiry returned %T (%v), want *AdmissionError", err, err)
	}
	st := s.adm.stats()
	if st.Timeouts != 1 || st.Rejected != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// The abandoned waiter left the queue; the pool is whole again after
	// the hog releases.
	hog.Release()
	ps := s.adm.pool.Stats()
	if ps.Available != ps.Total || ps.Queued != 0 {
		t.Fatalf("pool after abandonment: %+v", ps)
	}
}

// TestAdmitClientCancellationIsNotAdmission: a dead client is not an
// overload signal — it must not count as a rejection or wear the typed
// admission error.
func TestAdmitClientCancellationIsNotAdmission(t *testing.T) {
	s, _ := newTestServer(t, Config{
		PoolBytes:     1 << 20,
		PerQueryBytes: 1 << 20,
		MaxQueue:      4,
	})
	hog, err := s.adm.pool.Lease(context.Background(), 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Release()

	cctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err = s.adm.admit(cctx)
	var adm *AdmissionError
	if errors.As(err, &adm) {
		t.Fatalf("client cancellation surfaced as admission: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if st := s.adm.stats(); st.Rejected != 0 {
		t.Fatalf("cancellation counted as rejection: %+v", st)
	}
}
