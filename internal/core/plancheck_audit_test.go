package core

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/plancheck"
)

// certify builds the plancheck certificates for a transformed plan the same
// way Report.Certificates does: one per eager GroupBy, carrying the TestFD
// verdict and the shape's GA1+.
func certify(transformed algebra.Node, shape *Shape, dec Decision) []*plancheck.Certificate {
	var certs []*plancheck.Certificate
	for _, g := range plancheck.EagerGroups(transformed) {
		certs = append(certs, &plancheck.Certificate{
			Group:     g,
			FD1:       dec.OK,
			FD2:       dec.OK,
			GroupCols: shape.GA1Plus,
			R2Tables:  shape.R2,
			Origin:    "TestFD",
		})
	}
	return certs
}

// auditPlans statically verifies a standard/transformed plan pair produced
// by the oracle or fuzz suites: the standard plan must be well-formed, and
// the transformed plan must additionally carry a valid TestFD certificate
// for every eager aggregation.
func auditPlans(t *testing.T, standard, transformed algebra.Node, shape *Shape, dec Decision) {
	t.Helper()
	if err := plancheck.Verify(standard, nil); err != nil {
		t.Fatalf("standard plan failed static verification: %v", err)
	}
	if transformed == nil {
		return
	}
	opts := &plancheck.Options{
		Certificates:     certify(transformed, shape, dec),
		RequireEagerCert: true,
	}
	if err := plancheck.Verify(transformed, opts); err != nil {
		t.Fatalf("transformed plan failed static verification: %v", err)
	}
}

// auditCertificateRoundTrip is the fuzz-side certificate audit: the
// transformation the fuzzer just accepted must verify with its genuine
// certificate, and a tampered certificate refuting FD2 must be rejected
// with a diagnostic naming the Main Theorem condition.
func auditCertificateRoundTrip(t *testing.T, transformed algebra.Node, shape *Shape, dec Decision) {
	t.Helper()
	certs := certify(transformed, shape, dec)
	opts := &plancheck.Options{Certificates: certs, RequireEagerCert: true}
	if err := plancheck.Verify(transformed, opts); err != nil {
		t.Fatalf("accepted transformation failed its certificate round-trip: %v", err)
	}
	if len(certs) == 0 {
		t.Fatal("transformed plan has no eager aggregation to certify")
	}
	// Tamper: refute FD2 on every certificate and demand rejection.
	tampered := make([]*plancheck.Certificate, len(certs))
	for i, c := range certs {
		cp := *c
		cp.FD2 = false
		tampered[i] = &cp
	}
	err := plancheck.Verify(transformed, &plancheck.Options{Certificates: tampered, RequireEagerCert: true})
	if err == nil {
		t.Fatal("plancheck accepted a certificate refuting FD2")
	}
	if !strings.Contains(err.Error(), "FD2") || !strings.Contains(err.Error(), "RowID(R2)") {
		t.Fatalf("FD2 refutation diagnostic must name the theorem condition, got: %v", err)
	}
}

// TestPlancheckRejectsLimitUnderJoin pins the spill-safety rule: a Limit
// feeding a join (or group) through cardinality-transparent operators
// truncates an intermediate a re-reading operator depends on. The planner
// never builds this shape — user LIMITs inside derived tables sit behind a
// projection — so the checker flags it as an optimizer bug.
func TestPlancheckRejectsLimitUnderJoin(t *testing.T) {
	s := example1Store(t)
	o := NewOptimizer(s)
	b, err := o.Planner().Bind(parse(t, example1SQL))
	must(t, err)
	plan, err := o.Planner().PlanStandard(b)
	must(t, err)

	// Splice a Limit directly above one join input, simulating an unsound
	// push-down.
	var join *algebra.Join
	algebra.Walk(plan, func(n algebra.Node) {
		if j, ok := n.(*algebra.Join); ok {
			join = j
		}
	})
	if join == nil {
		t.Fatalf("plan has no Join:\n%s", algebra.Format(plan, nil))
	}
	join.L = &algebra.Limit{Input: join.L, N: 1}
	err = plancheck.Verify(plan, nil)
	if err == nil {
		t.Fatal("plan checker accepted a Limit feeding a join input")
	}
	if !strings.Contains(err.Error(), "spill-safety") {
		t.Fatalf("violation cites the wrong rule: %v", err)
	}
}
