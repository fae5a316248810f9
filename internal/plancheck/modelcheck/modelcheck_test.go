package modelcheck

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// TestModelCheckGate is the CI gate (`make modelcheck`): every builtin
// scenario, exhaustively enumerated to 3 rows per table, must produce zero
// counterexamples across all plan pairs (lazy vs eager, row vs vectorized,
// serial vs parallel, local vs distributed).
func TestModelCheckGate(t *testing.T) {
	const k = 3
	res, err := Run(Config{K: k})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenarios == 0 || res.Databases == 0 || res.PlanPairs == 0 {
		t.Fatalf("gate checked nothing: %+v", res)
	}
	t.Logf("modelcheck: %d scenarios, %d databases, %d plan pairs (k=%d)",
		res.Scenarios, res.Databases, res.PlanPairs, k)
	for _, c := range res.Counterexamples {
		t.Errorf("counterexample:\n%s", c)
	}
}

// TestModelCheckRejectsBadK pins the validation contract: K below 1 is an
// error, not a silent clamp.
func TestModelCheckRejectsBadK(t *testing.T) {
	for _, k := range []int{0, -1} {
		if _, err := Run(Config{K: k}); err == nil {
			t.Errorf("K=%d accepted", k)
		} else if !strings.Contains(err.Error(), "K must be at least 1") {
			t.Errorf("K=%d: unexpected error %v", k, err)
		}
	}
}

// TestGauntletForceTransformCaughtByModelCheck seeds the optimizer bug the
// checker exists to catch: forcing the group-by-before-join rewrite onto a
// keyless R2, where FD2 fails and duplicate join partners make the eager
// plan's aggregates wrong. The checker must find a counterexample and the
// minimizer must shrink it to a near-minimal database.
func TestGauntletForceTransformCaughtByModelCheck(t *testing.T) {
	core.TestHooks.ForceTransform = true
	defer func() { core.TestHooks.ForceTransform = false }()

	// The keyless-join builtin is exactly the illegal instance.
	var keyless []Scenario
	for _, sc := range Builtin() {
		if sc.Name == "keyless-join" {
			keyless = append(keyless, sc)
		}
	}
	if len(keyless) != 1 {
		t.Fatal("builtin keyless-join scenario missing")
	}
	res, err := Run(Config{K: 2, Scenarios: keyless})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Counterexamples) == 0 {
		t.Fatal("model checker accepted a forced illegal transformation")
	}
	c := res.Counterexamples[0]
	if !strings.HasPrefix(c.Variant, "transformed/") {
		t.Fatalf("counterexample must implicate the transformed plan, got variant %q", c.Variant)
	}
	total := 0
	for _, rows := range c.Database {
		total += len(rows)
	}
	// Triggering the bug needs one R1 row and two join partners in R2;
	// the minimizer must not report anything materially larger.
	if total == 0 || total > 4 {
		t.Fatalf("minimizer left a database of %d rows:\n%s", total, c)
	}
}
