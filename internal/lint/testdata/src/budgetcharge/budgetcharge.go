// Fixture for the budgetcharge analyzer: functions that grow operator
// state (hash-join row lists, the group table's groups) must charge the
// memory budget in the same function scope.
package budgetcharge

import "repro/internal/value"

type governor struct{}

func (g *governor) charge(where string, n int64) error { return nil }

// groupTable mirrors the engine's: appendGroup is where it grows.
type groupTable struct {
	gov *governor
	n   int
}

func (t *groupTable) appendGroup(hash uint32, key []byte) int {
	t.n++
	return t.n - 1
}

func (t *groupTable) lookup(hash uint32, key []byte) int { return -1 }

func unchargedRows(m map[string][]value.Row, key string, row value.Row) {
	m[key] = append(m[key], row) // want "without charging the memory budget"
}

func chargedRows(gov *governor, m map[string][]value.Row, key string, row value.Row) error {
	m[key] = append(m[key], row)
	return gov.charge("fixture", 1)
}

// unchargedInsert is the table's insert with its charge deleted.
func (t *groupTable) unchargedInsert(hash uint32, key []byte) int {
	return t.appendGroup(hash, key) // want "without charging the memory budget"
}

func (t *groupTable) insert(hash uint32, key []byte) (int, error) {
	if err := t.gov.charge("fixture", int64(len(key))); err != nil {
		return 0, err
	}
	return t.appendGroup(hash, key), nil
}

// unchargedBatchFeed: the group sink's batch feed looks a row's group up by
// its encoded key bytes and starts the group on a miss. Starting it is growth
// like any other, whichever form the row arrived in.
func unchargedBatchFeed(t *groupTable, keys [][]byte) {
	for _, k := range keys {
		if t.lookup(7, k) < 0 {
			t.appendGroup(7, k) // want "without charging the memory budget"
		}
	}
}

func chargedBatchFeed(gov *governor, t *groupTable, keys [][]byte) error {
	for _, k := range keys {
		if t.lookup(7, k) >= 0 {
			continue
		}
		if err := gov.charge("fixture", int64(len(k))); err != nil {
			return err
		}
		t.appendGroup(7, k)
	}
	return nil
}

// absorb copies groups a partial table was charged for when it was built: the
// one growth site that says so instead of charging.
func (t *groupTable) absorb(keys [][]byte) {
	for _, k := range keys {
		if t.lookup(7, k) < 0 {
			//lint:ignore budgetcharge copies a partial state already charged when its chunk built it
			t.appendGroup(7, k)
		}
	}
}

// boolMapExempt: dedup bookkeeping maps hold no rows; they are not
// operator state in the budget's sense.
func boolMapExempt(m map[string]bool, key string) {
	m[key] = true
}

// stageStart: a probe stage builds its table in the stage's start closure —
// a scope of its own, in the row and in the batch form of the stage alike.
func stageStart(gov *governor, rows []value.Row) func() {
	_ = gov.charge("outer", 1)
	part := make(map[string][]value.Row)
	return func() {
		for _, row := range rows {
			part["k"] = append(part["k"], row) // want "without charging the memory budget"
		}
	}
}

// closureIsItsOwnScope: a charge in the enclosing function does not cover
// a worker closure's insertions — each scope accounts for itself.
func closureIsItsOwnScope(gov *governor, t *groupTable) func([]byte) {
	_ = gov.charge("outer", 1)
	return func(key []byte) {
		t.appendGroup(7, key) // want "without charging the memory budget"
	}
}

// closureCharges: and a closure that charges is clean even when the outer
// function never does.
func closureCharges(gov *governor, t *groupTable) func([]byte) error {
	return func(key []byte) error {
		t.appendGroup(7, key)
		return gov.charge("worker", 1)
	}
}
