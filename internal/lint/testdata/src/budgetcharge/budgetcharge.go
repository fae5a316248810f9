// Fixture for the budgetcharge analyzer: functions that grow operator
// state (hash-join row lists, group states) must charge the memory budget in
// the same function scope.
package budgetcharge

import "repro/internal/value"

type governor struct{}

func (g *governor) charge(where string, n int64) error { return nil }

type groupState struct {
	n int
}

func unchargedRows(m map[string][]value.Row, key string, row value.Row) {
	m[key] = append(m[key], row) // want "without charging the memory budget"
}

func chargedRows(gov *governor, m map[string][]value.Row, key string, row value.Row) error {
	m[key] = append(m[key], row)
	return gov.charge("fixture", 1)
}

func unchargedState(m map[string]*groupState, key string) {
	m[key] = &groupState{} // want "without charging the memory budget"
}

// unchargedBatchFeed: the group sink's batch feed looks a row's group up by
// its encoded key bytes and starts the group on a miss. Starting it is an
// insertion like any other, whichever form the row arrived in.
func unchargedBatchFeed(index map[string]*groupState, keys [][]byte) {
	for _, k := range keys {
		if index[string(k)] == nil {
			index[string(k)] = &groupState{} // want "without charging the memory budget"
		}
	}
}

func chargedBatchFeed(gov *governor, index map[string]*groupState, keys [][]byte) error {
	for _, k := range keys {
		if index[string(k)] != nil {
			continue
		}
		if err := gov.charge("fixture", int64(len(k))); err != nil {
			return err
		}
		index[string(k)] = &groupState{}
	}
	return nil
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
func closureIsItsOwnScope(gov *governor, m map[string]*groupState) func(string) {
	_ = gov.charge("outer", 1)
	return func(key string) {
		m[key] = &groupState{} // want "without charging the memory budget"
	}
}

// closureCharges: and a closure that charges is clean even when the outer
// function never does.
func closureCharges(gov *governor, m map[string]*groupState) func(string) error {
	return func(key string) error {
		m[key] = &groupState{}
		return gov.charge("worker", 1)
	}
}
