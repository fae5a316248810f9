// Fixture for the budgetcharge analyzer: functions that grow operator
// state (the join table's chains, the group table's groups) must charge the
// memory budget in the same function scope.
package budgetcharge

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

// joinTable mirrors the engine's: link is where a partition grows.
type joinTable struct {
	gov  *governor
	next []int32
}

type joinPart struct{ n int }

func (t *joinTable) link(part *joinPart, hash uint32, key []byte, i int32) {
	t.next[i] = -1
	part.n++
}

// unchargedFill is the build loop with its charge deleted.
func (t *joinTable) unchargedFill(part *joinPart, keys [][]byte) {
	for i, k := range keys {
		t.link(part, 7, k, int32(i)) // want "build row linked into t without charging the memory budget"
	}
}

func (t *joinTable) fill(part *joinPart, keys [][]byte) error {
	for i, k := range keys {
		if err := t.gov.charge("fixture", int64(len(k))); err != nil {
			return err
		}
		t.link(part, 7, k, int32(i))
	}
	return nil
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

// stageStart: a probe stage builds its table in the stage's start closure —
// a scope of its own, in the row and in the batch form of the stage alike.
func stageStart(gov *governor, t *joinTable, keys [][]byte) func() {
	_ = gov.charge("outer", 1)
	return func() {
		for i, k := range keys {
			t.link(&joinPart{}, 7, k, int32(i)) // want "without charging the memory budget"
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
