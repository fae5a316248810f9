// The state stores behind every hash and sort operator: the group table and
// the join build table here, the external sorter in spill.go. Each admits its
// state through one admission rule taken from the governor, so "abort on a
// budget breach" and "refuse and hand over to the external path" are policies
// of a store, not operator families, and a worker count is how many partial
// stores (group chunks, join partitions) are built at once.
package exec

import (
	"errors"
	"math/bits"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/paged"
	"repro/internal/storage"
	"repro/internal/value"
)

// admitMode is how a store reacts when the budget refuses its next entry.
type admitMode uint8

const (
	admitAbort  admitMode = iota // charge: the breach aborts the query with a *ResourceError
	admitRefuse                  // tryCharge: the breach reports errRefused, and the store takes nothing more until it releases
	admitForce                   // uncharged: a grace partition no rehash can split
)

// errRefused is a store's "does not fit" under admitRefuse. It never leaves
// the operator that owns the store: the operator answers it by taking its
// external path.
var errRefused = errors.New("exec: operator state refused by the memory budget")

// admission is one store's admission rule. A store built by several workers
// shares it only under admitAbort, which keeps no per-store total.
type admission struct {
	gov   *governor
	where string
	mode  admitMode
	held  int64 // bytes admitted under admitRefuse, given back by release
	// refused: the budget refused an entry under admitRefuse. The store
	// keeps what it holds and admits nothing more until release.
	refused bool
}

// admissionFor is the rule of an operator's primary store: abort, unless a
// spill manager makes an external path available.
func admissionFor(gov *governor, mgr *storage.SpillManager, where string) admission {
	a := admission{gov: gov, where: where}
	if mgr != nil {
		a.mode = admitRefuse
	}
	return a
}

// charge admits n bytes, or fails with *ResourceError (admitAbort) or
// errRefused (admitRefuse), which holds on to what was admitted before and
// refuses every later entry too.
func (a *admission) charge(n int64) error {
	switch a.mode {
	case admitAbort:
		return a.gov.charge(a.where, n)
	case admitRefuse:
		if a.refused || !a.gov.tryCharge(n) {
			a.refused = true
			return errRefused
		}
		a.held += n
	}
	return nil
}

// release returns the held bytes to the budget and admits again (state
// charged under admitAbort is never released: its high-water mark is what an
// OOM would see).
func (a *admission) release() {
	a.gov.release(a.held)
	a.held, a.refused = 0, false
}

// appendKey appends the canonical key of row over cols — value.GroupKey's
// bytes — to buf. The stores probe and insert with the bytes in a reused
// buffer, and none of them makes a key string.
func appendKey(buf []byte, row value.Row, cols []int) []byte {
	for _, c := range cols {
		buf = value.AppendGroupKey(buf, row[c])
	}
	return buf
}

// groupAccs is the aggregate state of a set of groups: one accumulator column
// per aggregate of the node (groupCore.aggs order), indexed by group id.
type groupAccs struct {
	core *groupCore
	cols []expr.AccColumn
}

func (g *groupCore) newAccs() (groupAccs, error) {
	a := groupAccs{core: g, cols: make([]expr.AccColumn, len(g.aggs))}
	for k, agg := range g.aggs {
		var err error
		if a.cols[k], err = expr.NewAccColumn(agg); err != nil {
			return a, err
		}
	}
	return a, nil
}

// grow appends a fresh group to every column.
func (a *groupAccs) grow() {
	for _, col := range a.cols {
		col.Grow()
	}
}

// feed folds one row into group id's accumulators.
func (a *groupAccs) feed(id int, row value.Row) error {
	for k, agg := range a.core.aggs {
		var v value.Value // NULL: ignored by the COUNT(*) accumulator
		if agg.Func != expr.AggCountStar {
			var err error
			if v, err = expr.Eval(agg.Arg, row, a.core.params); err != nil {
				return err
			}
		}
		if err := a.cols[k].Add(id, v); err != nil {
			return err
		}
	}
	return nil
}

// finish appends group id's aggregate items to out: an item that is its one
// aggregate is that accumulator's result, any other is its arithmetic shell
// evaluated over the group's results. results is the caller's scratch, one
// slot per aggregate: the row a shell is evaluated against. Finishing only
// reads the accumulators, so workers with scratch of their own may finish
// groups of one table at once.
func (a *groupAccs) finish(id int, results value.Row, out []value.Value) ([]value.Value, error) {
	for k, col := range a.cols {
		results[k] = col.Result(id)
	}
	for _, spec := range a.core.specs {
		if spec.shell == nil {
			out = append(out, results[spec.first])
			continue
		}
		v, err := expr.Eval(spec.shell, results, a.core.params)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// groupTable is the partial-aggregate store. A group is a dense id, handed
// out in first-appearance order by the index — a paged.Dict over the groups'
// canonical key bytes — and everything else a group owns is element id of a
// paged array: its grouping values, those of the group's first row, and one
// accumulator state per aggregate. No key string, state struct or accumulator
// is allocated for a group, and the index and the COUNT, SUM and AVG columns
// hold no pointers for the collector to follow. A partial table's group that
// an earlier chunk's table also holds is merged into that one and marked in
// moved (combine).
//
// A scalar aggregation (no grouping columns) is a table holding one unkeyed,
// uncharged group from the start, so it yields its one row even over empty
// input.
type groupTable struct {
	groupAccs
	adm    admission
	scalar bool
	n      int // groups
	index  paged.Dict
	values paged.Array[value.Value]
	probe  []byte   // scratch: the key of the row being looked up
	moved  []uint64 // bit id set: the group is merged into an earlier table's; nil when none is
}

func (g *groupCore) newTable() (*groupTable, error) {
	accs, err := g.newAccs()
	t := &groupTable{groupAccs: accs, adm: admissionFor(g.gov, g.mgr, g.where), scalar: g.scalarGroup()}
	if t.scalar {
		t.grow()
		t.n = 1
	}
	return t, err
}

// add folds one row into its group. The row is not kept.
func (t *groupTable) add(row value.Row) error {
	id, err := t.rowGroup(row)
	if err != nil {
		return err
	}
	return t.feed(id, row)
}

// rowGroup returns the id of the group row belongs to, creating the group on
// first sight.
func (t *groupTable) rowGroup(row value.Row) (int, error) {
	if t.scalar {
		return 0, nil
	}
	t.probe = appendKey(t.probe[:0], row, t.core.groupCols)
	hash := paged.Hash(t.probe)
	if id := t.index.Lookup(hash, t.probe); id >= 0 {
		return id, nil
	}
	return t.insert(hash, t.probe, row)
}

// insert admits and creates the group for key, copying its grouping values
// out of row — the group's first row, which the table does not keep.
func (t *groupTable) insert(hash uint32, key []byte, row value.Row) (int, error) {
	if err := t.adm.charge(t.core.groupStateBytes(len(key))); err != nil {
		return 0, err
	}
	t.n++
	t.grow()
	id := t.index.Append(hash, key)
	for _, c := range t.core.groupCols {
		*t.values.Append() = row[c]
	}
	return id, nil
}

// move marks group id as merged into an earlier table's group.
func (t *groupTable) move(id int) {
	if t.moved == nil {
		t.moved = make([]uint64, (t.n+63)/64)
	}
	t.moved[id/64] |= 1 << (id % 64)
}

// owns reports whether group id is the table's own, not merged away.
func (t *groupTable) owns(id int) bool {
	return t.moved == nil || t.moved[id/64]&(1<<(id%64)) == 0
}

// owned is the number of groups the table owns.
func (t *groupTable) owned() int {
	n := t.n
	for _, word := range t.moved {
		n -= bits.OnesCount64(word)
	}
	return n
}

// ownedID is the id of the table's k-th owned group, counted from 0.
func (t *groupTable) ownedID(k int) int {
	for w, word := range t.moved {
		if free := 64 - bits.OnesCount64(word); k >= free {
			k -= free
			continue
		}
		for id := w * 64; ; id++ {
			if word&(1<<(id%64)) == 0 {
				if k == 0 {
					return id
				}
				k--
			}
		}
	}
	return len(t.moved)*64 + k
}

// appendRow appends group id's output row — its grouping values, then its
// aggregate items — to out, finishing it with the caller's scratch results.
func (t *groupTable) appendRow(id int, results value.Row, out []value.Value) ([]value.Value, error) {
	k := len(t.core.groupCols)
	for j := id * k; j < (id+1)*k; j++ {
		out = append(out, *t.values.At(j))
	}
	return t.finish(id, results, out)
}

// joinTable is the hash-join build store. The build rows stay in the slice
// the caller drained them into, and a match is a row's index in it: each
// partition hands every distinct canonical join key a dense id in a
// paged.Dict, and a key id's chain links its rows through next, one entry per
// build row. Chains are tail-linked, so matches come back in build order
// whatever the partition count and however skewed the key. A partition is a
// range of the key's paged.Hash, one per build worker (one at one worker).
// Rows with a NULL key column are never stored — the equality would be
// unknown. No key string and no per-key slice is made.
type joinTable struct {
	cols    []int // key columns of the build rows
	adm     admission
	metrics *obs.OpMetrics // nil unless metrics collection is on
	rows    []value.Row    // the build rows, in build order
	next    []int32        // by build row: the next row of its chain, or -1
	parts   []joinPart
}

// joinPart is one partition: its keys, and each key id's chain.
type joinPart struct {
	index  paged.Dict
	chains []joinChain
}

// joinChain is the build rows stored under one key: the first and the last
// of them (-1 when there are none) and how many.
type joinChain struct{ head, tail, n int32 }

// hashRange is the partition, of n, that a key hashing to hash belongs to:
// the hash's range when [0, 2³²) is cut in n equal parts.
func hashRange(hash uint32, n int) int { return int(uint64(hash) * uint64(n) >> 32) }

// build stores rows on `workers` workers: a serial scatter of row indexes by
// key hash keeps build order within each partition, then the partitions fill
// in parallel. Every entry is admitted on its own, so an abort names the
// exact allocation that crossed the budget; build statistics are recorded
// only for a table that was built to the end.
func (t *joinTable) build(rows []value.Row, workers int) error {
	t.rows, t.next, t.parts = rows, make([]int32, len(rows)), make([]joinPart, workers)
	var scattered [][]int32 // by partition, above one worker
	if workers > 1 {
		scattered = make([][]int32, workers)
		var key []byte
		for i, row := range rows {
			if err := t.adm.gov.tick(); err != nil {
				return err
			}
			key = appendKey(key[:0], row, t.cols)
			p := hashRange(paged.Hash(key), workers)
			scattered[p] = append(scattered[p], int32(i))
		}
	}
	return forEachChunk(t.adm.where, workers, workers, 1, func(w, c, _, _ int) error {
		if err := t.adm.gov.cancelled(); err != nil {
			return err
		}
		if t.metrics != nil && workers > 1 {
			t.metrics.Morsel(w)
		}
		ids, n := []int32(nil), len(rows) // one worker: every row
		if scattered != nil {
			ids, n = scattered[c], len(scattered[c])
		}
		return t.fill(&t.parts[c], ids, n)
	})
}

// fill stores the n build rows of one partition under their keys, in order:
// rows ids, or the first n rows when ids is nil. A keyed build reserves room
// for a key per row; a keyless one has the empty key alone, so it reserves
// nothing.
func (t *joinTable) fill(part *joinPart, ids []int32, n int) error {
	if len(t.cols) > 0 {
		part.index.Reserve(n)
	}
	var key []byte
	var entries, bytes int64
	for k := 0; k < n; k++ {
		i := int32(k)
		if ids != nil {
			i = ids[k]
		}
		if err := t.adm.gov.tick(); err != nil {
			return err
		}
		row := t.rows[i]
		if anyNullAt(row, t.cols) {
			continue
		}
		key = appendKey(key[:0], row, t.cols)
		entry := int64(len(key)) + rowStateBytes(row)
		if err := t.adm.charge(entry); err != nil {
			return err
		}
		t.link(part, paged.Hash(key), key, i)
		entries++
		bytes += entry
	}
	if t.metrics != nil {
		t.metrics.BuildEntries.Add(entries)
		t.metrics.StateBytes.Add(bytes)
	}
	return nil
}

// link appends build row i to the chain of key, whose hash is hash, in part,
// giving a key seen for the first time its id and a chain of one: this is
// where a partition grows.
func (t *joinTable) link(part *joinPart, hash uint32, key []byte, i int32) {
	t.next[i] = -1
	id := part.index.Lookup(hash, key)
	if id < 0 {
		part.index.Append(hash, key)
		part.chains = append(part.chains, joinChain{head: i, tail: i, n: 1})
		return
	}
	ch := &part.chains[id]
	t.next[ch.tail] = i
	ch.tail = i
	ch.n++
}

// lookup returns the chain of build rows stored under key; the rows after
// its head follow t.next.
func (t *joinTable) lookup(key []byte) joinChain {
	hash := paged.Hash(key)
	part := &t.parts[hashRange(hash, len(t.parts))]
	if id := part.index.Lookup(hash, key); id >= 0 {
		return part.chains[id]
	}
	return joinChain{head: -1}
}
