// The state stores behind every hash and sort operator: the group table and
// the join build table here, the external sorter in spill.go. Each admits its
// state through one admission rule taken from the governor, so "abort on a
// budget breach" and "refuse, release and hand over to the external path" are
// policies of a store, not operator families, and a worker count is how many
// partial stores (group chunks, join partitions) are built at once.
package exec

import (
	"errors"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// admitMode is how a store reacts when the budget refuses its next entry.
type admitMode uint8

const (
	admitAbort  admitMode = iota // charge: the breach aborts the query with a *ResourceError
	admitRefuse                  // tryCharge: the breach releases the store's bytes and reports errRefused
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
// errRefused after releasing everything held (admitRefuse).
func (a *admission) charge(n int64) error {
	switch a.mode {
	case admitAbort:
		return a.gov.charge(a.where, n)
	case admitRefuse:
		if !a.gov.tryCharge(n) {
			a.release()
			return errRefused
		}
		a.held += n
	}
	return nil
}

// release returns the held bytes to the budget (state charged under
// admitAbort is never released: its high-water mark is what an OOM would see).
func (a *admission) release() {
	a.gov.release(a.held)
	a.held = 0
}

// appendKey appends the canonical key of row over cols — value.GroupKey's
// bytes — to buf. The stores probe with the bytes in a reused buffer,
// m[string(buf)], and make a key string only for an entry they insert.
func appendKey(buf []byte, row value.Row, cols []int) []byte {
	for _, c := range cols {
		buf = value.AppendGroupKey(buf, row[c])
	}
	return buf
}

// groupTable is the partial-aggregate store: canonical group key → group
// state, in first-appearance order. A scalar aggregation (no grouping
// columns) is a table holding one unkeyed, uncharged state from the start, so
// it yields its one row even over empty input.
type groupTable struct {
	core     *groupCore
	adm      admission
	index    map[string]*groupState // nil for the scalar group
	order    []*groupState
	keyBytes int64
	probe    []byte // scratch: the key of the row being looked up
	// values is the slab the states' grouping values are cut from: a new
	// group costs no allocation of its own for them. A full slab is left to
	// the states that point into it and one twice as large started, so a
	// table of a few groups stays a few values large.
	values []value.Value
}

func (g *groupCore) newTable() (*groupTable, error) {
	t := &groupTable{core: g, adm: admissionFor(g.gov, g.mgr, g.where)}
	if g.scalarGroup() {
		st, err := g.newState()
		t.order = []*groupState{st}
		return t, err
	}
	t.index = make(map[string]*groupState)
	return t, nil
}

// add folds one row into its group. The row is not kept.
func (t *groupTable) add(row value.Row) error {
	st, err := t.rowGroup(row)
	if err != nil {
		return err
	}
	return t.core.feed(st, row)
}

// rowGroup returns the group row belongs to, creating it on first sight.
func (t *groupTable) rowGroup(row value.Row) (*groupState, error) {
	if t.index == nil {
		return t.order[0], nil
	}
	t.probe = appendKey(t.probe[:0], row, t.core.groupCols)
	if st, ok := t.index[string(t.probe)]; ok {
		return st, nil
	}
	return t.insert(string(t.probe), row)
}

// A table's slabs of grouping values double from minGroupSlab values to
// maxGroupSlab.
const (
	minGroupSlab = 8
	maxGroupSlab = 512
)

// insert admits and creates the group for key, copying its grouping values
// out of row — the group's first row, which the table does not keep.
func (t *groupTable) insert(key string, row value.Row) (*groupState, error) {
	if err := t.adm.charge(t.core.groupStateBytes(len(key))); err != nil {
		return nil, err
	}
	st, err := t.core.newState()
	if err != nil {
		return nil, err
	}
	k := len(t.core.groupCols)
	if len(t.values)+k > cap(t.values) {
		size := min(max(2*cap(t.values), minGroupSlab), maxGroupSlab)
		t.values = make([]value.Value, 0, max(size, k))
	}
	n := len(t.values)
	t.values = t.core.groupValues(t.values, row)
	st.key, st.group = key, t.values[n:len(t.values):len(t.values)]
	t.index[key] = st
	t.order = append(t.order, st)
	t.keyBytes += int64(len(key))
	return st, nil
}

// absorb merges a later chunk's partial table into t through the
// accumulators' Merge step — the paper's eager aggregation reused as the
// combine rule. Absorbing chunks in index order keeps t.order the global
// first-appearance order, and a group's state (hence its grouping values) is
// always the one from the earliest chunk containing it: exactly what one
// pass over the whole input would have built.
func (t *groupTable) absorb(src *groupTable) error {
	for _, st := range src.order {
		var dst *groupState
		if t.index == nil {
			dst = t.order[0]
		} else if dst = t.index[st.key]; dst == nil {
			//lint:ignore budgetcharge adopts a partial state already charged when its chunk built it
			t.index[st.key] = st
			t.order = append(t.order, st)
			continue
		}
		for k := range dst.accs {
			if err := dst.accs[k].Merge(st.accs[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// joinTable is the hash-join build store: build rows by canonical join key,
// hash-partitioned one map per build worker (one map at one worker). Rows
// with a NULL key column are never stored — the equality would be unknown.
// Matches come back in build order, whatever the partition count.
type joinTable struct {
	cols    []int // key columns of the build rows
	adm     admission
	metrics *obs.OpMetrics // nil unless metrics collection is on
	parts   []map[string][]value.Row
}

// build stores rows on `workers` workers: a serial scatter by key hash keeps
// build order within each partition, then the partitions fill in parallel.
// Every entry is admitted on its own, so an abort names the exact allocation
// that crossed the budget; build statistics are recorded only for a table
// that was built to the end.
func (t *joinTable) build(rows []value.Row, workers int) error {
	scattered := [][]value.Row{rows}
	if workers > 1 {
		scattered = make([][]value.Row, workers)
		var key []byte
		for _, row := range rows {
			if err := t.adm.gov.tick(); err != nil {
				return err
			}
			key = appendKey(key[:0], row, t.cols)
			p := partitionOf(key, workers)
			scattered[p] = append(scattered[p], row)
		}
	}
	t.parts = make([]map[string][]value.Row, len(scattered))
	return forEachChunk(t.adm.where, workers, len(scattered), 1, func(w, c, _, _ int) error {
		if err := t.adm.gov.cancelled(); err != nil {
			return err
		}
		if t.metrics != nil && workers > 1 {
			t.metrics.Morsel(w)
		}
		part := make(map[string][]value.Row)
		var key []byte
		var entries, bytes int64
		for _, row := range scattered[c] {
			if err := t.adm.gov.tick(); err != nil {
				return err
			}
			if anyNullAt(row, t.cols) {
				continue
			}
			key = appendKey(key[:0], row, t.cols)
			entry := int64(len(key)) + rowStateBytes(row)
			if err := t.adm.charge(entry); err != nil {
				return err
			}
			// Storing under a key is the one place a map wants the string.
			part[string(key)] = append(part[string(key)], row)
			entries++
			bytes += entry
		}
		t.parts[c] = part
		if t.metrics != nil {
			t.metrics.BuildEntries.Add(entries)
			t.metrics.StateBytes.Add(bytes)
		}
		return nil
	})
}

// lookup returns the build rows stored under key, in build order.
func (t *joinTable) lookup(key []byte) []value.Row {
	if len(t.parts) == 1 {
		return t.parts[0][string(key)]
	}
	return t.parts[partitionOf(key, len(t.parts))][string(key)]
}
