// The state stores behind every hash and sort operator: the group table and
// the join build table here, the external sorter in spill.go. Each admits its
// state through one admission rule taken from the governor, so "abort on a
// budget breach" and "refuse and hand over to the external path" are policies
// of a store, not operator families, and a worker count is how many partial
// stores (group chunks, join partitions) are built at once.
package exec

import (
	"errors"
	"math"
	"math/bits"
	"sync/atomic"

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
// out in first-appearance order, and everything else a group owns is element
// id of a paged array: its grouping values, those of the group's first row,
// and one accumulator state per aggregate. No key string, state struct or
// accumulator is allocated for a group, and the index and the COUNT, SUM and
// AVG columns hold no pointers for the collector to follow. A partial table's
// group that an earlier chunk's table also holds is merged into that one and
// marked in moved (combine). A table has one of three layouts:
//
//   - dense: one grouping column whose non-NULL keys are all INTEGERs, or
//     DOUBLEs holding one exactly (denseKey), spanning at most 2·G + 16
//     values (denseFits), G the table's groups. Key k's group is
//     slots[k − base], so no key is encoded or hashed; the NULL group's id
//     is kept beside the slots. A key outside the slots grows them
//     geometrically while the span still fits; any other key makes the
//     table hashed for good (toHashed).
//   - trial: a one-column table not yet dense. It is hashed, and tracks its
//     keys' span; each time G reaches 8, 16, 32, … a span that fits makes it
//     dense (toDense). A key that is no dense key makes it hashed for good.
//   - hashed: every other keyed table, the scalar one too. The index, a
//     paged.Dict over the groups' canonical key bytes, hands out the ids.
//
// Every layout charges a group the same bytes, groupStateBytes of its
// canonical key's length, so budgets, spill decisions and build statistics
// do not depend on it; on a refusal probe holds the refused key's bytes.
//
// A scalar aggregation (no grouping columns) is a table holding one unkeyed,
// uncharged group from the start, so it yields its one row even over empty
// input.
type groupTable struct {
	groupAccs
	adm    admission
	scalar bool
	n      int // groups
	layout groupLayout
	index  paged.Dict // trial and hashed
	// lo and hi are the smallest and the largest non-NULL key (trial, dense);
	// key k's group is slots[k − base] − 1, 0 marking an empty slot, and the
	// NULL group's is null − 1 (dense).
	lo, hi int64
	base   int64
	slots  []int32
	null   int32
	values paged.Array[value.Value]
	probe  []byte   // scratch: the key of the row being looked up
	moved  []uint64 // bit id set: the group is merged into an earlier table's; nil when none is
}

// groupLayout is how a group table finds a key's group.
type groupLayout uint8

const (
	layoutHashed groupLayout = iota
	layoutTrial
	layoutDense
)

// trialFirst is the group count at which a trial table first checks its span.
const trialFirst = 8

func (g *groupCore) newTable() (*groupTable, error) {
	accs, err := g.newAccs()
	t := &groupTable{groupAccs: accs, adm: admissionFor(g.gov, g.mgr, g.where), scalar: g.scalarGroup()}
	if t.scalar {
		t.grow()
		t.n = 1
	}
	if len(g.groupCols) == 1 {
		t.layout, t.lo, t.hi = layoutTrial, math.MaxInt64, math.MinInt64
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
	if t.layout == layoutDense {
		if id := t.denseGroup(row[t.core.groupCols[0]]); id >= 0 {
			return id, nil
		}
		t.probe = appendKey(t.probe[:0], row, t.core.groupCols)
		return t.insert(0, t.probe, row)
	}
	t.probe = appendKey(t.probe[:0], row, t.core.groupCols)
	hash := paged.Hash(t.probe)
	if id := t.index.Lookup(hash, t.probe); id >= 0 {
		return id, nil
	}
	return t.insert(hash, t.probe, row)
}

// denseGroup returns the id of a dense table's group whose key equals v, or
// -1: none has it, or v is no dense key.
func (t *groupTable) denseGroup(v value.Value) int {
	if v.IsNull() {
		return int(t.null) - 1
	}
	if k, ok := denseKey(v); ok {
		if off := uint64(k) - uint64(t.base); off < uint64(len(t.slots)) {
			return int(t.slots[off]) - 1
		}
	}
	return -1
}

// insert admits and creates the group for key, whose hash is hash unless the
// table is dense, copying its grouping values out of row — the group's first
// row, which the table does not keep.
func (t *groupTable) insert(hash uint32, key []byte, row value.Row) (int, error) {
	if err := t.adm.charge(t.core.groupStateBytes(len(key))); err != nil {
		return 0, err
	}
	id := t.n
	t.n++
	t.grow()
	for _, c := range t.core.groupCols {
		*t.values.Append() = row[c]
	}
	switch t.layout {
	case layoutDense:
		t.placeDense(id)
	case layoutTrial:
		t.index.Append(hash, key)
		t.track(id)
	default:
		t.index.Append(hash, key)
	}
	return id, nil
}

// track takes a trial table's new group id into its keys' span, and makes
// the table dense when G is a power of two from trialFirst on and the span
// fits, or hashed for good when the key is no dense key.
func (t *groupTable) track(id int) {
	v := *t.values.At(id)
	if v.IsNull() {
		return
	}
	k, ok := denseKey(v)
	if !ok {
		t.layout = layoutHashed
		return
	}
	t.lo, t.hi = min(t.lo, k), max(t.hi, k)
	if t.n >= trialFirst && t.n&(t.n-1) == 0 && denseFits(t.lo, t.hi, t.n) {
		t.toDense()
	}
}

// toDense fills the slots of a trial table's span from its groups' values in
// id order and drops its index.
func (t *groupTable) toDense() {
	t.layout, t.base = layoutDense, t.lo
	t.slots = make([]int32, uint64(t.hi)-uint64(t.lo)+1)
	for id := 0; id < t.n; id++ {
		t.placeDense(id)
	}
	t.index = paged.Dict{}
}

// placeDense puts a dense table's group id, whose grouping value is stored,
// under its key: in the slots, grown to cover it if need be, or as the NULL
// group. A key the slots cannot cover makes the table hashed.
func (t *groupTable) placeDense(id int) {
	v := *t.values.At(id)
	if v.IsNull() {
		t.null = int32(id) + 1
		return
	}
	k, ok := denseKey(v)
	if !ok || !t.cover(k) {
		t.toHashed()
		return
	}
	t.slots[uint64(k)-uint64(t.base)] = int32(id) + 1
}

// cover makes a dense table's slots cover key k, and reports false when the
// span with k would not fit. Slots grow geometrically — doubling, up to the
// bound — with the new room on k's side, so keys arriving in either order
// make a new slice only a logarithmic number of times; the window is kept
// inside the int64 range at either end.
func (t *groupTable) cover(k int64) bool {
	lo, hi := min(t.lo, k), max(t.hi, k)
	if off := uint64(k) - uint64(t.base); off < uint64(len(t.slots)) {
		t.lo, t.hi = lo, hi
		return true
	}
	if !denseFits(lo, hi, t.n) {
		return false
	}
	size := min(max(2*uint64(len(t.slots)), uint64(hi)-uint64(lo)+1), denseBound(t.n))
	// uint64(x) + 1<<63 is x − MinInt64, and MaxInt64 − uint64(x) is
	// MaxInt64 − x: the room below and above key x.
	base := lo // room above
	switch {
	case k < t.lo && uint64(hi)+1<<63 < size-1:
		base = math.MinInt64
	case k < t.lo: // room below
		base = int64(uint64(hi) - (size - 1))
	case math.MaxInt64-uint64(lo) < size-1:
		base = math.MaxInt64 - int64(size-1)
	}
	slots := make([]int32, size)
	copy(slots[uint64(t.lo)-uint64(base):], t.slots[uint64(t.lo)-uint64(t.base):uint64(t.hi)-uint64(t.base)+1])
	t.base, t.slots, t.lo, t.hi = base, slots, lo, hi
	return true
}

// toHashed makes a dense table hashed for good: every group's canonical key,
// made from its stored grouping value, appended to the index in id order.
func (t *groupTable) toHashed() {
	t.layout, t.slots, t.null = layoutHashed, nil, 0
	t.index.Reserve(t.n)
	for id := 0; id < t.n; id++ {
		t.probe = value.AppendGroupKey(t.probe[:0], *t.values.At(id))
		t.index.Append(paged.Hash(t.probe), t.probe)
	}
}

// keyBytes is the total length of the groups' canonical keys, whatever the
// layout: a dense table's are an INTEGER's, the NULL group's one byte.
func (t *groupTable) keyBytes() int64 {
	if t.layout != layoutDense {
		return t.index.KeyBytes()
	}
	n := int64(t.n) * intKeyBytes
	if t.null > 0 {
		n -= intKeyBytes - nullKeyBytes
	}
	return n
}

// keyOf returns group id's canonical key and its hash: the index's, or made
// into the caller's scratch buf from a dense table's grouping value.
func (t *groupTable) keyOf(id int, buf *[]byte) ([]byte, uint32) {
	if t.layout == layoutDense {
		*buf = value.AppendGroupKey((*buf)[:0], *t.values.At(id))
		return *buf, paged.Hash(*buf)
	}
	return t.index.Key(id), t.index.HashOf(id)
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
// the caller drained them into — or, for a stored table's join index
// (newJoinIndex), in the table version's own — and a match is a row's index in
// it: a key's chain is its first and last build row and their count, and next
// links each stored row to the one after it, one entry per build row. Chains
// are tail-linked, so matches come back in build order whatever the layout
// and however skewed the key. Rows with a NULL key column are never stored —
// the equality would be unknown. No key string and no per-key slice is made.
// A table has one of three layouts:
//
//   - dense: one key column whose non-NULL build keys are all INTEGERs
//     spanning at most 2·entries + 16 values (denseSpan). Key k's chain is
//     slots[k − lo], so no key is encoded or hashed, on either side; a probe
//     value that is no dense key (denseKey) matches nothing (denseMatch). It
//     fills serially at any worker count and keeps no paged.Dict and no
//     partitions.
//   - hashed: every other keyed table. Each partition hands every distinct
//     canonical join key a dense id in a paged.Dict, and a key id has a
//     chain. A partition is a range of the key's paged.Hash, one per build
//     worker (one at one worker).
//   - keyless: the join over the empty key has one chain, every build row in
//     build order, so it keeps no partitions: next links each row to the one
//     after it.
//
// Every layout charges an entry the same bytes: its canonical key's length
// and its row's (rowBytes).
type joinTable struct {
	cols    []int // key columns of the build rows; none: keyless
	adm     admission
	metrics *obs.OpMetrics // nil unless metrics collection is on
	rows    []value.Row    // the build rows, in build order
	next    []int32        // by build row: the next row of its chain, or -1
	parts   []joinPart     // hashed only
	// dense: key k's chain is slots[k − lo], an empty one's head -1.
	dense bool
	lo    int64
	slots []joinChain
	// rowBytes is what an entry is charged beyond its key: a join index's
	// (newJoinIndex) is the width its probe reads, not its stored rows'; 0
	// is the entry's row's own (rowStateBytes).
	rowBytes int64
	// entries and keyBytes are what fill stored: the entries and the bytes
	// of their keys, from which every run probing a join index is charged
	// what its own build would have admitted (hashJoinOp.indexed).
	entries, keyBytes atomic.Int64
}

// joinPart is one partition: its keys, and each key id's chain.
type joinPart struct {
	index  paged.Dict
	chains []joinChain
}

// joinChain is the build rows stored under one key: the first and the last
// of them (-1 when there are none) and how many.
type joinChain struct{ head, tail, n int32 }

// noChain is the chain of a key no build row has.
var noChain = joinChain{head: -1, tail: -1}

// intKeyBytes and nullKeyBytes are the lengths of an INTEGER's and of NULL's
// canonical key (value.AppendGroupKey): every key of a dense table.
var (
	intKeyBytes  = int64(len(value.AppendGroupKey(nil, value.NewInt(0))))
	nullKeyBytes = int64(len(value.AppendGroupKey(nil, value.Null)))
)

// denseKey is v's key in a dense store: an INTEGER, or a DOUBLE that holds
// one exactly (value.ExactInt), whose canonical key is that INTEGER's. Any
// other value — NULL, a fraction, NaN, a string, a boolean — has none.
func denseKey(v value.Value) (int64, bool) {
	switch v.Kind() {
	case value.KindInt:
		return v.Int(), true
	case value.KindFloat:
		return value.ExactInt(v.Float())
	}
	return 0, false
}

// denseBound is the most values a dense store of n entries may span.
func denseBound(n int) uint64 { return 2*uint64(n) + 16 }

// denseFits is the dense layout's span rule: keys lo … hi span at most
// denseBound(n) values. hi − lo is taken in uint64, where hi ≥ lo cannot
// overflow it, and compared without the + 1 that wraps at 2⁶⁴ − 1.
func denseFits(lo, hi int64, n int) bool { return uint64(hi)-uint64(lo) < denseBound(n) }

// hashRange is the partition, of n, that a key hashing to hash belongs to:
// the hash's range when [0, 2³²) is cut in n equal parts.
func hashRange(hash uint32, n int) int { return int(uint64(hash) * uint64(n) >> 32) }

// build stores rows in the layout their keys allow. Every entry is admitted on
// its own, so an abort names the exact allocation that crossed the budget;
// build statistics are recorded only for a table that was built to the end.
func (t *joinTable) build(rows []value.Row, workers int) error {
	if len(t.cols) == 0 {
		t.rows, t.next = rows, make([]int32, len(rows))
		if err := t.fill(nil, nil, len(rows)); err != nil {
			return err
		}
		for i := range t.next {
			t.next[i] = int32(i) + 1
		}
		if len(rows) > 0 {
			t.next[len(rows)-1] = -1
		}
		return nil
	}
	lo, span, dense, err := denseSpan(t.adm.gov, rows, t.cols)
	if err != nil {
		return err
	}
	if dense {
		t.rows, t.next = rows, make([]int32, len(rows))
		t.dense, t.lo, t.slots = true, lo, make([]joinChain, span)
		for k := range t.slots {
			t.slots[k] = noChain
		}
		return t.fill(nil, nil, len(rows))
	}
	return t.buildHashed(rows, workers)
}

// denseSpan reports whether rows, keyed on cols, make a dense table, with its
// smallest key and its span: one key column, every non-NULL key an INTEGER,
// and the keys within denseFits of the entries. The scan stops at the first
// key that rules the layout out.
func denseSpan(gov *governor, rows []value.Row, cols []int) (lo int64, span int, ok bool, err error) {
	if len(cols) != 1 {
		return 0, 0, false, nil
	}
	c, entries := cols[0], 0
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, row := range rows {
		if err := gov.tick(); err != nil {
			return 0, 0, false, err
		}
		v := row[c]
		if v.IsNull() {
			continue
		}
		if v.Kind() != value.KindInt {
			return 0, 0, false, nil
		}
		lo, hi = min(lo, v.Int()), max(hi, v.Int())
		if !denseFits(lo, hi, len(rows)) { // the bound, were every row an entry
			return 0, 0, false, nil
		}
		entries++
	}
	if entries == 0 {
		return 0, 0, true, nil
	}
	if denseFits(lo, hi, entries) {
		return lo, int(uint64(hi)-uint64(lo)) + 1, true, nil
	}
	return 0, 0, false, nil
}

// buildHashed stores rows hashed on `workers` workers: a serial scatter of
// row indexes by key hash keeps build order within each partition, then the
// partitions fill in parallel.
func (t *joinTable) buildHashed(rows []value.Row, workers int) error {
	t.rows, t.next = rows, make([]int32, len(rows))
	t.parts = make([]joinPart, workers)
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

// fill stores n build rows under their keys, in order: rows ids, or the
// first n rows when ids is nil. A hashed build fills one partition, part,
// reserving room for a key per row; a dense one fills its slots, and a
// keyless one only admits its rows.
func (t *joinTable) fill(part *joinPart, ids []int32, n int) error {
	if part != nil {
		part.index.Reserve(n)
	}
	var key []byte
	var entries, keyBytes, bytes int64
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
		keyLen := intKeyBytes
		if !t.dense {
			key = appendKey(key[:0], row, t.cols)
			keyLen = int64(len(key))
		}
		entry := keyLen + t.rowBytes
		if t.rowBytes == 0 {
			entry += rowStateBytes(row)
		}
		if err := t.adm.charge(entry); err != nil {
			return err
		}
		switch {
		case t.dense:
			t.linkDense(row[t.cols[0]].Int(), i)
		case part != nil:
			t.link(part, paged.Hash(key), key, i)
		}
		entries++
		keyBytes += keyLen
		bytes += entry
	}
	t.entries.Add(entries)
	t.keyBytes.Add(keyBytes)
	if t.metrics != nil {
		t.metrics.BuildEntries.Add(entries)
		t.metrics.StateBytes.Add(bytes)
	}
	return nil
}

// link appends build row i to the chain of key, whose hash is hash, in part,
// giving a key seen for the first time its id and a chain: this is where a
// partition grows.
func (t *joinTable) link(part *joinPart, hash uint32, key []byte, i int32) {
	id := part.index.Lookup(hash, key)
	if id < 0 {
		id = part.index.Append(hash, key)
		part.chains = append(part.chains, noChain)
	}
	t.push(&part.chains[id], i)
}

// linkDense appends build row i to the chain of key k in a dense table.
func (t *joinTable) linkDense(k int64, i int32) {
	t.push(&t.slots[uint64(k)-uint64(t.lo)], i)
}

// push appends build row i to the tail of chain ch.
func (t *joinTable) push(ch *joinChain, i int32) {
	t.next[i] = -1
	if ch.head < 0 {
		*ch = joinChain{head: i, tail: i, n: 1}
		return
	}
	t.next[ch.tail] = i
	ch.tail = i
	ch.n++
}

// lookup returns the chain of build rows stored under the canonical key key
// in a hashed or keyless table.
func (t *joinTable) lookup(key []byte) joinChain {
	if len(t.cols) == 0 { // keyless: every row
		if n := int32(len(t.rows)); n > 0 {
			return joinChain{head: 0, tail: n - 1, n: n}
		}
		return noChain
	}
	hash := paged.Hash(key)
	part := &t.parts[hashRange(hash, len(t.parts))]
	if id := part.index.Lookup(hash, key); id >= 0 {
		return part.chains[id]
	}
	return noChain
}

// denseMatch returns the chain of a dense table's build rows whose key
// equals v: a dense key (denseKey) is an offset from lo; any other value
// matches nothing, since its canonical key is never an INTEGER's.
func (t *joinTable) denseMatch(v value.Value) joinChain {
	if k, ok := denseKey(v); ok {
		return t.denseChain(k)
	}
	return noChain
}

// denseChain returns key k's chain in a dense table. k − lo is taken in
// uint64, so a key below lo wraps past the slots as one above them does.
func (t *joinTable) denseChain(k int64) joinChain {
	if off := uint64(k) - uint64(t.lo); off < uint64(len(t.slots)) {
		return t.slots[off]
	}
	return noChain
}

// joinIndexKey names a stored table version's join index among its derived
// values (storage.Table.Derived): the index's key columns, in the table's
// rows.
type joinIndexKey string

// newJoinIndex makes tab's join index over cols: a joinTable over the
// version's own rows, so a match is a RowID and no row is copied. One worker
// builds it for the run that first probes it, under that run's governor —
// it ticks, so a cancel stops it — admitting each entry, at the run's
// rowBytes, against the run's budget by refusal. A refused or cancelled
// build gives back what it admitted and returns its error, and the version
// keeps no index; a finished one leaves its charge with the run, as the run's
// own build would have, and keeps no governor.
func newJoinIndex(tab *storage.Table, cols []int, rowBytes int64, gov *governor) (*joinTable, error) {
	t := &joinTable{cols: cols, rowBytes: rowBytes, adm: admission{gov: gov, mode: admitRefuse}}
	if err := t.build(tab.Rows(), 1); err != nil {
		t.adm.release()
		return nil, err
	}
	t.adm = admission{}
	return t, nil
}
