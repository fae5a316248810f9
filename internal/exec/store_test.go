package exec

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/paged"
	"repro/internal/storage"
	"repro/internal/value"
)

// Unit tests of the three state stores (store.go, spill.go): the admission
// rule each takes from the governor, the group tables' chunk-order combine,
// the join table's partition-count independence, and the scalar group.

// kvRows builds (k, v) rows from alternating key/value arguments; a negative
// key is NULL.
func kvRows(kv ...int64) []value.Row {
	rows := make([]value.Row, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		k := value.NewInt(kv[i])
		if kv[i] < 0 {
			k = value.Null
		}
		rows = append(rows, value.Row{k, value.NewInt(kv[i+1])})
	}
	return rows
}

// sumCore is a groupCore computing SUM(v) over kvRows, grouped by the given
// columns.
func sumCore(t testing.TB, gov *governor, mgr *storage.SpillManager, groupCols ...int) *groupCore {
	t.Helper()
	g := &groupCore{groupCols: groupCols, gov: gov, mgr: mgr, par: 1, where: "group"}
	addItems(t, g, &expr.Aggregate{Func: expr.AggSum, Arg: expr.Column("t", "v")})
	return g
}

// addItems gives g more aggregate items over the (k, v) schema.
func addItems(t testing.TB, g *groupCore, items ...expr.Expr) {
	t.Helper()
	for _, item := range items {
		bound, err := expr.Bind(item, keyedValuesPlan("t", 0, 1).Schema())
		must(t, err)
		if !g.addItem(bound) {
			t.Fatalf("%s holds no aggregate", item)
		}
	}
}

// groupRow is group id's output row.
func groupRow(t *testing.T, tab *groupTable, id int) value.Row {
	t.Helper()
	row, err := tab.appendRow(id, make(value.Row, len(tab.core.aggs)), nil)
	must(t, err)
	return row
}

// madeRows makes every row of a grouping's output the way a collection
// does: into one slab, in order.
func madeRows(t testing.TB, out opened) []value.Row {
	t.Helper()
	r := out.made
	r.workers(1)
	rows, cur := r.slots(), r.at(0, 0)
	for i, row := range rows {
		var err error
		if rows[i], err = cur.next(row[:0]); err != nil {
			t.Fatal(err)
		}
	}
	return rows
}

// buildTable folds rows into a fresh table of g.
func buildTable(t testing.TB, g *groupCore, rows []value.Row) *groupTable {
	t.Helper()
	tab, err := g.newTable()
	must(t, err)
	for _, row := range rows {
		if err := tab.add(row); err != nil { // no must: a benchmark's rows would each pay for t.Helper
			t.Fatal(err)
		}
	}
	return tab
}

// combineCuts builds one table per chunk of rows — cut at the given row
// indexes — and combines them in chunk order: the grouping's output rows.
func combineCuts(t *testing.T, g *groupCore, rows []value.Row, cuts []int) []value.Row {
	t.Helper()
	lo := 0
	var tables []*groupTable
	for _, hi := range append(cuts, len(rows)) {
		tables = append(tables, buildTable(t, g, rows[lo:hi]))
		lo = hi
	}
	out, err := g.combine(tables)
	must(t, err)
	return madeRows(t, out)
}

// sameGroups fails unless got is want's groups in id order: grouping values
// of the same kinds and the same output rows.
func sameGroups(t *testing.T, where string, got []value.Row, want *groupTable) {
	t.Helper()
	if len(got) != want.n {
		t.Fatalf("%s: %d groups, want %d", where, len(got), want.n)
	}
	for id, g := range got {
		w := groupRow(t, want, id)
		for c := range w {
			if g[c].Kind() != w[c].Kind() || !value.NullEq(g[c], w[c]) {
				t.Fatalf("%s: group %d is %v, want %v", where, id, g, w)
			}
		}
	}
}

// TestStoreAdmission: the same overflowing input, per store and per rule.
// Without a spill manager a hash store aborts with *ResourceError on the
// entry that crosses the budget and keeps what it charged; with one it
// reports errRefused and holds what it admitted, inside the budget, until it
// releases it — then the budget is back at what other operators hold. The
// sorter aborts the same way without a manager, charged its whole buffer;
// with one it never fails: it flushes runs to stay inside the budget.
func TestStoreAdmission(t *testing.T) {
	const prior, budget = 100, 600
	rows := keyedValuesPlan("t", 64, 64).Rows
	// fill returns the store's admission, if it has one, and what the store reports.
	stores := []struct {
		name   string
		refuse error // what a hash store reports under a manager; nil for the sorter
		fill   func(gov *governor, mgr *storage.SpillManager) (*admission, error)
	}{
		{"group table", errRefused, func(gov *governor, mgr *storage.SpillManager) (*admission, error) {
			tab, err := sumCore(t, gov, mgr, 0).newTable()
			for i := 0; i < len(rows) && err == nil; i++ {
				_, err = tab.rowGroup(rows[i])
			}
			return &tab.adm, err
		}},
		{"join table", errRefused, func(gov *governor, mgr *storage.SpillManager) (*admission, error) {
			tab := &joinTable{cols: []int{0}, adm: admissionFor(gov, mgr, "join")}
			return &tab.adm, tab.build(rows, 1)
		}},
		{"sorter", nil, func(gov *governor, mgr *storage.SpillManager) (*admission, error) {
			x := newSorter(gov, mgr, nil, "sort", 1, func(a, b value.Row) int { return value.OrderKey(a[1], b[1]) })
			var err error
			if mgr == nil {
				err = x.addAll(append([]value.Row(nil), rows...))
			}
			for i := 0; i < len(rows) && mgr != nil && err == nil; i++ {
				err = x.add(rows[i], rowStateBytes(rows[i]))
			}
			_, err = x.finish(err)
			if cerr := x.close(); err == nil {
				err = cerr
			}
			return nil, err
		}},
	}
	for _, st := range stores {
		for _, spill := range []bool{false, true} {
			name := st.name + "/no spill manager"
			if spill {
				name = st.name + "/spill manager"
			}
			t.Run(name, func(t *testing.T) {
				gov := newGovernor(&Options{MemoryBudget: budget})
				must(t, gov.charge("another operator", prior))
				var mgr *storage.SpillManager
				if spill {
					mgr = storage.NewSpillManager(t.TempDir())
					defer mgr.Cleanup()
				}
				adm, err := st.fill(gov, mgr)
				used := gov.used.Load()
				switch {
				case st.refuse == nil && spill:
					if err != nil || used > budget || mgr.Created() == 0 || mgr.Live() != 0 {
						t.Fatalf("external sort: err=%v used=%d (budget %d) files=%d live=%d",
							err, used, budget, mgr.Created(), mgr.Live())
					}
				case !spill:
					var re *ResourceError
					if !errors.As(err, &re) || re.Used <= budget || used != re.Used {
						t.Fatalf("abort: err=%v used=%d, want *ResourceError holding its charge", err, used)
					}
				default:
					if err != st.refuse || used <= prior || used > budget {
						t.Fatalf("refuse: err=%v used=%d, want errRefused holding its admitted bytes over the prior %d inside the budget %d",
							err, used, prior, budget)
					}
					if adm.release(); gov.used.Load() != prior {
						t.Fatalf("released: used=%d, want the prior %d", gov.used.Load(), prior)
					}
				}
			})
		}
	}
}

// TestGroupTableCombine: however the input is cut into chunks — two, three
// and eight tables among them, empty ones too —, combining the chunks'
// partial tables yields the one-pass table's rows — groups in global
// first-appearance order, each holding the grouping values of the first row
// of the group in the whole input (key 1 arrives as an integer and later as
// the =ⁿ-equal 1.0, and stays the integer), sums merged.
func TestGroupTableCombine(t *testing.T) {
	rows := kvRows(2, 1, 1, 2, 3, 4, 1, 8, 2, 16, 4, 32, 3, 64)
	rows[3][0] = value.NewFloat(1)
	g := sumCore(t, nil, nil, 0)
	want := buildTable(t, g, rows)
	if first := groupRow(t, want, 1); first[0].Kind() != value.KindInt || first[1].Int() != 10 {
		t.Fatalf("group 1 is %v, want the integer key 1 with sum 10", first)
	}
	for _, cuts := range [][]int{{}, {1}, {3}, {6}, {2, 4}, {1, 2, 3, 4, 5, 6}, {0, 7}, {0, 1, 2, 3, 4, 5, 6}, {1, 3, 3, 4, 5, 6, 7}} {
		sameGroups(t, fmt.Sprintf("cuts %v", cuts), combineCuts(t, g, rows, cuts), want)
	}
}

// TestGroupTableCombineBoxedStates: the aggregates whose states hold
// pointers — DISTINCT's value set, whose merge is a union, MIN and MAX over
// strings — and an arithmetic shell come through combine as through one pass,
// for the keyed and the scalar group, at one chunk and at two, three and
// eight.
func TestGroupTableCombineBoxedStates(t *testing.T) {
	words := []string{"pear", "fig", "apple", "fig", "quince", "apple", "kiwi", "pear", "date"}
	rows := make([]value.Row, 0, 3*len(words))
	for i := 0; i < 3*len(words); i++ {
		v := value.NewString(words[i%len(words)])
		if i%7 == 3 {
			v = value.Null
		}
		rows = append(rows, value.Row{value.NewInt(int64(i % 4)), v})
	}
	v := expr.Column("t", "v")
	items := []expr.Expr{
		&expr.Aggregate{Func: expr.AggCount, Arg: v, Distinct: true},
		&expr.Aggregate{Func: expr.AggMin, Arg: v},
		&expr.Aggregate{Func: expr.AggMax, Arg: v, Distinct: true},
		expr.NewBinary(expr.OpAdd, &expr.Aggregate{Func: expr.AggCount, Arg: v}, &expr.Aggregate{Func: expr.AggCountStar}),
	}
	for _, groupCols := range [][]int{{0}, {}} {
		g := &groupCore{groupCols: groupCols, par: 1, where: "group"}
		addItems(t, g, items...)
		want := buildTable(t, g, rows)
		// The one-pass table against sets kept by hand.
		for id := 0; id < want.n; id++ {
			seen := map[string]bool{}
			var nonNull, all int64
			lo, hi := "", ""
			for _, row := range rows {
				if len(groupCols) == 1 && row[0].Int() != int64(id) {
					continue
				}
				all++
				if row[1].IsNull() {
					continue
				}
				w := row[1].Str()
				if nonNull++; len(seen) == 0 || w < lo {
					lo = w
				}
				if len(seen) == 0 || w > hi {
					hi = w
				}
				seen[w] = true
			}
			got := groupRow(t, want, id)[len(groupCols):]
			if got[0].Int() != int64(len(seen)) || got[1].Str() != lo || got[2].Str() != hi || got[3].Int() != nonNull+all {
				t.Fatalf("group %d of %v: %v, want %d distinct, %q..%q, %d", id, groupCols, got, len(seen), lo, hi, nonNull+all)
			}
		}
		for _, cuts := range [][]int{{}, {13}, {5, 17}, {9, 18}, {3, 6, 9, 12, 15, 18, 21}} {
			sameGroups(t, fmt.Sprintf("group by %v, cuts %v", groupCols, cuts), combineCuts(t, g, rows, cuts), want)
		}
	}
}

// TestGroupTableIndex drives the table with chosen hashes — lookup and insert
// take the hash as an argument. Keys that share a hash (one probe sequence,
// one tag) are told apart by their bytes, a key that is a prefix of another
// included; and across growth over several pages of groups and many rehashes
// of the index (internal/paged counts them) every earlier key is still found
// under its id, with its own key bytes and grouping values.
func TestGroupTableIndex(t *testing.T) {
	t.Run("collisions", func(t *testing.T) {
		tab, err := sumCore(t, nil, nil, 0).newTable()
		must(t, err)
		const hash = 0xfeed0007
		keys := []string{"ab", "abc", "a", "b", "abd", ""}
		for id, key := range keys {
			if got := tab.index.Lookup(hash, []byte(key)); got != -1 {
				t.Fatalf("key %q found as group %d before it was inserted", key, got)
			}
			got, err := tab.insert(hash, []byte(key), kvRows(int64(id), 0)[0])
			must(t, err)
			if got != id {
				t.Fatalf("key %q became group %d, want %d", key, got, id)
			}
		}
		// Other groups, in the colliding keys' probe sequence too.
		for i := 0; i < 40; i++ {
			_, err := tab.insert(hash+uint32(i%3), []byte{'x', byte(i)}, kvRows(100, 0)[0])
			must(t, err)
		}
		for id, key := range keys {
			if got := tab.index.Lookup(hash, []byte(key)); got != id || string(tab.index.Key(id)) != key || tab.values.At(id).Int() != int64(id) {
				t.Fatalf("key %q is group %d, want group %d with key %q and value %d", key, got, id, tab.index.Key(id), id)
			}
			if got := tab.index.Lookup(hash+1, []byte(key)); got != -1 {
				t.Fatalf("key %q found under another hash as group %d", key, got)
			}
		}
		if got := tab.index.Lookup(hash, []byte("abcd")); got != -1 {
			t.Fatalf("a key never inserted found as group %d", got)
		}
	})
	t.Run("growth", func(t *testing.T) {
		const groups = 3*paged.Size + 100
		g := sumCore(t, nil, nil, 0, 1)
		tab, err := g.newTable()
		must(t, err)
		row := func(i int) value.Row {
			// A long string key now and then: longer than a chunk of the key arena.
			k := value.NewInt(int64(i))
			if i%500 == 7 {
				k = value.NewString(strings.Repeat("k", 20000+i))
			}
			return value.Row{k, value.NewInt(int64(i % 3))}
		}
		check := func(upTo int) {
			t.Helper()
			for i := 0; i < upTo; i++ {
				r := row(i)
				id, err := tab.rowGroup(r)
				must(t, err)
				if id != i || !value.NullEq(*tab.values.At(2 * i), r[0]) || !value.NullEq(*tab.values.At(2*i + 1), r[1]) {
					t.Fatalf("with %d groups, key %d is group %d", tab.n, i, id)
				}
			}
		}
		for i := 0; i < groups; i++ {
			must(t, tab.add(row(i)))
			if n := i + 1; n&(n-1) == 0 { // around each doubling of the index
				check(n)
			}
		}
		check(groups)
		if tab.n != groups || tab.index.Len() != groups {
			t.Fatalf("%d groups under %d keys, want %d", tab.n, tab.index.Len(), groups)
		}
		// Combined after an empty table, the groups keep their order and sums.
		empty, err := g.newTable()
		must(t, err)
		out, err := g.combine([]*groupTable{empty, tab})
		must(t, err)
		sameGroups(t, "combined", madeRows(t, out), tab)
	})
}

// TestArithmeticShellIsBoundOnce: an item that is arithmetic over aggregates
// — COUNT(v) + SUM(v) * 2 — has each aggregate subterm bound to its
// accumulator column when the node is compiled, so finishing a group
// evaluates the shell over the group's results and builds nothing: combining
// 1 000 groups and making their rows costs the same few allocations — the
// rows' slab and headers, the maker and its scratch — as combining ten.
func TestArithmeticShellIsBoundOnce(t *testing.T) {
	v := expr.Column("t", "v")
	g := sumCore(t, nil, nil, 0)
	addItems(t, g, expr.NewBinary(expr.OpAdd,
		&expr.Aggregate{Func: expr.AggCount, Arg: v},
		expr.NewBinary(expr.OpMul, &expr.Aggregate{Func: expr.AggSum, Arg: v}, expr.IntLit(2))))
	allocs := func(groups int) float64 {
		tables := []*groupTable{buildTable(t, g, keyedValuesPlan("t", 3*groups, groups).Rows)}
		var rows []value.Row
		var err error
		avg := testing.AllocsPerRun(10, func() {
			var out opened
			if out, err = g.combine(tables); err != nil {
				return
			}
			rows = out.made.slots()
			out.made.workers(1)
			cur := out.made.at(0, 0)
			for i := 0; i < len(rows) && err == nil; i++ {
				rows[i], err = cur.next(rows[i][:0])
			}
		})
		must(t, err)
		// Group k holds v = k, k+groups, k+2*groups.
		if len(rows) != groups {
			t.Fatalf("%d groups finished, want %d", len(rows), groups)
		}
		for k, row := range rows {
			if sum := 3*int64(k) + 3*int64(groups); row[0].Int() != int64(k) || row[1].Int() != sum || row[2].Int() != 3+2*sum {
				t.Fatalf("group %d is %v, want SUM %d and COUNT + SUM * 2 = %d", k, row, sum, 3+2*sum)
			}
		}
		return avg
	}
	if small, large := allocs(10), allocs(1000); small != large || large > 6 {
		t.Errorf("finishing 10 groups allocates %.0f times, 1000 groups %.0f times: want the same, at most 6", small, large)
	}
}

// TestCombineDisjointAllocatesNothingPerGroup: two partial tables whose keys
// are disjoint each own their groups, so combining them moves no group and
// grows no table — it allocates the same bytes for a hundred groups a table as
// for ten thousand.
func TestCombineDisjointAllocatesNothingPerGroup(t *testing.T) {
	g := sumCore(t, nil, nil, 0)
	bytes := func(groups int) uint64 {
		rows := keyedValuesPlan("t", 2*groups, 2*groups).Rows // keys 0 .. 2*groups-1, each once
		tables := []*groupTable{buildTable(t, g, rows[:groups]), buildTable(t, g, rows[groups:])}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		out, err := g.combine(tables)
		runtime.ReadMemStats(&after)
		must(t, err)
		if n := out.made.len(); n != 2*groups {
			t.Fatalf("%d groups combined, want %d", n, 2*groups)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	if small, large := bytes(100), bytes(10000); large > small {
		t.Errorf("combining two disjoint tables allocates %d bytes at 100 groups each, %d bytes at 10000: want no more", small, large)
	}
}

// chainRows walks a join chain: the build rows stored under its key, in
// chain order. It fails unless the walk ends after the chain's count — a
// chain linked into a cycle stops one row past it.
func chainRows(t testing.TB, tab *joinTable, ch joinChain) []value.Row {
	t.Helper()
	var rows []value.Row
	for m := ch.head; m >= 0; m = tab.next[m] {
		if rows = append(rows, tab.rows[m]); len(rows) > int(ch.n) {
			break
		}
	}
	if len(rows) != int(ch.n) {
		t.Fatalf("a chain of %d rows walks %d or more", ch.n, len(rows))
	}
	return rows
}

// sameBuildRows fails unless got holds exactly want's rows — the same rows,
// not equal ones — in want's order.
func sameBuildRows(t *testing.T, where string, got, want []value.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", where, len(got), len(want))
	}
	for i := range got {
		if &got[i][0] != &want[i][0] {
			t.Fatalf("%s: match %d is %v, want %v (build order)", where, i, got[i], want[i])
		}
	}
}

// TestJoinTablePartitions: a key's matches are the build rows with that key,
// in build order, at any partition count — a key stored 10 000 times
// included, whose chain builds in linear time; NULL keys are never stored,
// so a build of NULLs only, like an empty one, holds nothing; and keys forced
// under one hash keep chains of their own.
func TestJoinTablePartitions(t *testing.T) {
	key0 := func(k int64) []byte { return appendKey(nil, kvRows(k, 0)[0], []int{0}) }
	t.Run("build order", func(t *testing.T) {
		rows := kvRows(3, 0, 1, 1, -1, 2, 3, 3, 2, 4, 1, 5, 3, 6, -1, 7, 9, 8)
		for _, workers := range []int{1, 2, 3, 8} {
			tab := &joinTable{cols: []int{0}}
			must(t, tab.build(rows, workers))
			if len(tab.parts) != workers {
				t.Fatalf("workers=%d: %d partitions", workers, len(tab.parts))
			}
			for k := int64(-1); k < 11; k++ {
				var want []value.Row
				for _, row := range rows {
					if k >= 0 && !row[0].IsNull() && row[0].Int() == k {
						want = append(want, row)
					}
				}
				sameBuildRows(t, fmt.Sprintf("workers=%d key=%d", workers, k), chainRows(t, tab, tab.lookup(key0(k))), want)
			}
		}
	})
	t.Run("one key 10 000 times", func(t *testing.T) {
		// A chain that were walked to its end on every insert would take 16
		// times as long for 4 times the rows; tail-linking takes 4. The
		// fastest of five builds is compared, so a collection or a
		// descheduling in one of them does not count.
		fastest := func(rows []value.Row) time.Duration {
			best := time.Duration(1 << 62)
			for range 5 {
				start := time.Now()
				must(t, (&joinTable{cols: []int{0}}).build(rows, 1))
				best = min(best, time.Since(start))
			}
			return best
		}
		small, large := keyedValuesPlan("t", 10000, 1).Rows, keyedValuesPlan("t", 40000, 1).Rows
		if s, l := fastest(small), fastest(large); l > 10*s {
			t.Errorf("one key stored 40 000 times builds in %v, 10 000 times in %v: not linear", l, s)
		}
		for _, workers := range []int{1, 2} {
			tab := &joinTable{cols: []int{0}}
			must(t, tab.build(small, workers))
			sameBuildRows(t, fmt.Sprintf("workers=%d", workers), chainRows(t, tab, tab.lookup(appendKey(nil, small[0], []int{0}))), small)
		}
	})
	t.Run("nothing stored", func(t *testing.T) {
		for _, rows := range [][]value.Row{kvRows(-1, 1, -1, 2, -1, 3), nil} {
			for _, workers := range []int{1, 2, 8} {
				tab := &joinTable{cols: []int{0}}
				must(t, tab.build(rows, workers))
				for _, part := range tab.parts {
					if part.index.Len() != 0 || len(part.chains) != 0 {
						t.Fatalf("%d rows at workers=%d: a partition holds %d keys", len(rows), workers, part.index.Len())
					}
				}
				if ch := tab.lookup(key0(1)); ch.n != 0 || ch.head != -1 {
					t.Fatalf("%d rows at workers=%d: key 1 has a chain of %d", len(rows), workers, ch.n)
				}
			}
		}
	})
	t.Run("collisions", func(t *testing.T) {
		const hash = 0xfeed0007
		keys := []string{"ab", "abc", "a", "b", "abd", ""}
		rows := kvRows(0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11)
		tab := &joinTable{cols: []int{0}, rows: rows, next: make([]int32, len(rows)), parts: make([]joinPart, 1)}
		part := &tab.parts[0]
		for i, row := range rows { // row i goes under keys[i % 6]
			tab.link(part, hash, []byte(keys[row[0].Int()]), int32(i))
		}
		for id, key := range keys {
			got := part.index.Lookup(hash, []byte(key))
			if got != id {
				t.Fatalf("key %q is id %d, want %d", key, got, id)
			}
			sameBuildRows(t, fmt.Sprintf("key %q", key), chainRows(t, tab, part.chains[got]), []value.Row{rows[id], rows[id+len(keys)]})
		}
		if got := part.index.Lookup(hash, []byte("abcd")); got != -1 {
			t.Fatalf("a key never stored found as %d", got)
		}
	})
}

// TestScalarGroupEmptyInput: the scalar group's table holds its one state
// from the start, so aggregating no rows still yields one row, as the sink of
// a pipeline that runs no chunk, at one worker and at four.
func TestScalarGroupEmptyInput(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g := sumCore(t, nil, nil)
		g.par = workers
		g.input = &pipeOp{src: &leafRows{}, par: workers, node: &nodeShape{node: valuesPlan(0)}}
		out, err := g.foldPipeline()
		must(t, err)
		rows := madeRows(t, out)
		if len(rows) != 1 || len(rows[0]) != 1 || !rows[0][0].IsNull() {
			t.Fatalf("workers=%d: scalar SUM over no rows = %v, want one row of one NULL", workers, rows)
		}
	}
}
