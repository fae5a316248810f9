package exec

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/vec"
)

// The dense join table (store.go): a single INTEGER key within a span of
// 2·entries + 16 is found by offset, and must answer every probe as the
// hashed layout over the same rows does.

// keyRows is (k, i) rows, i the row's index, over the given keys.
func keyRows(keys ...value.Value) []value.Row {
	rows := make([]value.Row, len(keys))
	for i, k := range keys {
		rows[i] = value.Row{k, value.NewInt(int64(i))}
	}
	return rows
}

// intKeys is keyRows over INTEGER keys.
func intKeys(keys ...int64) []value.Row {
	vs := make([]value.Value, len(keys))
	for i, k := range keys {
		vs[i] = value.NewInt(k)
	}
	return keyRows(vs...)
}

// chainIDs is column 1 of a chain's rows — the build rows' indexes here — in
// chain order.
func chainIDs(t testing.TB, tab *joinTable, ch joinChain) []int64 {
	t.Helper()
	var ids []int64
	for _, row := range chainRows(t, tab, ch) {
		ids = append(ids, row[1].Int())
	}
	return ids
}

// denseBuild is n build rows (k, i), about one in ten with a NULL key, whose
// other keys lie within a span the dense layout takes — at most
// 2·entries + 16 values — from anchor upward (dir 1) or downward (dir −1).
func denseBuild(rng *rand.Rand, n int, anchor, dir int64) []value.Row {
	null := make([]bool, n)
	entries := 0
	for i := range null {
		if null[i] = rng.IntN(10) == 0; !null[i] {
			entries++
		}
	}
	width := int64(1 + rng.IntN(2*entries+16))
	keys := make([]value.Value, n)
	for i := range keys {
		if !null[i] {
			keys[i] = value.NewInt(anchor + dir*rng.Int64N(width))
		}
	}
	return keyRows(keys...)
}

// denseProbes is the probe values tried against a build whose keys lie in
// [lo, hi]: every INTEGER from lo − 2 to hi + 2 that int64 holds, each also
// as a DOUBLE and as that DOUBLE plus a half; and 3, 3.0, 3.5, −0.0, NaN,
// ±Inf, ±2⁶³ as DOUBLEs, MinInt64, MaxInt64, the string "3", TRUE and NULL.
func denseProbes(lo, hi int64) []value.Value {
	vs := []value.Value{
		value.NewInt(3), value.NewFloat(3), value.NewFloat(3.5), value.NewFloat(math.Copysign(0, -1)),
		value.NewFloat(math.NaN()), value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1)),
		value.NewFloat(0x1p63), value.NewFloat(-0x1p63), value.NewInt(math.MinInt64), value.NewInt(math.MaxInt64),
		value.NewString("3"), value.NewBool(true), value.Null,
	}
	add := func(k int64) {
		vs = append(vs, value.NewInt(k), value.NewFloat(float64(k)), value.NewFloat(float64(k)+0.5))
	}
	for d := int64(1); d <= 2; d++ {
		if lo >= math.MinInt64+d {
			add(lo - d)
		}
		if hi <= math.MaxInt64-d {
			add(hi + d)
		}
	}
	for k := lo; k <= hi; k++ {
		add(k)
		if k == math.MaxInt64 {
			break
		}
	}
	return vs
}

// keyRange is the smallest and the largest non-NULL key in column 0 of rows;
// 0 and −1 when there is none.
func keyRange(rows []value.Row) (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	for _, row := range rows {
		if !row[0].IsNull() {
			lo, hi = min(lo, row[0].Int()), max(hi, row[0].Int())
		}
	}
	if lo > hi {
		return 0, -1
	}
	return lo, hi
}

// storedJoinIndex is newJoinIndex over a stored table holding rows.
func storedJoinIndex(t testing.TB, rows []value.Row) *joinTable {
	t.Helper()
	s := storage.NewStore(schema.NewCatalog())
	must(t, s.CreateTable(&schema.Table{Name: "r", Columns: []schema.Column{
		{Name: "k", Type: value.KindInt}, {Name: "i", Type: value.KindInt},
	}}))
	for _, row := range rows {
		must(t, s.Insert("r", row))
	}
	tab, err := s.Table("r")
	must(t, err)
	idx, err := newJoinIndex(tab, []int{0}, 40, nil)
	must(t, err)
	return idx
}

// probeForms is what a join probing tab on column 0 emits for probes — rows
// (key, index) — in batch form and in row form: each joined row as its probe
// row's index and its build row's.
func probeForms(t testing.TB, tab *joinTable, probes []value.Row) (batch, row []string) {
	t.Helper()
	j := &hashJoinOp{lcols: []int{0}, table: tab, width: 4, probes: make([]probeState, 1)}
	var scratch value.Row
	emitBatch := j.probeBatches(0, func(b *vec.Batch) error {
		for i := 0; i < b.Len(); i++ {
			scratch = b.ReadRow(i, scratch)
			batch = append(batch, fmt.Sprint(scratch[1], ":", scratch[3]))
		}
		return nil
	})
	for _, b := range vec.Columnarize(probes, 2, 0) {
		must(t, emitBatch(b))
	}
	emitRow := j.probeInto(make(value.Row, 4), func(r value.Row) error {
		row = append(row, fmt.Sprint(r[1], ":", r[3]))
		return nil
	})
	for _, r := range probes {
		must(t, emitRow(r))
	}
	return batch, row
}

// TestDenseJoinTableDifferential: over seeded random build multisets — NULL
// keys, negative keys, duplicates, spans ending at MinInt64 and at MaxInt64 —
// a dense table built at 1, 2 and 8 workers and a stored table's join index
// (newJoinIndex) return, for every probe value, the chain a hashed table over
// the same rows returns, in build order: INTEGERs across and past the span,
// DOUBLEs holding one exactly (3.0) or not (3.5), a string, a boolean and
// NULL. A join probing them emits, in batch form and in row form, the rows a
// join probing the hashed table emits: over INTEGER probe vectors (read as
// int payload), DOUBLE ones, and ones mixing every kind.
func TestDenseJoinTableDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(52, 1994))
	anchors := []struct{ at, dir int64 }{{0, 1}, {-40, 1}, {math.MinInt64, 1}, {math.MaxInt64, -1}, {1 << 40, -1}}
	for trial := range 60 {
		a := anchors[trial%len(anchors)]
		rows := denseBuild(rng, rng.IntN(150), a.at, a.dir)
		hashed := &joinTable{cols: []int{0}}
		must(t, hashed.buildHashed(rows, 1))
		names := []string{"workers=1", "workers=2", "workers=8", "join index"}
		tables := make([]*joinTable, len(names))
		for w, workers := range []int{1, 2, 8} {
			tables[w] = &joinTable{cols: []int{0}}
			must(t, tables[w].build(rows, workers))
		}
		tables[3] = storedJoinIndex(t, rows)
		probes := denseProbes(keyRange(rows))
		for n, tab := range tables {
			if !tab.dense || tab.parts != nil {
				t.Fatalf("trial %d, %s: dense=%v with %d partitions over %v", trial, names[n], tab.dense, len(tab.parts), rows)
			}
			for _, v := range probes {
				if got, want := chainIDs(t, tab, probeValue(tab, v)), chainIDs(t, hashed, probeValue(hashed, v)); !slices.Equal(got, want) {
					t.Fatalf("trial %d, %s: probe %v matches rows %v, the hashed table %v", trial, names[n], v, got, want)
				}
			}
		}
		var ints, floats []value.Value
		for _, v := range probes {
			switch v.Kind() {
			case value.KindInt:
				ints = append(ints, v)
			case value.KindFloat:
				floats = append(floats, v)
			}
		}
		for _, set := range [][]value.Value{ints, floats, probes} {
			probeRows := keyRows(set...)
			_, want := probeForms(t, hashed, probeRows)
			for _, tab := range []*joinTable{tables[0], tables[3]} {
				batch, row := probeForms(t, tab, probeRows)
				if !slices.Equal(batch, want) || !slices.Equal(row, want) {
					t.Fatalf("trial %d: a dense probe of %v emits %v in batches and %v in rows, the hashed one %v", trial, set, batch, row, want)
				}
			}
		}
	}
}

// TestDenseJoinTableEligibility: a table is dense exactly when it has one key
// column, every non-NULL key is an INTEGER, and hi − lo + 1 ≤ 2·entries + 16,
// NULL keys being no entries; the span is taken without overflow at the ends
// of int64. Either way every build row's key finds the chain the hashed
// layout gives it, at one worker and at two.
func TestDenseJoinTableEligibility(t *testing.T) {
	nulls := intKeys(0, 20, 0, 0)
	nulls[2][0], nulls[3][0] = value.Null, value.Null
	for _, c := range []struct {
		name  string
		rows  []value.Row
		cols  []int
		dense bool
		span  int
	}{
		{"span at the bound", intKeys(0, 1, 2, 3, 25), []int{0}, true, 26}, // 5 entries: 2·5 + 16
		{"one past the bound", intKeys(0, 1, 2, 3, 26), []int{0}, false, 0},
		{"negative span at the bound", intKeys(-25, -1, -25, -3, 0), []int{0}, true, 26},
		{"negative, one past", intKeys(-26, -1, -26, -3, 0), []int{0}, false, 0},
		{"NULL keys are no entries", nulls, []int{0}, false, 0}, // 2 entries: 20 values, span 21
		{"one entry", intKeys(-7), []int{0}, true, 1},
		{"a DOUBLE build key", keyRows(value.NewFloat(1), value.NewFloat(2), value.NewFloat(3)), []int{0}, false, 0},
		{"INTEGER and DOUBLE keys", keyRows(value.NewInt(1), value.NewFloat(2), value.NewInt(3)), []int{0}, false, 0},
		{"string keys", keyRows(value.NewString("a"), value.NewString("b")), []int{0}, false, 0},
		{"two key columns", intKeys(0, 1, 2, 1), []int{0, 1}, false, 0},
		{"MinInt64 and MaxInt64", intKeys(math.MinInt64, math.MaxInt64), []int{0}, false, 0},
		{"MinInt64, 0 and MaxInt64", intKeys(0, math.MinInt64, 0, math.MaxInt64, 0), []int{0}, false, 0},
		{"2⁶² apart each way", intKeys(-1<<62, 1<<62), []int{0}, false, 0},
		{"at MinInt64", intKeys(math.MinInt64+17, math.MinInt64, math.MinInt64+1), []int{0}, true, 18},
		{"at MaxInt64", intKeys(math.MaxInt64, math.MaxInt64-17), []int{0}, true, 18},
	} {
		for _, workers := range []int{1, 2} {
			tab, hashed := &joinTable{cols: c.cols}, &joinTable{cols: c.cols}
			must(t, tab.build(c.rows, workers))
			must(t, hashed.buildHashed(c.rows, workers))
			if tab.dense != c.dense || len(tab.slots) != c.span {
				t.Fatalf("%s, workers=%d: dense=%v over %d slots, want dense=%v over %d", c.name, workers, tab.dense, len(tab.slots), c.dense, c.span)
			}
			for _, row := range c.rows {
				got := chainIDs(t, tab, probeKey(tab, row, c.cols))
				if want := chainIDs(t, hashed, probeKey(hashed, row, c.cols)); !slices.Equal(got, want) {
					t.Fatalf("%s, workers=%d: key %v matches rows %v, the hashed table %v", c.name, workers, row[c.cols[0]], got, want)
				}
			}
		}
	}
}
