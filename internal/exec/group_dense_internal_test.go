package exec

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/value"
	"repro/internal/vec"
)

// The dense group table (store.go): a one-column table whose keys are
// INTEGERs (or DOUBLEs holding one exactly) within a span of 2·G + 16 finds a
// group by offset, and must hand out the ids, the output rows and the key
// bytes a hashed table over the same rows does.

// exactRow renders row with every value's kind and exact bits: 3 and 3.0, 0.0
// and −0.0 differ.
func exactRow(row value.Row) string {
	var b strings.Builder
	for _, v := range row {
		if v.Kind() == value.KindFloat {
			fmt.Fprintf(&b, "f%x ", math.Float64bits(v.Float()))
			continue
		}
		fmt.Fprintf(&b, "%d:%v ", v.Kind(), v)
	}
	return b.String()
}

// denseCore is SUM(v) and COUNT(v) per k over (k, v) rows, ready for either
// source form.
func denseCore(t testing.TB) *groupCore {
	g := sumCore(t, nil, nil, 0)
	addItems(t, g, &expr.Aggregate{Func: expr.AggCount, Arg: expr.Column("t", "v")})
	g.initAggCols()
	return g
}

// folded is what a grouping's partial tables made of some rows: its output
// rows (exactRow), each table's key bytes and layout, and whether a table
// went from dense to hashed on the way.
type folded struct {
	rows      []string
	keyBytes  []int64
	layouts   []groupLayout
	converted bool
}

// foldChunks folds rows through g's partial tables as `workers` chunks do —
// row by row, or in batches of batch rows when batch > 0 — every table kept
// hashed when hashed is set, and combines them.
func foldChunks(t *testing.T, g *groupCore, rows []value.Row, workers, batch int, hashed bool) folded {
	t.Helper()
	g.par = workers
	s := &partialTables{g: g}
	size := s.begin(len(rows), 0)
	var f folded
	for c := range s.tables {
		chunk := rows[c*size : min((c+1)*size, len(rows))]
		var steps []func() error
		if batch == 0 {
			emit, err := s.bind(0, c)
			must(t, err)
			for _, row := range chunk {
				steps = append(steps, func() error { return emit(row) })
			}
		} else {
			fold, err := s.bindBatch(0, c)
			must(t, err)
			for _, b := range vec.Columnarize(chunk, 2, batch) {
				steps = append(steps, func() error { return fold(b) })
			}
		}
		tab := s.tables[c]
		if hashed {
			tab.layout = layoutHashed
		}
		for _, step := range steps {
			was := tab.layout
			must(t, step())
			f.converted = f.converted || was == layoutDense && tab.layout == layoutHashed
		}
	}
	for _, tab := range s.tables {
		f.keyBytes = append(f.keyBytes, tab.keyBytes())
		f.layouts = append(f.layouts, tab.layout)
	}
	out, err := g.combine(s.tables)
	must(t, err)
	for _, row := range madeRows(t, out) {
		f.rows = append(f.rows, exactRow(row))
	}
	return f
}

// denseMultiset is n (k, i) rows in random arrival order over a pool of
// about groups keys lying upward (dir 1) or downward (dir −1) from anchor —
// within a span the dense layout takes, or 1 000 apart when sparse — about
// one in ten NULL. mixed turns some keys into DOUBLEs holding them and adds
// −0.0, 3.0 and 3.5; late appends a string, a NaN or a 3.5 as the last rows.
func denseMultiset(rng *rand.Rand, n, groups int, anchor, dir int64, sparse, mixed, late bool) []value.Row {
	width := int64(1 + rng.IntN(2*groups+16))
	pool := make([]value.Value, groups)
	for i := range pool {
		off := rng.Int64N(width)
		if sparse {
			off = int64(i) * 1000
		}
		pool[i] = value.NewInt(anchor + dir*off)
		if mixed && rng.IntN(4) == 0 {
			pool[i] = value.NewFloat(float64(pool[i].Int()))
		}
	}
	if mixed {
		pool = append(pool, value.NewFloat(math.Copysign(0, -1)), value.NewFloat(3), value.NewFloat(3.5))
	}
	keys := make([]value.Value, n)
	for i := range keys {
		if rng.IntN(10) > 0 {
			keys[i] = pool[rng.IntN(len(pool))]
		}
	}
	if late {
		tail := []value.Value{value.NewString("3"), value.NewFloat(math.NaN()), value.NewFloat(3.5)}
		keys = append(keys, tail[rng.IntN(len(tail))], pool[0])
	}
	return keyRows(keys...)
}

// TestDenseGroupTableDifferential: over seeded random multisets — NULL keys,
// negative keys, duplicates, shuffled arrival, spans ending at MinInt64 and
// at MaxInt64, DOUBLEs 3.0, −0.0 and 3.5 among INTEGERs, a string, NaN or
// 3.5 arriving after the table went dense — the group tables folded at 1, 2
// and 8 workers, in row form and in batches, make the output rows, in the
// same order and with the same kinds and bits, and the key bytes of tables
// forced to stay hashed over the same chunks. Across the trials a table goes
// dense, one goes from dense to hashed mid-stream, and combine merges tables
// of different layouts.
func TestDenseGroupTableDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(54, 1994))
	anchors := []struct{ at, dir int64 }{{0, 1}, {-40, 1}, {math.MinInt64, 1}, {math.MaxInt64, -1}, {1 << 40, -1}}
	var dense, converted, mixedCombine int
	for trial := range 60 {
		a := anchors[trial%len(anchors)]
		rows := denseMultiset(rng, rng.IntN(400), 1+rng.IntN(120), a.at, a.dir, trial%7 == 6, trial%3 == 1, trial%4 == 3)
		g := denseCore(t)
		batch := 1 + rng.IntN(64)
		for _, workers := range []int{1, 2, 8} {
			for _, size := range []int{0, batch} {
				name := fmt.Sprintf("trial %d, workers=%d, batch=%d", trial, workers, size)
				got, want := foldChunks(t, g, rows, workers, size, false), foldChunks(t, g, rows, workers, size, true)
				if !slices.Equal(got.rows, want.rows) {
					t.Fatalf("%s: rows\n%v\nthe hashed tables'\n%v", name, got.rows, want.rows)
				}
				if !slices.Equal(got.keyBytes, want.keyBytes) {
					t.Fatalf("%s: key bytes %v, the hashed tables' %v", name, got.keyBytes, want.keyBytes)
				}
				if slices.Contains(got.layouts, layoutDense) {
					dense++
					if slices.ContainsFunc(got.layouts, func(l groupLayout) bool { return l != layoutDense }) {
						mixedCombine++
					}
				}
				if got.converted {
					converted++
				}
			}
		}
	}
	t.Logf("%d folds with a dense table, %d converted mid-stream, %d combining layouts", dense, converted, mixedCombine)
	if dense == 0 || converted == 0 || mixedCombine == 0 {
		t.Fatalf("%d folds with a dense table, %d converted mid-stream, %d combining layouts: want each", dense, converted, mixedCombine)
	}
}

// TestDenseGroupTableEligibility: a one-column table becomes dense when its
// group count G reaches a power of two from 8 and its keys span at most
// 2·G + 16 values, NULL being a group outside the slots; a key past the
// slots grows them while the span fits 2·(G+1) + 16, upward or downward, up
// to either end of int64 without wrapping, and any other key makes the table
// hashed for good. Whatever the layout, every key finds the group a hashed
// table gives it, the key bytes are the hashed table's, and a dense table's
// slots never span more than the bound.
func TestDenseGroupTableEligibility(t *testing.T) {
	ints := func(lo, hi int64, step int64) []value.Value {
		var vs []value.Value
		for k := lo; ; k += step {
			vs = append(vs, value.NewInt(k))
			if k == hi {
				return vs
			}
		}
	}
	cat := func(parts ...[]value.Value) []value.Value { return slices.Concat(parts...) }
	one := func(vs ...value.Value) []value.Value { return vs }
	i := value.NewInt
	for _, c := range []struct {
		name   string
		keys   []value.Value
		layout groupLayout
		slots  int // 0 unless dense
		grows  int // the most slot slices a table dense at the end may have made
	}{
		{"span at the bound", cat(ints(0, 6, 1), one(i(31))), layoutDense, 32, 1}, // G = 8: 2·8 + 16
		{"one past the bound", cat(ints(0, 6, 1), one(i(32))), layoutTrial, 0, 0},
		{"negative span at the bound", cat(one(i(-31)), ints(0, -6, -1)), layoutDense, 32, 1},
		{"negative, one past", cat(one(i(-32)), ints(0, -6, -1)), layoutTrial, 0, 0},
		{"seven groups", ints(0, 6, 1), layoutTrial, 0, 0},
		{"at MinInt64", cat(ints(math.MinInt64, math.MinInt64+6, 1), one(i(math.MinInt64+31))), layoutDense, 32, 1},
		{"at MaxInt64", cat(ints(math.MaxInt64, math.MaxInt64-6, -1), one(i(math.MaxInt64-31))), layoutDense, 32, 1},
		{"MinInt64 and MaxInt64", cat(one(i(math.MinInt64), i(math.MaxInt64)), ints(0, 5, 1)), layoutTrial, 0, 0},
		{"a NULL group", cat(one(value.Null), ints(0, 6, 1)), layoutDense, 7, 1},
		{"no non-NULL key", one(value.Null), layoutTrial, 0, 0},
		{"DOUBLEs holding INTEGERs", one(value.NewFloat(0), i(1), value.NewFloat(2), i(3), value.NewFloat(math.Copysign(0, -1)), i(4), i(5), i(6), value.NewFloat(7)), layoutDense, 8, 1},
		{"NaN while on trial", cat(one(value.NewFloat(math.NaN())), ints(0, 20, 1)), layoutHashed, 0, 0},
		{"3.5 once dense", cat(ints(0, 7, 1), one(value.NewFloat(3.5)), ints(8, 40, 1)), layoutHashed, 0, 0},
		{"a string once dense", cat(ints(0, 7, 1), one(value.NewString("8")), ints(8, 40, 1)), layoutHashed, 0, 0},
		{"growth at the bound", cat(ints(0, 7, 1), one(i(33))), layoutDense, 34, 2},             // G + 1 = 9: 2·9 + 16
		{"growth one past", cat(ints(0, 7, 1), one(i(34)), ints(8, 40, 1)), layoutHashed, 0, 0}, // hashed for good
		{"downward growth at the bound", cat(ints(0, 7, 1), one(i(-26))), layoutDense, 34, 2},
		{"downward growth one past", cat(ints(0, 7, 1), one(i(-27))), layoutHashed, 0, 0},
		{"upward growth", ints(0, 5000, 1), layoutDense, 8192, 12},
		{"downward growth", ints(5000, 0, -1), layoutDense, 8192, 12},
		{"downward to MinInt64", ints(math.MinInt64+3000, math.MinInt64, -1), layoutDense, 4096, 11},
		{"upward to MaxInt64", ints(math.MaxInt64-3000, math.MaxInt64, 1), layoutDense, 4096, 11},
		{"strided", ints(0, 100*1000, 1000), layoutTrial, 0, 0},
	} {
		g := denseCore(t)
		tab, err := g.newTable()
		must(t, err)
		hashed, err := g.newTable()
		must(t, err)
		hashed.layout = layoutHashed
		rows, grows := keyRows(c.keys...), 0
		for _, row := range rows {
			before := len(tab.slots)
			id, err := tab.rowGroup(row)
			must(t, err)
			want, err := hashed.rowGroup(row)
			must(t, err)
			if id != want {
				t.Fatalf("%s: key %v is group %d, the hashed table's %d", c.name, row[0], id, want)
			}
			if len(tab.slots) != before && tab.slots != nil {
				grows++
			}
			if tab.layout == layoutDense && uint64(len(tab.slots)) > denseBound(tab.n) {
				t.Fatalf("%s: %d slots for %d groups", c.name, len(tab.slots), tab.n)
			}
		}
		if tab.layout != c.layout || len(tab.slots) != c.slots || c.layout == layoutDense && grows > c.grows {
			t.Fatalf("%s: layout %d over %d slots made %d times, want layout %d over %d made at most %d times", c.name, tab.layout, len(tab.slots), grows, c.layout, c.slots, c.grows)
		}
		for _, row := range rows {
			id, err := tab.rowGroup(row)
			must(t, err)
			if want, _ := hashed.rowGroup(row); id != want || tab.n != hashed.n {
				t.Fatalf("%s: afterwards key %v is group %d of %d, the hashed table's %d of %d", c.name, row[0], id, tab.n, want, hashed.n)
			}
		}
		if got, want := tab.keyBytes(), hashed.keyBytes(); got != want {
			t.Fatalf("%s: %d key bytes, the hashed table's %d", c.name, got, want)
		}
	}
}
