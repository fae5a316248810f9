package exec

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/value"
	"repro/internal/vec"
)

// BenchmarkJoinTable is the hashed stores other than a GROUP BY's table with
// no plan around them. build+probe: a join table built on 1 and on 2 workers,
// then probed through probeInto until 48 000 matches were emitted — 48 000
// probe rows into 10 and into 1 000 keys of one build row each, and 480 into
// 100 keys of 100 build rows each (skew). The keys are 0 … keys−1, a dense
// table; under sparse/ they are 1 000 apart, a hashed one. distinct:
// DISTINCT's group table — a group per key, no aggregate — over 48 000 rows of
// 8 000 keys. count-distinct: COUNT(DISTINCT v) over 48 000 rows in 1 000
// groups, three values per group. Run with -benchmem.
func BenchmarkJoinTable(b *testing.B) {
	const matches = 48000
	for _, shape := range []struct {
		name       string
		keys, rows int // build keys, build rows per key
	}{{"keys=10", 10, 1}, {"keys=1000", 1000, 1}, {"skew=100x100", 100, 100}} {
		for _, layout := range []struct {
			prefix string
			stride int64
		}{{"", 1}, {"sparse/", 1000}} {
			build := strided(keyedValuesPlan("r", shape.keys*shape.rows, shape.keys).Rows, layout.stride)
			probe := strided(keyedValuesPlan("l", matches/shape.rows, shape.keys).Rows, layout.stride)
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("build+probe/%s%s/par%d", layout.prefix, shape.name, workers), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						j := &hashJoinOp{lcols: []int{0}, table: &joinTable{cols: []int{0}}}
						if err := j.table.build(build, workers); err != nil {
							b.Fatal(err)
						}
						emitted := 0
						emit := j.probeInto(make(value.Row, 4), func(value.Row) error { emitted++; return nil })
						for _, row := range probe {
							if err := emit(row); err != nil {
								b.Fatal(err)
							}
						}
						if emitted != matches {
							b.Fatalf("%d matches, want %d", emitted, matches)
						}
					}
				})
			}
		}
	}
	b.Run("distinct", func(b *testing.B) {
		rows := keyedValuesPlan("t", matches, 8000).Rows
		g := &groupCore{groupCols: []int{0}, par: 1, where: "distinct"} // the key column, no aggregate
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tab := buildTable(b, g, rows); tab.n != 8000 {
				b.Fatalf("%d distinct rows", tab.n)
			}
		}
	})
	b.Run("count-distinct", func(b *testing.B) {
		rows := make([]value.Row, matches)
		for i := range rows {
			rows[i] = value.Row{value.NewInt(int64(i % 1000)), value.NewInt(int64(i % 3000))}
		}
		g := &groupCore{groupCols: []int{0}, par: 1, where: "group"}
		addItems(b, g, &expr.Aggregate{Func: expr.AggCount, Arg: expr.Column("t", "v"), Distinct: true})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tab := buildTable(b, g, rows); tab.n != 1000 {
				b.Fatalf("%d groups", tab.n)
			}
		}
	})
}

// BenchmarkGroupTable is the group table with no plan around it, SUM(v) per k
// folded as a hash grouping's sink folds it — one partial table per worker
// over a contiguous chunk, on 1 and on 2 workers, then combined — row by row
// (row/) and in batches of MorselSize rows (batch/): 48 000 rows finding
// their group among 10, 1 000 and 8 000 keys (groups=N), and 20 000 rows each
// starting a group (inserts). The keys are 0 … keys−1, a dense table; under
// sparse/ they are 1 000 apart, a hashed one. combine: two 20 000-group
// partial tables sharing half their groups combined. Run with -benchmem:
// allocs/op over the groups is what a group costs.
func BenchmarkGroupTable(b *testing.B) {
	const n = 20000
	g := sumCore(b, nil, nil, 0)
	g.initAggCols()
	for _, shape := range []struct {
		name       string
		rows, keys int
	}{{"groups=10", 48000, 10}, {"groups=1000", 48000, 1000}, {"groups=8000", 48000, 8000}, {"inserts", n, n}} {
		for _, layout := range []struct {
			prefix string
			stride int64
		}{{"", 1}, {"sparse/", 1000}} {
			rows := strided(keyedValuesPlan("t", shape.rows, shape.keys).Rows, layout.stride)
			for _, workers := range []int{1, 2} {
				size := chunkSizeFor(len(rows), workers)
				batches := make([][]*vec.Batch, numChunks(len(rows), size)) // by chunk
				for c := range batches {
					batches[c] = vec.Columnarize(rows[c*size:min((c+1)*size, len(rows))], 2, MorselSize)
				}
				for _, form := range []string{"row", "batch"} {
					b.Run(fmt.Sprintf("%s/%s%s/par%d", form, layout.prefix, shape.name, workers), func(b *testing.B) {
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							g.par = workers
							s := &partialTables{g: g}
							s.begin(len(rows), 0)
							err := forEachChunk("group", workers, len(s.tables), 1, func(_, c, _, _ int) error {
								if form == "row" {
									emit, err := s.bind(0, c)
									for _, row := range rows[c*size : min((c+1)*size, len(rows))] {
										if err == nil {
											err = emit(row)
										}
									}
									return err
								}
								fold, err := s.bindBatch(0, c)
								for _, batch := range batches[c] {
									if err == nil {
										err = fold(batch)
									}
								}
								return err
							})
							if err != nil {
								b.Fatal(err)
							}
							out, err := g.combine(s.tables)
							if err != nil {
								b.Fatal(err)
							}
							if got := out.made.len(); got != shape.keys {
								b.Fatalf("%d groups, want %d", got, shape.keys)
							}
						}
					})
				}
			}
		}
	}
	b.Run("combine", func(b *testing.B) {
		rows := keyedValuesPlan("t", n+n/2, n+n/2).Rows
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// combine merges into and marks the tables it is given: fresh ones each time.
			b.StopTimer()
			partials := []*groupTable{buildTable(b, g, rows[:n]), buildTable(b, g, rows[n/2:])}
			b.StartTimer()
			out, err := g.combine(partials)
			if err != nil {
				b.Fatal(err)
			}
			if got := out.made.len(); got != n+n/2 {
				b.Fatalf("%d groups", got)
			}
		}
	})
}
