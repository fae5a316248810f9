package exec

import (
	"fmt"
	"testing"

	"repro/internal/value"
)

// BenchmarkGroupTable is the group table with no plan around it, SUM(v) per k
// over 20 000 rows: every row starting a group (inserts), every row finding
// its group among 10 and among 1 000 (hits), and two 20 000-group partial
// tables sharing half their groups absorbed into an empty one (absorb). Run
// with -benchmem: allocs/op over 20 000 is what a group costs.
func BenchmarkGroupTable(b *testing.B) {
	const n = 20000
	g := sumCore(b, nil, nil, 0)
	b.Run("inserts", func(b *testing.B) {
		rows := keyedValuesPlan("t", n, n).Rows
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tab := buildTable(b, g, rows); tab.n != n {
				b.Fatalf("%d groups", tab.n)
			}
		}
	})
	for _, groups := range []int{10, 1000} {
		b.Run(fmt.Sprintf("hits/groups=%d", groups), func(b *testing.B) {
			rows := keyedValuesPlan("t", n, groups).Rows
			tab := buildTable(b, g, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, row := range rows {
					if err := tab.add(row); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	b.Run("absorb", func(b *testing.B) {
		rows := keyedValuesPlan("t", n+n/2, n+n/2).Rows
		partials := []*groupTable{buildTable(b, g, rows[:n]), buildTable(b, g, rows[n/2:])}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			into := buildTable(b, g, []value.Row{})
			for _, p := range partials {
				if err := into.absorb(p); err != nil {
					b.Fatal(err)
				}
			}
			if into.n != n+n/2 {
				b.Fatalf("%d groups", into.n)
			}
		}
	})
}
