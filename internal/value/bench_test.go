package value

import "testing"

// Layer benchmarks of the value representation: what a join pays per emitted
// row (Concat of a 4-column and a 3-column row), what a hash store pays per
// probed column (AppendGroupKey) and what a sort pays per comparison.

var (
	benchRow   Row
	benchBytes []byte
	benchSign  int
)

func BenchmarkConcat(b *testing.B) {
	fact := Row{NewInt(1), NewInt(2), NewInt(3), NewInt(4)}
	dim := Row{NewInt(2), NewString("dim00002"), NewString("north")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchRow = fact.Concat(dim)
	}
}

func BenchmarkAppendGroupKey(b *testing.B) {
	row := Row{NewInt(2), NewString("dim00002"), NewFloat(2.5), Null}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, v := range row {
			buf = AppendGroupKey(buf, v)
		}
	}
	benchBytes = buf
}

func BenchmarkCompare(b *testing.B) {
	for _, c := range []struct {
		name string
		a, b Value
	}{
		{"int/int", NewInt(41), NewInt(42)},
		{"string/string", NewString("dim00041"), NewString("dim00042")},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSign, _ = Compare(c.a, c.b)
			}
		})
	}
}
