package exec

import (
	"bufio"
	"bytes"
	"testing"

	"repro/internal/value"
)

// BenchmarkSpillCodec is the layer benchmark of the spill row codec: one
// row of every value kind through appendSpillRow and back through
// readSpillRow, the round trip each spilled row makes.
func BenchmarkSpillCodec(b *testing.B) {
	row := value.Row{value.NewInt(42), value.NewFloat(3.5), value.NewString("Larson"), value.Null, value.NewBool(true)}
	var buf []byte
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendSpillRow(buf[:0], int64(i), row)
		rd.Reset(buf)
		br.Reset(rd)
		sr, ok, err := readSpillRow(br)
		if err != nil || !ok || sr.seq != int64(i) || len(sr.row) != len(row) {
			b.Fatalf("round trip %d: seq %d, %d columns, ok %t, err %v", i, sr.seq, len(sr.row), ok, err)
		}
	}
}
