package server

// The two hand-written halves of wire.go held to encoding/json: by equality
// (FuzzQueryResponseWire, TestWireSpecials), by allocation counts, and by
// layer benchmarks that run each half beside the encoding/json path it
// replaced. That old path — boxed rows through json.Marshal, json.Number
// cells normalised to int64 or float64 — lives on only here, as the
// reference (referenceEncode, referenceDecode).

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/value"
)

// refFloat is a DOUBLE cell of the reference encoding: encoding/json's own
// float formatting, plus the one rule the wire adds to it.
type refFloat float64

func (f refFloat) MarshalJSON() ([]byte, error) {
	b, err := json.Marshal(float64(f))
	if err == nil && !bytes.ContainsAny(b, ".eE") {
		b = append(b, ".0"...)
	}
	return b, err
}

// boxRows converts typed rows to the Go-native values a client should get
// back. With wire set, DOUBLEs are refFloats, for marshalling.
func boxRows(rows []value.Row, wire bool) [][]any {
	out := make([][]any, len(rows))
	for r, row := range rows {
		out[r] = make([]any, len(row))
		for i, v := range row {
			switch v.Kind() {
			case value.KindInt:
				out[r][i] = v.Int()
			case value.KindFloat:
				if wire {
					out[r][i] = refFloat(v.Float())
				} else {
					out[r][i] = v.Float()
				}
			case value.KindString:
				out[r][i] = v.Str()
			case value.KindBool:
				out[r][i] = v.Bool()
			}
		}
	}
	return out
}

// referenceEncode is the body the old handler wrote, up to the ".0" rule.
func referenceEncode(cols []string, rows []value.Row, degraded bool) ([]byte, error) {
	if cols == nil {
		cols = []string{}
	}
	b, err := json.Marshal(QueryResponse{Columns: cols, Rows: boxRows(rows, true), Degraded: degraded})
	return append(b, '\n'), err
}

// referenceDecode is how the old client read a body.
func referenceDecode(b []byte) (*QueryResponse, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var resp QueryResponse
	if err := dec.Decode(&resp); err != nil {
		return nil, err
	}
	for _, row := range resp.Rows {
		for i, v := range row {
			n, ok := v.(json.Number)
			if !ok {
				continue
			}
			if iv, err := n.Int64(); err == nil {
				row[i] = iv
			} else if fv, err := n.Float64(); err == nil {
				row[i] = fv
			}
		}
	}
	return &resp, nil
}

// sameCell compares two decoded cells by Go type and value, floats by bits.
func sameCell(a, b any) bool {
	if fa, ok := a.(float64); ok {
		fb, ok := b.(float64)
		return ok && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return a == b
}

// diffResponses returns "" when two decoded responses agree cell for cell.
func diffResponses(a, b *QueryResponse) string {
	if a.Degraded != b.Degraded {
		return "degraded differs"
	}
	if (a.Columns == nil) != (b.Columns == nil) || !slices.Equal(a.Columns, b.Columns) {
		return fmt.Sprintf("columns %q vs %q", a.Columns, b.Columns)
	}
	if (a.Rows == nil) != (b.Rows == nil) || len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("%d rows (nil %v) vs %d rows (nil %v)", len(a.Rows), a.Rows == nil, len(b.Rows), b.Rows == nil)
	}
	for r := range a.Rows {
		if len(a.Rows[r]) != len(b.Rows[r]) {
			return fmt.Sprintf("row %d: %d vs %d cells", r, len(a.Rows[r]), len(b.Rows[r]))
		}
		for i := range a.Rows[r] {
			if !sameCell(a.Rows[r][i], b.Rows[r][i]) {
				return fmt.Sprintf("row %d cell %d: %#v (%T) vs %#v (%T)", r, i, a.Rows[r][i], a.Rows[r][i], b.Rows[r][i], b.Rows[r][i])
			}
		}
	}
	return ""
}

// jsonString is s after a trip through encoding/json, which replaces
// invalid UTF-8.
func jsonString(t testing.TB, s string) string {
	b, err := json.Marshal(s)
	if err == nil {
		err = json.Unmarshal(b, &s)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkRoundTrip holds the encoder to the reference bytes and the decoder
// to the rows that went in, Go types included.
func checkRoundTrip(t testing.TB, cols []string, rows []value.Row, degraded bool) {
	t.Helper()
	got, err := appendQueryResponse(nil, cols, rows, degraded)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	ref, err := referenceEncode(cols, rows, degraded)
	if err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("encoder and encoding/json differ:\n got %s\nwant %s", got, ref)
	}
	if _, err := referenceDecode(got); err != nil {
		t.Fatalf("encoding/json rejects the body: %v\n%s", err, got)
	}
	want := &QueryResponse{Columns: []string{}, Rows: boxRows(rows, false), Degraded: degraded}
	for _, c := range cols {
		want.Columns = append(want.Columns, jsonString(t, c))
	}
	for _, row := range want.Rows {
		for i, v := range row {
			if s, ok := v.(string); ok {
				row[i] = jsonString(t, s)
			}
		}
	}
	var back QueryResponse
	if err := decodeQueryResponse(got, &back); err != nil {
		t.Fatalf("decode: %v\n%s", err, got)
	}
	if d := diffResponses(&back, want); d != "" {
		t.Fatalf("decode(encode(rows)) != rows: %s\n%s", d, got)
	}
}

var (
	specialInts = []int64{0, 1, -1, 255, 256, math.MinInt64, math.MaxInt64, 1<<53 + 1, -(1<<53 + 1)}
	// Both sides of each format boundary of encoding/json, and the
	// integral values the ".0" rule exists for.
	specialFloats = []float64{0, math.Copysign(0, -1), 1, 2, -3, 0.5, 1e20, 1e21, -1e21, 1e-6, 1e-7, 9.999e-7,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1 << 53, 1<<53 + 2, 1e100, 123456789.125}
	specialStrings = []string{"", "plain ascii", "\xff\xfe bad utf8 \xc3", "<>&", "line\u2028sep\u2029", "\x00\x01\x1f\x7f",
		`quote " and \ backslash`, "tab\tnewline\n", "héllo wörld", "日本語", "\\u0041", "ends in backslash\\"}
)

func TestWireSpecials(t *testing.T) {
	var rows []value.Row
	for _, v := range specialInts {
		rows = append(rows, value.Row{value.NewInt(v), value.Null, value.NewBool(v%2 == 0)})
	}
	for _, v := range specialFloats {
		rows = append(rows, value.Row{value.NewFloat(v), value.NewFloat(-v), value.Null})
	}
	for _, v := range specialStrings {
		rows = append(rows, value.Row{value.NewString(v), value.NewInt(7), value.NewString(v + v)})
	}
	for _, degraded := range []bool{false, true} {
		checkRoundTrip(t, []string{"a", "b<", "c\xff"}, rows, degraded)
		checkRoundTrip(t, specialStrings, nil, degraded)      // zero rows
		checkRoundTrip(t, nil, nil, degraded)                 // zero columns, zero rows
		checkRoundTrip(t, nil, []value.Row{{}, {}}, degraded) // zero columns, two rows
	}
	// More rows than the sample the buffers are sized from, of uneven width.
	var many []value.Row
	for i := 0; i < 700; i++ {
		many = append(many, value.Row{value.NewInt(int64(i) << (i % 40)), value.NewString(strings.Repeat("x", i%37)), value.NewFloat(float64(i) / 8)})
	}
	checkRoundTrip(t, []string{"n", "s", "f"}, many, false)
}

// TestDecoderGrammar pins what the decoder accepts beyond the encoder's own
// output, and that what it refuses is refused with an offset.
func TestDecoderGrammar(t *testing.T) {
	accept := []string{
		`{}`,
		` { "degraded" : false , "rows" : [ [ 1 , 2.5 , "x" ] , [ ] ] , "columns" : [ "a" ] } ` + "\n",
		`{"rows":null,"columns":null}`,
		`{"rows":[[12345678901234567890,-9223372036854775808,1E2,-0]]}`,
		`{"columns":["A\n"],"rows":[["<raw>&"]]}`,
	}
	for _, in := range accept {
		var got QueryResponse
		if err := decodeQueryResponse([]byte(in), &got); err != nil {
			t.Errorf("%s: %v", in, err)
			continue
		}
		want, err := referenceDecode([]byte(in))
		if err != nil {
			t.Fatalf("%s: reference: %v", in, err)
		}
		if d := diffResponses(&got, want); d != "" {
			t.Errorf("%s: %s", in, d)
		}
	}
	reject := []string{
		``, `[]`, `{"rows":[[1]]} x`, `{"rows":[[[1]]]}`, `{"rows":[[{"a":1}]]}`, `{"rows":[null]}`, `{"rows":[1]}`,
		`{"rows":[[01]]}`, `{"rows":[[1.]]}`, `{"rows":[[1e]]}`, `{"rows":[[-]]}`, `{"rows":[[1e999]]}`, `{"rows":[[nul]]}`,
		`{"rows":[[1,]]}`, `{"rows":[[1 2]]}`, `{"rows":[["a` + "\n" + `b"]]}`, `{"rows":[["\x"]]}`, `{"rows":[["open]]}`,
		`{"extra":1}`, `{"rows":[],"rows":[]}`, `{"degraded":1}`, `{"columns":[1]}`, `{"rows":[[1]]`, `{"rows"}`,
	}
	for _, in := range reject {
		err := decodeQueryResponse([]byte(in), new(QueryResponse))
		if err == nil || !strings.Contains(err.Error(), "offset ") {
			t.Errorf("%s: got %v, want a protocol error with an offset", in, err)
		}
	}
}

// cellStream deals typed cells out of fuzz input.
type cellStream struct{ b []byte }

func (s *cellStream) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *cellStream) take(n int) []byte {
	n = min(n, len(s.b))
	out := s.b[:n]
	s.b = s.b[n:]
	return out
}

func (s *cellStream) uint64() uint64 {
	var w [8]byte
	copy(w[:], s.take(8))
	return binary.LittleEndian.Uint64(w[:])
}

func (s *cellStream) cell() value.Value {
	switch s.next() % 8 {
	case 1:
		return value.NewInt(specialInts[int(s.next())%len(specialInts)])
	case 2:
		return value.NewInt(int64(s.uint64()))
	case 3:
		return value.NewFloat(specialFloats[int(s.next())%len(specialFloats)])
	case 4:
		if f := math.Float64frombits(s.uint64()); !math.IsInf(f, 0) && !math.IsNaN(f) {
			return value.NewFloat(f)
		}
		return value.NewFloat(0.5)
	case 5:
		return value.NewString(specialStrings[int(s.next())%len(specialStrings)])
	case 6:
		return value.NewString(string(s.take(int(s.next()) % 24)))
	case 7:
		return value.NewBool(s.next()%2 == 1)
	}
	return value.Null
}

// FuzzQueryResponseWire reads its input twice. (a) As a recipe for typed
// rows: the encoder must emit encoding/json's bytes (up to the ".0" rule)
// and the decoder must return the rows with their Go types. (b) As a
// response body: the decoder must not panic, and whenever it and the old
// client path both accept, they must agree cell for cell.
func FuzzQueryResponseWire(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 5, 1, 1, 6, 3, 4, 5, 2, 7, 1, 1, 0, 3, 1, 5, 3})
	f.Add([]byte("\x02\x46\x00" + strings.Repeat("\x01\x05\x03\x01\x05\x02\x06\x05hello", 40)))
	f.Add([]byte(`{"columns":["a","b"],"rows":[[1,2.0,"x",null,true],[-0.0,1e+21," ",false]],"degraded":true}` + "\n"))
	f.Add([]byte(` {"rows" : [[ 9223372036854775808, -9223372036854775809, 1E5, 0.1e-7 ]], "columns": null}`))
	f.Add([]byte(`{"rows":[["\ud800","<&>","café","` + "\xff" + `"]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := cellStream{b: data}
		ncols, nrows, degraded := int(s.next())%6, int(s.next())%90, s.next()%2 == 1
		cols := make([]string, ncols)
		for i := range cols {
			cols[i] = specialStrings[int(s.next())%len(specialStrings)]
		}
		rows := make([]value.Row, nrows)
		for r := range rows {
			rows[r] = make(value.Row, ncols)
			for i := range rows[r] {
				rows[r][i] = s.cell()
			}
		}
		checkRoundTrip(t, cols, rows, degraded)

		var got QueryResponse
		if err := decodeQueryResponse(data, &got); err != nil {
			return
		}
		want, err := referenceDecode(data)
		if err != nil {
			t.Fatalf("decoder accepts what encoding/json rejects (%v): %q", err, data)
		}
		if d := diffResponses(&got, want); d != "" {
			t.Fatalf("decoder and encoding/json disagree: %s\n%q", d, data)
		}
	})
}

// shapeRows builds n rows of the two response shapes serve_wide has:
// three columns (int, label, int) or four (int, label, int, int).
func shapeRows(n, width int) ([]string, []value.Row) {
	cols := []string{"FID", "Label", "V", "N"}[:width]
	rows := make([]value.Row, n)
	for r := range rows {
		row := value.Row{value.NewInt(int64(1000 + r)), value.NewString(fmt.Sprintf("label-%04d", r%997)), value.NewInt(int64(r % 50)), value.NewInt(int64(r) * 12345)}
		rows[r] = row[:width]
	}
	return cols, rows
}

// TestWireAllocs pins the allocation counts the typed path exists for.
func TestWireAllocs(t *testing.T) {
	cols, rows := shapeRows(1000, 3)
	buf, err := appendQueryResponse(nil, cols, rows, false)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		buf, _ = appendQueryResponse(buf[:0], cols, rows, false)
	}); n != 0 {
		t.Errorf("encoding 1000 rows into a warm buffer: %v allocations, want 0", n)
	}

	// Decoding: two per non-empty string (its bytes, and the box that puts
	// it in an any), one per integer that does not fit a byte, one slab per
	// 256 rows once the slabs have grown, and a constant.
	for _, n := range []int{1000, 4000} {
		cols, rows := shapeRows(n, 3)
		body, err := appendQueryResponse(nil, cols, rows, false)
		if err != nil {
			t.Fatal(err)
		}
		cells := 0
		for _, row := range rows {
			for _, v := range row {
				switch {
				case v.Kind() == value.KindString:
					cells += 2
				case v.Kind() == value.KindInt && uint64(v.Int()) >= 256:
					cells++
				}
			}
		}
		var resp QueryResponse
		got := int(testing.AllocsPerRun(10, func() {
			if err := decodeQueryResponse(body, &resp); err != nil {
				t.Fatal(err)
			}
		}))
		if over := got - cells; over < 0 || over > n/slabMaxRows+24 {
			t.Errorf("decoding %d rows: %d allocations, %d of them cells; want at most %d more", n, got, cells, n/slabMaxRows+24)
		}
	}
}

var benchShapes = []struct{ rows, width int }{{1000, 4}, {24000, 3}}

func BenchmarkEncodeQueryResponse(b *testing.B) {
	for _, sh := range benchShapes {
		cols, rows := shapeRows(sh.rows, sh.width)
		b.Run(fmt.Sprintf("typed/%dx%d", sh.rows, sh.width), func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf, _ = appendQueryResponse(buf[:0], cols, rows, false)
			}
			b.SetBytes(int64(len(buf)))
		})
		// The old handler: box every cell, then the reflective encoder.
		b.Run(fmt.Sprintf("encoding-json/%dx%d", sh.rows, sh.width), func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := json.NewEncoder(&buf).Encode(QueryResponse{Columns: cols, Rows: boxRows(rows, false)}); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
		})
	}
}

func BenchmarkDecodeQueryResponse(b *testing.B) {
	for _, sh := range benchShapes {
		cols, rows := shapeRows(sh.rows, sh.width)
		body, err := appendQueryResponse(nil, cols, rows, false)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("typed/%dx%d", sh.rows, sh.width), func(b *testing.B) {
			var resp QueryResponse
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if err := decodeQueryResponse(body, &resp); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("encoding-json/%dx%d", sh.rows, sh.width), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, err := referenceDecode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
