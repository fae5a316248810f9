package vec

import (
	"fmt"
	"testing"

	"repro/internal/value"
)

// intRows builds rows of the form (i, i*2, "s<i%k>") with NULLs where
// nullEvery divides i.
func intRows(n, nullEvery int) []value.Row {
	rows := make([]value.Row, n)
	for i := 0; i < n; i++ {
		r := value.Row{
			value.NewInt(int64(i)),
			value.NewInt(int64(i * 2)),
			value.NewString(fmt.Sprintf("s%d", i%7)),
		}
		if nullEvery > 0 && i%nullEvery == 0 {
			r[1] = value.Null
		}
		rows[i] = r
	}
	return rows
}

// TestColumnarizeRoundTrip checks that rows survive the columnar round
// trip at batch boundaries around powers of two — exactly BatchSize,
// one under, one over, and a multiple.
func TestColumnarizeRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, BatchSize - 1, BatchSize, BatchSize + 1, 2 * BatchSize, 2*BatchSize + 3} {
		rows := intRows(n, 5)
		batches := Columnarize(rows, 3, BatchSize)
		var got []value.Row
		var slab value.Slab
		for _, b := range batches {
			if b.Len() > BatchSize {
				t.Fatalf("n=%d: batch of %d rows exceeds BatchSize", n, b.Len())
			}
			got = b.AppendRows(got, &slab)
		}
		if len(got) != n {
			t.Fatalf("n=%d: round trip produced %d rows", n, len(got))
		}
		for i := range got {
			if !value.NullEqRows(got[i], rows[i]) {
				t.Fatalf("n=%d: row %d: got %s want %s", n, i, got[i], rows[i])
			}
		}
	}
}

// TestAllNullColumn checks that a column that never sees a non-null value
// reads back as NULL everywhere, keeps Kind KindNull, and encodes every
// row's key as the NULL tag.
func TestAllNullColumn(t *testing.T) {
	n := BatchSize + 17
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.Null, value.NewInt(int64(i))}
	}
	for _, b := range Columnarize(rows, 2, BatchSize) {
		col := b.Cols[0]
		if col.Kind() != value.KindNull {
			t.Fatalf("all-null column has kind %v", col.Kind())
		}
		if !col.HasNulls() && col.Len() > 0 {
			t.Fatalf("all-null column reports no nulls")
		}
		for i := 0; i < col.Len(); i++ {
			if !col.IsNull(i) {
				t.Fatalf("element %d of all-null column not null", i)
			}
		}
		var enc KeyEncoder
		for i, key := range enc.Encode(b, []int{0}) {
			if len(key) != 1 || key[0] != 0 {
				t.Fatalf("row %d: all-null key = %v, want single NULL tag", i, key)
			}
		}
	}
}

// TestLeadingNullsEstablishKindLate checks payload backfill when a column
// starts with NULLs and only later reveals its kind.
func TestLeadingNullsEstablishKindLate(t *testing.T) {
	var v Vector
	v.Append(value.Null)
	v.Append(value.Null)
	v.Append(value.NewInt(42))
	v.Append(value.Null)
	v.Append(value.NewInt(7))
	want := []value.Value{value.Null, value.Null, value.NewInt(42), value.Null, value.NewInt(7)}
	for i, w := range want {
		if got := v.Value(i); !value.NullEq(got, w) {
			t.Fatalf("element %d = %s, want %s", i, got, w)
		}
	}
	if v.Kind() != value.KindInt {
		t.Fatalf("kind = %v, want INTEGER", v.Kind())
	}
}

// TestMixedKindColumnFallsBack checks that a heterogeneous column demotes
// to the boxed representation without losing values.
func TestMixedKindColumnFallsBack(t *testing.T) {
	var v Vector
	vals := []value.Value{
		value.NewInt(1), value.NewFloat(2.5), value.Null,
		value.NewString("x"), value.NewBool(true),
	}
	for _, val := range vals {
		v.Append(val)
	}
	if !v.Mixed() {
		t.Fatalf("mixed-kind column did not demote")
	}
	for i, w := range vals {
		if got := v.Value(i); !value.NullEq(got, w) {
			t.Fatalf("element %d = %s, want %s", i, got, w)
		}
	}
}

// TestSelectionVector checks that a selection narrows the batch's logical
// rows without touching the vectors, and that key encoding and row reads
// follow the selection.
func TestSelectionVector(t *testing.T) {
	rows := intRows(100, 0)
	b := Columnarize(rows, 3, len(rows))[0]
	var sel []int32
	for i := 0; i < 100; i += 3 {
		sel = append(sel, int32(i))
	}
	var view Batch
	b.View(sel, &view)
	if view.Len() != len(sel) {
		t.Fatalf("view has %d logical rows, want %d", view.Len(), len(sel))
	}
	if view.PhysLen() != 100 {
		t.Fatalf("view physical length %d, want 100", view.PhysLen())
	}
	var enc KeyEncoder
	keys := enc.Encode(&view, []int{0, 2})
	for i, phys := range sel {
		want := value.GroupKey(rows[phys], []int{0, 2})
		if string(keys[i]) != want {
			t.Fatalf("selected row %d: key %q, want %q", i, keys[i], want)
		}
		if got := view.ReadRow(i, nil); !value.NullEqRows(got, rows[phys]) {
			t.Fatalf("selected row %d reads %s, want %s", i, got, rows[phys])
		}
	}
}

// TestKeyEncoderMatchesScalarWithNulls spot-checks the vectorized encoding
// against value.GroupKey across null patterns and the int/float collapse.
func TestKeyEncoderMatchesScalarWithNulls(t *testing.T) {
	rows := []value.Row{
		{value.NewInt(1), value.NewFloat(1.0), value.NewString("")},
		{value.Null, value.NewFloat(1.5), value.NewString("a")},
		{value.NewInt(-1), value.Null, value.Null},
		{value.NewInt(0), value.NewFloat(-0.0), value.NewString("a")},
	}
	b := Columnarize(rows, 3, len(rows))[0]
	cols := []int{0, 1, 2}
	var enc KeyEncoder
	keys := enc.Encode(b, cols)
	for i, r := range rows {
		if want := value.GroupKey(r, cols); string(keys[i]) != want {
			t.Fatalf("row %d: vectorized key %q != scalar %q", i, keys[i], want)
		}
	}
	// 1 and 1.0 must land in the same group; 1.5 must not.
	if string(keys[0][:9]) != string(keys[0][9:18]) {
		t.Fatalf("1 and 1.0 encode differently: %v", keys[0])
	}
}

// TestGather checks the two gathers a join's output is made of: elements
// copied by index out of a batch's vectors (AppendFrom), and a row store's
// values boxed as they come (AppendBoxed). Both read back identically, a
// reused vector starts over, and the boxed one never builds a dictionary.
func TestGather(t *testing.T) {
	rows := intRows(50, 7)
	b := Columnarize(rows, 3, len(rows))[0]
	var typed, boxed [3]Vector
	for round := 0; round < 2; round++ {
		for c := range typed {
			typed[c].Reset()
			boxed[c].Reset()
			for i := b.Len() - 1; i >= 0; i-- {
				typed[c].AppendFrom(b.Cols[c], i)
				boxed[c].AppendBoxed(rows[i][c])
			}
		}
		for i := range rows {
			want := rows[len(rows)-1-i]
			for name, got := range map[string]value.Row{
				"AppendFrom":  {typed[0].Value(i), typed[1].Value(i), typed[2].Value(i)},
				"AppendBoxed": {boxed[0].Value(i), boxed[1].Value(i), boxed[2].Value(i)},
			} {
				if !value.NullEqRows(got, want) {
					t.Fatalf("round %d, %s: row %d reads %s, want %s", round, name, i, got, want)
				}
			}
		}
		for c := range boxed {
			if !boxed[c].Mixed() || boxed[c].StrDict() != nil || boxed[c].Len() != len(rows) {
				t.Fatalf("round %d: boxed column %d: mixed=%v dict=%v len=%d", round, c, boxed[c].Mixed(), boxed[c].StrDict(), boxed[c].Len())
			}
		}
	}
	// Boxing after typed elements keeps them.
	var v Vector
	v.Append(value.NewInt(1))
	v.AppendBoxed(value.NewString("x"))
	if v.Len() != 2 || v.Value(0).Int() != 1 || v.Value(1).Str() != "x" {
		t.Fatalf("typed then boxed reads %v, %v", v.Value(0), v.Value(1))
	}
}

// TestAdoptedDictCopyOnWrite: a vector that adopted its source's dictionary
// through AppendFrom interns a new string into a private clone, never into
// the source's: the source's dictionary keeps its strings and codes, its
// elements read back unchanged, and the clone keeps the shared codes.
func TestAdoptedDictCopyOnWrite(t *testing.T) {
	var src Vector
	for _, s := range []string{"a", "b", "a"} {
		src.Append(value.NewString(s))
	}
	dict := src.StrDict()
	var dst Vector
	dst.AppendFrom(&src, 1)
	if dst.StrDict() != dict {
		t.Fatal("AppendFrom did not adopt the source's dictionary")
	}
	dst.Append(value.NewString("c"))
	dst.AppendFrom(&src, 0)
	if src.StrDict() != dict || dict.Len() != 2 {
		t.Fatalf("the source's dictionary holds %d strings, want its own 2", dict.Len())
	}
	if _, ok := dict.Code("c"); ok {
		t.Fatal("a string interned by the adopting vector reached the source's dictionary")
	}
	for i, want := range []string{"a", "b", "a"} {
		if got := src.Str(i); got != want || src.Code(i) != dict.index[want] {
			t.Fatalf("source element %d reads %q (code %d), want %q", i, got, src.Code(i), want)
		}
	}
	if dst.StrDict() == dict {
		t.Fatal("interning into an adopted dictionary did not clone it")
	}
	for i, want := range []string{"b", "c", "a"} {
		if got := dst.Str(i); got != want {
			t.Fatalf("adopting element %d reads %q, want %q", i, got, want)
		}
	}
	if code, _ := dst.StrDict().Code("b"); code != src.Code(1) {
		t.Fatalf("the clone coded %q %d, the source %d", "b", code, src.Code(1))
	}
}
