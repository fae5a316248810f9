package value

import (
	"testing"
	"unsafe"
)

// TestSlabRowsNeverAlias: a row cut from a slab is its own window — writing to
// row i or appending to it leaves its neighbours as they were — and the rows
// read back what was copied in, across the page boundaries of a long run.
func TestSlabRowsNeverAlias(t *testing.T) {
	const n, width = 3000, 3
	var s Slab
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = s.Copy(Row{NewInt(int64(i)), NewString("x"), NewInt(int64(-i))})
		if len(rows[i]) != width || cap(rows[i]) != width {
			t.Fatalf("row %d: len %d cap %d, want both %d", i, len(rows[i]), cap(rows[i]), width)
		}
	}
	check := func(i int) {
		t.Helper()
		if r := rows[i]; r[0].Int() != int64(i) || r[1].Str() != "x" || r[2].Int() != int64(-i) {
			t.Fatalf("row %d reads %v", i, r)
		}
	}
	for _, i := range []int{1, 7, 8, 23, 1000, n - 2} {
		rows[i][2] = NewInt(99)
		grown := append(rows[i], NewInt(7))
		grown[0] = NewInt(-1)
		check(i - 1)
		check(i + 1)
		rows[i][2] = NewInt(int64(-i))
		check(i)
	}
	for i := range rows {
		check(i)
	}
}

// TestSlabPagesGrow: the first page holds slabFirstRows rows and each page
// after it twice the one before, up to slabMaxRows, so the rows of one page lie
// back to back and a long run costs one allocation per slabMaxRows rows.
func TestSlabPagesGrow(t *testing.T) {
	const width = 2
	var s Slab
	rows := make([]Row, 0, 8*slabMaxRows)
	allocs := testing.AllocsPerRun(1, func() {
		s = Slab{}
		rows = rows[:0]
		for i := 0; i < cap(rows); i++ {
			rows = append(rows, s.Make(width))
		}
	})
	// 8 + 16 + … + 1024 = 2040 rows in the first eight pages, then whole pages.
	if want := float64(8 + (len(rows)-2040+slabMaxRows-1)/slabMaxRows); allocs != want {
		t.Errorf("%d rows cost %.0f allocations, want %.0f", len(rows), allocs, want)
	}
	pageStart := 0
	for size := slabFirstRows; pageStart+size <= len(rows); size = min(2*size, slabMaxRows) {
		base := uintptr(unsafe.Pointer(&rows[pageStart][0]))
		for i := pageStart; i < pageStart+size; i++ {
			if at := uintptr(unsafe.Pointer(&rows[i][0])); at != base+uintptr((i-pageStart)*width)*unsafe.Sizeof(Value{}) {
				t.Fatalf("row %d is not at its place in the page of %d rows starting at row %d", i, size, pageStart)
			}
		}
		pageStart += size
	}
	if r := (&Slab{}).Make(0); r == nil || len(r) != 0 {
		t.Errorf("a zero-width row is %#v, want an empty, non-nil row", r)
	}
}
