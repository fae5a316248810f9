package exec

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// fuzzSpillValue decodes one value from the fuzz byte stream; the selector
// byte picks the kind and the payload reuses the stream so the fuzzer
// controls exact bit patterns (NaNs, negative zero, empty strings) — the
// spill codec and the merge comparator must both survive all of them.
func fuzzSpillValue(data []byte, pos *int) value.Value {
	if *pos >= len(data) {
		return value.Null
	}
	sel := data[*pos]
	*pos++
	take := func(n int) []byte {
		if *pos+n > len(data) {
			pad := make([]byte, n)
			copy(pad, data[*pos:])
			*pos = len(data)
			return pad
		}
		b := data[*pos : *pos+n]
		*pos += n
		return b
	}
	switch sel % 5 {
	case 0:
		return value.Null
	case 1:
		return value.NewInt(int64(binary.LittleEndian.Uint64(take(8))))
	case 2:
		return value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(take(8))))
	case 3:
		return value.NewString(string(take(int(sel) / 16)))
	default:
		return value.NewBool(sel&0x10 != 0)
	}
}

// FuzzExternalSort is the property test of the external-sort machinery: for
// arbitrary rows (mixed int/float/string/bool/NULL keys) and an arbitrary
// tiny budget, the extSorter's merged output must equal a stable in-memory
// sort of the same rows — byte-identical through the spill codec — and the
// run files must all be gone after close. The runs of every input go to one
// directory, made once: a directory made and removed per input cost more
// than the sort of a typical input.
func FuzzExternalSort(f *testing.F) {
	f.Add([]byte{}, uint16(1), false)
	f.Add([]byte{1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 2, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f}, uint16(32), true)
	f.Add(bytes.Repeat([]byte{1, 9, 2, 7, 3, 5}, 40), uint16(64), false)
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte, budget uint16, desc bool) {
		// Decode a row stream: two columns, first is the sort key.
		var rows []value.Row
		pos := 0
		for pos < len(data) && len(rows) < 512 {
			rows = append(rows, value.Row{
				fuzzSpillValue(data, &pos),
				fuzzSpillValue(data, &pos),
			})
		}

		cmp := func(a, b value.Row) int {
			c := value.OrderKey(a[0], b[0])
			if desc {
				return -c
			}
			return c
		}

		// Reference: a plain stable in-memory sort by the key column.
		ref := make([]spillRow, len(rows))
		for i, r := range rows {
			ref[i] = spillRow{seq: int64(i), row: r}
		}
		sort.SliceStable(ref, func(i, j int) bool { return cmp(ref[i].row, ref[j].row) < 0 })

		// Subject: the extSorter under a budget tight enough to force runs
		// to disk on any non-trivial input.
		mgr := storage.NewSpillManager(dir)
		gov := newGovernor(&Options{MemoryBudget: 1 + int64(budget%1024)})
		x := newSorter(gov, mgr, nil, "fuzz", 1, cmp)
		for i, r := range rows {
			if err := x.add(r, rowStateBytes(r)); err != nil {
				t.Fatalf("add row %d: %v", i, err)
			}
		}
		out, err := x.finish(nil)
		if err != nil {
			t.Fatalf("finish: %v", err)
		}
		// A sort that fit is its rows, sorted in place: only a merge carries
		// the records' seqs.
		got := make([]spillRow, len(out.rows))
		for i, row := range out.rows {
			got[i] = spillRow{seq: ref[i].seq, row: row}
		}
		for out.merge != nil {
			sr, ok, err := out.merge.next()
			if err != nil {
				t.Fatalf("merge next: %v", err)
			}
			if !ok {
				break
			}
			got = append(got, sr)
		}
		if err := x.close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if n := mgr.Live(); n != 0 {
			t.Fatalf("external sort leaked %d run files", n)
		}

		if len(got) != len(ref) {
			t.Fatalf("merged %d rows, reference has %d", len(got), len(ref))
		}
		for i := range ref {
			if got[i].seq != ref[i].seq {
				t.Fatalf("row %d: merged seq %d, reference seq %d (budget=%d desc=%v)",
					i, got[i].seq, ref[i].seq, budget, desc)
			}
			// Byte-compare through the codec: exact round-trip equality,
			// including NaN payloads == cannot see.
			w := appendSpillRow(nil, 0, ref[i].row)
			g := appendSpillRow(nil, 0, got[i].row)
			if !bytes.Equal(w, g) {
				t.Fatalf("row %d: value round-trip mismatch\nwant %x\ngot  %x", i, w, g)
			}
		}
	})
}
