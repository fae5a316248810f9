// Fixture for the selbounds analyzer: consumer code must not commit to a
// batch's selection-vector representation (Sel == nil means identity).
package selbounds

type Batch struct {
	Sel []int32
	n   int
}

func direct(b *Batch) int32 {
	return b.Sel[0] // want "direct index into selection vector"
}

func loop(b *Batch) int32 {
	var s int32
	for _, i := range b.Sel { // want "range over selection vector"
		s += i
	}
	return s
}

// gatherStage: a pipeline stage's per-batch function gathers into its reused
// output by Batch.Index like everyone else — the batch it is handed may be a
// table's (Sel == nil) or a filter's view.
func gatherStage(out []int32) func(b *Batch) []int32 {
	return func(b *Batch) []int32 {
		out = out[:0]
		for i := 0; i < b.n; i++ {
			out = append(out, b.Sel[i]) // want "direct index into selection vector"
		}
		return out
	}
}

// nilCheck: asking which representation a batch uses is legal.
func nilCheck(b *Batch) bool {
	return b.Sel == nil
}

// assignFresh: building a new selection is representation maintenance,
// not access.
func assignFresh(b *Batch, sel []int32) {
	b.Sel = sel
}

// otherStruct: only Batch's Sel field carries the protocol.
func otherStruct() int32 {
	type filter struct {
		Sel []int32
	}
	f := filter{Sel: []int32{1}}
	return f.Sel[0]
}
