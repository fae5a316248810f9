// Package vec implements the columnar data representation of the
// vectorized executor: typed column vectors (int64 / float64 / bool /
// dictionary-encoded strings) with null bitmaps, fixed-size batches with
// optional selection vectors, and a group-key encoder that reproduces the
// value.GroupKey canonical encoding a column at a time.
//
// The representation is lossless with respect to the row model: every
// vector can materialize any element back into a value.Value, and a column
// whose rows mix kinds (possible in intermediate results, never in stored
// tables) falls back to a boxed representation so semantics are preserved
// exactly. All grouping and join-key decisions route through the same
// canonical byte encoding as the row engine, so NULL collision rules and
// the int/float collapsing of GroupKey carry over unchanged.
package vec

import (
	"repro/internal/value"
)

// BatchSize is the number of rows in one columnar batch — aligned with the
// executor's morsel size so a batch is one scheduling unit.
const BatchSize = 1024

// Bitmap is a null bitmap: bit i set means element i is NULL.
type Bitmap struct {
	words []uint64
	any   bool
}

// reset clears the bitmap and sizes it for n bits.
func (b *Bitmap) reset(n int) {
	need := (n + 63) / 64
	if cap(b.words) < need {
		b.words = make([]uint64, need)
	} else {
		b.words = b.words[:need]
		for i := range b.words {
			b.words[i] = 0
		}
	}
	b.any = false
}

// set marks bit i.
func (b *Bitmap) set(i int) {
	b.words[i>>6] |= 1 << (uint(i) & 63)
	b.any = true
}

// Get reports whether bit i is set. Out-of-range bits read as clear, so an
// empty bitmap means "no NULLs".
func (b *Bitmap) Get(i int) bool {
	w := i >> 6
	if w >= len(b.words) {
		return false
	}
	return b.words[w]&(1<<(uint(i)&63)) != 0
}

// Any reports whether any bit is set — the fast path test that lets
// kernels skip per-element NULL checks on all-valid vectors.
func (b *Bitmap) Any() bool { return b.any }

// grow extends the bitmap to cover n bits, preserving existing bits.
func (b *Bitmap) grow(n int) {
	need := (n + 63) / 64
	for len(b.words) < need {
		b.words = append(b.words, 0)
	}
}

// Dict interns the distinct strings of a column: vectors store int32 codes
// and share one Dict, so equal strings compare as equal codes and a batch
// of strings costs one slice of codes, not one allocation per row.
type Dict struct {
	syms  []string
	index map[string]int32
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{index: make(map[string]int32)}
}

// Intern returns the code for s, assigning the next code on first sight.
func (d *Dict) Intern(s string) int32 {
	if c, ok := d.index[s]; ok {
		return c
	}
	c := int32(len(d.syms))
	d.syms = append(d.syms, s)
	d.index[s] = c
	return c
}

// Code returns the code for s and whether it is present, without interning.
func (d *Dict) Code(s string) (int32, bool) {
	c, ok := d.index[s]
	return c, ok
}

// At returns the string for a code.
func (d *Dict) At(code int32) string { return d.syms[code] }

// clone returns an independent copy with the same code assignment. The
// index is rebuilt from the symbol list, so the copy shares no mutable
// state with the original.
func (d *Dict) clone() *Dict {
	syms := append([]string(nil), d.syms...)
	index := make(map[string]int32, len(syms))
	for i, s := range syms {
		index[s] = int32(i)
	}
	return &Dict{syms: syms, index: index}
}

// Len returns the number of distinct strings interned.
func (d *Dict) Len() int { return len(d.syms) }

// Vector is one column of a batch: a typed payload plus a null bitmap.
// Exactly one payload is active, selected by kind; a column whose non-null
// elements mix kinds keeps every element boxed in vals instead (the mixed
// representation), trading speed for exact row-model semantics.
type Vector struct {
	kind  value.Kind // payload kind; KindNull when all elements are NULL
	mixed bool       // true: vals holds every element verbatim
	n     int

	nulls  Bitmap
	ints   []int64
	floats []float64
	bools  []bool
	codes  []int32
	dict   *Dict
	// foreign marks dict as adopted from another vector (see AppendFrom):
	// it may be read but never mutated — Intern goes through a private
	// clone first. Concurrent readers of the donor stay safe.
	foreign bool
	vals    []value.Value
}

// Len returns the element count.
func (v *Vector) Len() int { return v.n }

// Kind returns the payload kind: the uniform kind of the non-null
// elements, or KindNull when the column is entirely NULL. Meaningless when
// Mixed.
func (v *Vector) Kind() value.Kind { return v.kind }

// Mixed reports whether the column fell back to boxed values because its
// elements mix kinds.
func (v *Vector) Mixed() bool { return v.mixed }

// HasNulls reports whether any element is NULL.
func (v *Vector) HasNulls() bool {
	if v.mixed {
		for _, val := range v.vals {
			if val.IsNull() {
				return true
			}
		}
		return false
	}
	return v.nulls.Any()
}

// IsNull reports whether element i is NULL.
func (v *Vector) IsNull(i int) bool {
	if v.mixed {
		return v.vals[i].IsNull()
	}
	return v.kind == value.KindNull || v.nulls.Get(i)
}

// Int returns the int64 payload of element i (kind KindInt, non-null).
func (v *Vector) Int(i int) int64 { return v.ints[i] }

// Float returns the float64 payload of element i (kind KindFloat, non-null).
func (v *Vector) Float(i int) float64 { return v.floats[i] }

// Str returns the string payload of element i (kind KindString, non-null).
func (v *Vector) Str(i int) string { return v.dict.At(v.codes[i]) }

// Code returns the dictionary code of element i (kind KindString, non-null).
func (v *Vector) Code(i int) int32 { return v.codes[i] }

// StrDict returns the dictionary of a string vector (nil otherwise).
func (v *Vector) StrDict() *Dict { return v.dict }

// Value materializes element i as a value.Value. It never allocates: the
// Value struct copies payload words (a string header for dictionary
// strings).
func (v *Vector) Value(i int) value.Value {
	if v.mixed {
		return v.vals[i]
	}
	if v.kind == value.KindNull || v.nulls.Get(i) {
		return value.Null
	}
	switch v.kind {
	case value.KindInt:
		return value.NewInt(v.ints[i])
	case value.KindFloat:
		return value.NewFloat(v.floats[i])
	case value.KindString:
		return value.NewString(v.dict.At(v.codes[i]))
	case value.KindBool:
		return value.NewBool(v.bools[i])
	default:
		return value.Null
	}
}

// Append adds one element, establishing the payload kind on the first
// non-null element and demoting the whole column to the mixed
// representation if a later element disagrees. String payloads intern into
// the vector's dictionary (created on demand when the vector has none).
func (v *Vector) Append(val value.Value) {
	if v.mixed {
		v.vals = append(v.vals, val)
		v.n++
		return
	}
	if !val.IsNull() && v.kind != value.KindNull && val.Kind() != v.kind {
		v.demote()
		v.vals = append(v.vals, val)
		v.n++
		return
	}
	i := v.n
	v.nulls.grow(i + 1)
	if val.IsNull() {
		v.nulls.set(i)
		v.pad(i + 1)
		v.n++
		return
	}
	if v.kind == value.KindNull {
		// First non-null element: establish the payload kind and backfill
		// the slots of the leading NULLs.
		v.kind = val.Kind()
		v.pad(i)
	}
	switch v.kind {
	case value.KindInt:
		v.ints = append(v.ints, val.Int())
	case value.KindFloat:
		v.floats = append(v.floats, val.Float())
	case value.KindString:
		if v.dict == nil {
			v.dict = NewDict()
		} else if v.foreign {
			// Copy-on-write: never intern into an adopted dictionary —
			// its owner (a cached storage column or another operator's
			// output) may be read concurrently.
			v.dict = v.dict.clone()
			v.foreign = false
		}
		v.codes = append(v.codes, v.dict.Intern(val.Str()))
	case value.KindBool:
		v.bools = append(v.bools, val.Bool())
	}
	v.n++
}

// AppendBoxed adds one element to a vector that is kept in the mixed (boxed)
// representation from its first element on — the gather of a row store's
// values, which a typed payload would re-kind and re-intern one by one. Such
// a gather fills about a batch, so the payload starts at that size instead of
// growing to it in a dozen steps.
func (v *Vector) AppendBoxed(val value.Value) {
	if !v.mixed && v.n > 0 {
		v.demote()
	}
	if cap(v.vals) == 0 {
		v.vals = make([]value.Value, 0, BatchSize)
	}
	v.mixed = true
	v.vals = append(v.vals, val)
	v.n++
}

// AppendFrom appends element i of src, copying typed payloads directly
// when the kinds line up. A vector whose first element comes from a
// dictionary-encoded source adopts the source dictionary read-only
// (copy-on-write, see Append), so a join gather copies int32 codes
// instead of re-interning every string; a source with a different
// dictionary still re-interns into this vector's own — never into src's,
// which other workers may be reading.
func (v *Vector) AppendFrom(src *Vector, i int) {
	if !v.mixed && !src.mixed && !src.IsNull(i) {
		if v.kind == value.KindNull && src.kind == value.KindString &&
			(v.dict == nil || v.dict == src.dict) {
			// Establish the payload kind exactly like Append's first
			// non-null element would, but share src's dictionary instead
			// of growing a private one element by element. A reused vector
			// (Reset keeps the dictionary) re-adopts the same dictionary.
			v.kind = value.KindString
			v.dict = src.dict
			v.foreign = true
			v.pad(v.n)
		}
	}
	if !v.mixed && !src.mixed && v.kind == src.kind && !src.IsNull(i) {
		switch v.kind {
		case value.KindInt:
			v.nulls.grow(v.n + 1)
			v.ints = append(v.ints, src.ints[i])
			v.n++
			return
		case value.KindFloat:
			v.nulls.grow(v.n + 1)
			v.floats = append(v.floats, src.floats[i])
			v.n++
			return
		case value.KindString:
			if v.dict == src.dict {
				v.nulls.grow(v.n + 1)
				v.codes = append(v.codes, src.codes[i])
				v.n++
				return
			}
		case value.KindBool:
			v.nulls.grow(v.n + 1)
			v.bools = append(v.bools, src.bools[i])
			v.n++
			return
		}
	}
	v.Append(src.Value(i))
}

// pad grows the active payload slice to n slots with zero values, keeping
// payload index == element index even across NULLs.
func (v *Vector) pad(n int) {
	switch v.kind {
	case value.KindInt:
		for len(v.ints) < n {
			v.ints = append(v.ints, 0)
		}
	case value.KindFloat:
		for len(v.floats) < n {
			v.floats = append(v.floats, 0)
		}
	case value.KindString:
		for len(v.codes) < n {
			v.codes = append(v.codes, 0)
		}
	case value.KindBool:
		for len(v.bools) < n {
			v.bools = append(v.bools, false)
		}
	}
}

// demote converts the vector to the mixed (boxed) representation.
func (v *Vector) demote() {
	vals := make([]value.Value, v.n)
	for i := 0; i < v.n; i++ {
		vals[i] = v.Value(i)
	}
	v.mixed = true
	v.vals = vals
	v.ints, v.floats, v.bools, v.codes, v.dict = nil, nil, nil, nil, nil
	v.nulls = Bitmap{}
}

// Reset empties the vector for reuse, keeping payload capacity and the
// dictionary.
func (v *Vector) Reset() {
	v.n = 0
	v.mixed = false
	v.kind = value.KindNull
	v.nulls.reset(0)
	v.ints = v.ints[:0]
	v.floats = v.floats[:0]
	v.bools = v.bools[:0]
	v.codes = v.codes[:0]
	v.vals = v.vals[:0]
}
