package value

import (
	"encoding/binary"
	"math"
	"strings"
)

// Row is a tuple of SQL values. Rows are positional; column-name binding is
// the job of the schema and expression layers.
type Row []Value

// Clone returns an independent copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Concat returns the concatenation r ∘ s (the paper's "·" operator on rows)
// as a fresh row.
func (r Row) Concat(s Row) Row {
	out := make(Row, 0, len(r)+len(s))
	out = append(out, r...)
	out = append(out, s...)
	return out
}

// Project returns the sub-row of r at the given column positions.
func (r Row) Project(cols []int) Row {
	out := make(Row, len(cols))
	for i, c := range cols {
		out[i] = r[c]
	}
	return out
}

// NullEqRows reports row equivalence with respect to =ⁿ (Definition 1 of the
// paper): every pair of corresponding values must be duplicates of each
// other, with NULL counting as equal to NULL.
func NullEqRows(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !NullEq(a[i], b[i]) {
			return false
		}
	}
	return true
}

// String renders the row as "(v1, v2, ...)".
func (r Row) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, v := range r {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// GroupKey encodes the given columns of a row into a byte string such that
// two rows produce the same key exactly when they are =ⁿ-equivalent on those
// columns. It is the hashing counterpart of the duplicate semantics: NULLs
// collide with NULLs and with nothing else, and an INTEGER collides with a
// DOUBLE holding the same numeric value (mirroring Compare).
//
// The encoding is self-delimiting (kind tag + fixed width or length prefix)
// so distinct value sequences can never collide.
func GroupKey(r Row, cols []int) string {
	var arr [64]byte
	buf := arr[:0]
	for _, c := range cols {
		buf = AppendGroupKey(buf, r[c])
	}
	return string(buf)
}

// AppendGroupKey appends the canonical GroupKey encoding of one value to
// dst and returns the extended slice. The bytes written are exactly those
// GroupKey contributes for the value, so column-at-a-time encoders (the
// vectorized executor) can assemble multi-column keys that match the
// row-at-a-time encoding byte for byte.
func AppendGroupKey(dst []byte, v Value) []byte {
	var buf [8]byte
	switch v.Kind() {
	case KindNull:
		return append(dst, 0)
	case KindBool:
		if v.b() {
			return append(dst, 1, 1)
		}
		return append(dst, 1, 0)
	case KindInt:
		binary.BigEndian.PutUint64(buf[:], uint64(v.i()))
		dst = append(dst, 2)
		return append(dst, buf[:]...)
	case KindFloat:
		// A float that holds an exact int64 value (including -0.0,
		// which compares equal to 0) encodes as that integer so
		// that 1 and 1.0 group together, matching Compare. All
		// other floats keep a distinct float encoding; they can
		// never compare equal to an int64.
		if i, exact := exactInt(v.f()); exact {
			binary.BigEndian.PutUint64(buf[:], uint64(i))
			dst = append(dst, 2)
		} else {
			binary.BigEndian.PutUint64(buf[:], math.Float64bits(v.f()))
			dst = append(dst, 4)
		}
		return append(dst, buf[:]...)
	case KindString:
		binary.BigEndian.PutUint64(buf[:], uint64(len(v.str())))
		dst = append(dst, 3)
		dst = append(dst, buf[:]...)
		return append(dst, v.str()...)
	default:
		return dst
	}
}

// ExactInt reports whether f holds an exact int64 value, returning it. It
// is the public face of the GroupKey float-vs-int collapsing rule, for
// encoders that process float columns a vector at a time.
func ExactInt(f float64) (int64, bool) { return exactInt(f) }

// exactInt reports whether f holds an exact int64 value, returning it.
func exactInt(f float64) (int64, bool) {
	if math.IsNaN(f) || f >= 0x1p63 || f < -0x1p63 {
		return 0, false
	}
	if math.Trunc(f) != f {
		return 0, false
	}
	return int64(f), true
}

// GroupKeyAll is GroupKey over every column of the row.
func GroupKeyAll(r Row) string {
	cols := make([]int, len(r))
	for i := range cols {
		cols[i] = i
	}
	return GroupKey(r, cols)
}
