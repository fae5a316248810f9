// Package value implements the SQL2 value system the paper's semantics are
// defined over: scalar values with NULL, three-valued logic for search
// conditions (Figure 2 of the paper), the interpretation operators ⌊P⌋ and
// ⌈P⌉, and the null-aware duplicate equality =ⁿ (Figure 3).
//
// Two distinct notions of equality coexist in SQL2 and both are needed:
//
//   - Comparison equality ("=" in a WHERE clause) is three-valued: comparing
//     anything with NULL yields Unknown, and a row qualifies only when the
//     whole condition is True.
//   - Duplicate equality (=ⁿ), used by GROUP BY, DISTINCT, UNION, EXCEPT and
//     INTERSECT, is two-valued and treats NULL as equal to NULL.
//
// The paper's correctness results depend on keeping these separate, so the
// package exposes them as separate operations: Compare/Equal return a Truth,
// while NullEq returns a bool.
package value

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// The value kinds supported by the engine. They cover the types used by the
// paper's examples (integers, character strings) plus floats and booleans,
// which the aggregate AVG and CHECK constraints need.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "CHARACTER"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Null is the SQL NULL value.
var Null = Value{}

// Int returns the integer payload. It panics unless Kind is KindInt.
func (v Value) Int() int64 {
	if v.Kind() != KindInt {
		panic(kindError{"Int", v})
	}
	return v.i()
}

// Float returns the float payload. It panics unless Kind is KindFloat.
func (v Value) Float() float64 {
	if v.Kind() != KindFloat {
		panic(kindError{"Float", v})
	}
	return v.f()
}

// Str returns the string payload. It panics unless Kind is KindString.
func (v Value) Str() string {
	if v.Kind() != KindString {
		panic(kindError{"Str", v})
	}
	return v.str()
}

// Bool returns the boolean payload. It panics unless Kind is KindBool.
func (v Value) Bool() bool {
	if v.Kind() != KindBool {
		panic(kindError{"Bool", v})
	}
	return v.b()
}

// kindError is what an accessor panics with on a value of another kind. The
// message is built only if someone prints it, which keeps the accessors
// small enough to inline.
type kindError struct {
	accessor string
	v        Value
}

func (e kindError) Error() string {
	return "value: " + e.accessor + "() on " + e.v.Kind().String()
}

// AsFloat converts a numeric value to float64 for mixed-type arithmetic and
// comparison. ok is false for non-numeric values (including NULL).
func (v Value) AsFloat() (f float64, ok bool) {
	switch v.Kind() {
	case KindInt:
		return float64(v.i()), true
	case KindFloat:
		return v.f(), true
	default:
		return 0, false
	}
}

// IsNumeric reports whether the value is an INTEGER or DOUBLE.
func (v Value) IsNumeric() bool {
	k := v.Kind()
	return k == KindInt || k == KindFloat
}

// String renders the value the way the shell and EXPLAIN output print it.
func (v Value) String() string {
	switch v.Kind() {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case KindString:
		return "'" + v.str() + "'"
	case KindBool:
		if v.b() {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("Value(kind=%d)", uint8(v.Kind()))
	}
}

// Truth is an SQL2 three-valued truth value.
type Truth uint8

// The three SQL2 truth values.
const (
	False Truth = iota
	Unknown
	True
)

// String returns "true", "unknown" or "false" matching Figure 2's labels.
func (t Truth) String() string {
	switch t {
	case True:
		return "true"
	case Unknown:
		return "unknown"
	case False:
		return "false"
	default:
		return fmt.Sprintf("Truth(%d)", uint8(t))
	}
}

// TruthOf converts a Go bool into a Truth.
func TruthOf(b bool) Truth {
	if b {
		return True
	}
	return False
}

// And implements the SQL2 AND truth table (Figure 2):
// true AND unknown = unknown, false AND anything = false.
func And(a, b Truth) Truth {
	if a == False || b == False {
		return False
	}
	if a == Unknown || b == Unknown {
		return Unknown
	}
	return True
}

// Or implements the SQL2 OR truth table (Figure 2):
// true OR anything = true, false OR unknown = unknown.
func Or(a, b Truth) Truth {
	if a == True || b == True {
		return True
	}
	if a == Unknown || b == Unknown {
		return Unknown
	}
	return False
}

// Not implements SQL2 NOT: NOT unknown = unknown.
func Not(a Truth) Truth {
	switch a {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// Floor is the interpretation operator ⌊P⌋ of Figure 3: it maps unknown to
// false. A WHERE clause keeps a row exactly when ⌊C⌋ is true.
func Floor(t Truth) bool { return t == True }

// Ceil is the interpretation operator ⌈P⌉ of Figure 3: it maps unknown to
// true. It appears in the antecedents of Theorem 3's conditions.
func Ceil(t Truth) bool { return t != False }

// Compare compares two values under SQL comparison semantics and reports the
// sign of a-b. If either operand is NULL, or the operands are not comparable
// (e.g. a string against a number), ok is false and the comparison result is
// Unknown for every predicate built on it.
//
// Numeric values compare across INTEGER/DOUBLE; strings compare
// lexicographically; booleans order FALSE < TRUE.
func Compare(a, b Value) (sign int, ok bool) {
	ak, bk := a.Kind(), b.Kind()
	switch {
	case ak == KindNull || bk == KindNull:
		return 0, false
	case ak == KindInt && bk == KindInt:
		return cmp.Compare(a.i(), b.i()), true
	case ak == KindInt && bk == KindFloat:
		return cmpIntFloat(a.i(), b.f())
	case ak == KindFloat && bk == KindInt:
		sign, ok = cmpIntFloat(b.i(), a.f())
		return -sign, ok
	case ak != bk:
		return 0, false
	}
	switch ak {
	case KindFloat:
		af, bf := a.f(), b.f()
		if math.IsNaN(af) || math.IsNaN(bf) {
			return 0, false
		}
		return cmp.Compare(af, bf), true
	case KindString:
		return strings.Compare(a.str(), b.str()), true
	case KindBool:
		av, bv := 0, 0
		if a.b() {
			av = 1
		}
		if b.b() {
			bv = 1
		}
		return av - bv, true
	default:
		return 0, false
	}
}

// cmpIntFloat compares an int64 against a float64 exactly, without rounding
// the integer through float64 (which would conflate e.g. MaxInt64 and
// MaxInt64-1). NaN is incomparable.
func cmpIntFloat(i int64, f float64) (sign int, ok bool) {
	if math.IsNaN(f) {
		return 0, false
	}
	// 0x1p63 == 2^63 > MaxInt64; anything at or above it exceeds every
	// int64, and anything below -2^63 is under every int64. -2^63 itself
	// equals MinInt64 and is handled by the exact path below.
	if f >= 0x1p63 {
		return -1, true
	}
	if f < -0x1p63 {
		return 1, true
	}
	t := math.Trunc(f)
	ti := int64(t) // exact: -2^63 <= t < 2^63
	switch {
	case i < ti:
		return -1, true
	case i > ti:
		return 1, true
	}
	frac := f - t
	switch {
	case frac > 0:
		return -1, true
	case frac < 0:
		return 1, true
	default:
		return 0, true
	}
}

// Equal is the three-valued SQL comparison a = b.
func Equal(a, b Value) Truth {
	sign, ok := Compare(a, b)
	if !ok {
		return Unknown
	}
	return TruthOf(sign == 0)
}

// Less is the three-valued SQL comparison a < b.
func Less(a, b Value) Truth {
	sign, ok := Compare(a, b)
	if !ok {
		return Unknown
	}
	return TruthOf(sign < 0)
}

// NullEq is the duplicate equality =ⁿ of Figure 3: true when both operands
// are NULL, ⌊a = b⌋ otherwise. GROUP BY, DISTINCT and the paper's functional
// dependencies are all defined in terms of it.
func NullEq(a, b Value) bool {
	if a.IsNull() && b.IsNull() {
		return true
	}
	return Floor(Equal(a, b))
}

// OrderKey gives a total order over all values, used for sort-based grouping
// and ORDER BY: NULLs sort first and are equal to each other (consistent with
// =ⁿ so that sort-grouping and hash-grouping form identical groups), then
// booleans, then numerics, then strings.
func OrderKey(a, b Value) int {
	ra, rb := orderRank(a), orderRank(b)
	if ra != rb {
		return ra - rb
	}
	if a.IsNull() {
		return 0
	}
	sign, ok := Compare(a, b)
	if !ok {
		// Same rank but incomparable can only happen for NaN floats;
		// fall back to bit order so sorting stays deterministic.
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		abits, bbits := math.Float64bits(af), math.Float64bits(bf)
		switch {
		case abits < bbits:
			return -1
		case abits > bbits:
			return 1
		default:
			return 0
		}
	}
	return sign
}

func orderRank(v Value) int {
	switch v.Kind() {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	case KindString:
		return 3
	default:
		return 4
	}
}
