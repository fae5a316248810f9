package value

import (
	"math"
	"unsafe"
)

// Value is a single SQL scalar. The zero Value is NULL.
//
// It is two words: a pointer word that says what the value is, and a 64-bit
// payload word that holds it.
//
//   - p == nil: NULL.
//   - p points into tags: INTEGER, DOUBLE, BOOLEAN or the empty string, by
//     which element it points at; n is the int64, the float's bits, 0|1, or 0.
//   - any other p: a non-empty CHARACTER value. p is the string's data
//     pointer and n its length; the pointer word is what keeps the bytes
//     alive for the collector.
//
// Since two equal strings need not share a data pointer, == on a Value would
// not mean equality; the zero-size func array makes it a compile error. Use
// Compare, Equal or NullEq. This file is the only one in the module that
// imports unsafe: everything else, in this package too, goes through the
// constructors and accessors below.
type Value struct {
	_ [0]func()
	p unsafe.Pointer
	n uint64
}

// tags[k-1] is the pointer word of a value of kind k whose payload is not a
// pointer. A CHARACTER value points here only when it is empty (the data
// pointer of an empty string is unspecified, so it cannot serve).
var tags [KindBool]byte

func tag(k Kind) unsafe.Pointer { return unsafe.Pointer(&tags[k-1]) }

// NewInt returns an INTEGER value.
func NewInt(v int64) Value { return Value{p: tag(KindInt), n: uint64(v)} }

// NewFloat returns a DOUBLE value.
func NewFloat(v float64) Value { return Value{p: tag(KindFloat), n: math.Float64bits(v)} }

// NewString returns a CHARACTER value.
func NewString(v string) Value {
	if v == "" {
		return Value{p: tag(KindString)}
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), n: uint64(len(v))}
}

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value {
	if v {
		return Value{p: tag(KindBool), n: 1}
	}
	return Value{p: tag(KindBool)}
}

// Kind reports the value's runtime kind.
func (v Value) Kind() Kind {
	if v.p == nil {
		return KindNull
	}
	// Address arithmetic only; no uintptr is turned back into a pointer.
	if off := uintptr(v.p) - uintptr(unsafe.Pointer(&tags)); off < uintptr(len(tags)) {
		return Kind(off + 1)
	}
	return KindString
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.p == nil }

// The payload readers. Each assumes the caller has checked the kind; the
// exported accessors (Int, Float, Str, Bool) are these plus the check.
func (v Value) i() int64   { return int64(v.n) }
func (v Value) f() float64 { return math.Float64frombits(v.n) }
func (v Value) b() bool    { return v.n != 0 }

// str yields "" for the empty-string tag: its length word is 0.
func (v Value) str() string { return unsafe.String((*byte)(v.p), int(v.n)) }
