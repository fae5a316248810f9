package value

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// These tests pin the two-word representation of repr.go: its size, that
// every kind survives constructor → Kind() → accessor at the edges of its
// payload, and that the pointer word is a real pointer to the collector.

func TestValueIsTwoWords(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 16", got)
	}
	var zero Value
	if !zero.IsNull() || zero.Kind() != KindNull || !NullEq(zero, Null) {
		t.Fatalf("the zero Value is %v (kind %v), want NULL", zero, zero.Kind())
	}
}

func TestRepresentationRoundTrip(t *testing.T) {
	for _, i := range []int64{0, 1, -1, math.MinInt64, math.MaxInt64} {
		if v := NewInt(i); v.Kind() != KindInt || v.Int() != i {
			t.Errorf("NewInt(%d) reads back as %v %v", i, v.Kind(), v)
		}
	}
	negZero := math.Copysign(0, -1)
	for _, f := range []float64{0, negZero, 1.5, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		v := NewFloat(f)
		// Bit equality: NaN and the sign of zero must survive.
		if v.Kind() != KindFloat || math.Float64bits(v.Float()) != math.Float64bits(f) {
			t.Errorf("NewFloat(%v) reads back as %v %v", f, v.Kind(), v)
		}
	}
	for _, s := range []string{"", "x", "\x00", "two words", strings.Repeat("long ", 100)} {
		if v := NewString(s); v.Kind() != KindString || v.Str() != s || v.IsNull() {
			t.Errorf("NewString(%q) reads back as %v %q", s, v.Kind(), v.Str())
		}
	}
	// A substring's data pointer is interior to another string's bytes.
	whole := "headtail"
	if v := NewString(whole[4:]); v.Kind() != KindString || v.Str() != "tail" {
		t.Errorf("NewString of a substring reads back as %v %v", v.Kind(), v)
	}
	for _, b := range []bool{false, true} {
		if v := NewBool(b); v.Kind() != KindBool || v.Bool() != b || v.IsNull() {
			t.Errorf("NewBool(%v) reads back as %v %v", b, v.Kind(), v)
		}
	}
	// The payload never decides the kind: equal payload words, five kinds.
	zeros := []Value{Null, NewInt(0), NewFloat(0), NewString(""), NewBool(false)}
	for i, v := range zeros {
		if v.Kind() != Kind(i) {
			t.Errorf("zero payload of kind %v reads back as %v", Kind(i), v.Kind())
		}
	}
}

func TestAccessorPanicNamesTheKinds(t *testing.T) {
	defer func() {
		err, ok := recover().(error)
		if !ok || err.Error() != "value: Str() on INTEGER" {
			t.Errorf("Str() on an integer panicked with %v", err)
		}
	}()
	_ = NewInt(1).Str()
}

// TestStringSurvivesGC: a string reachable only through a Value's pointer
// word is still there after a collection (and its freed neighbours are not
// mistaken for it).
func TestStringSurvivesGC(t *testing.T) {
	const n = 1000
	vals := make([]Value, n)
	for i := range vals {
		// Built at run time, so the bytes live on the heap, and referenced
		// by nothing but vals[i].
		vals[i] = NewString(strings.Repeat(string(rune('a'+i%26)), 1+i%50))
	}
	for round := 0; round < 3; round++ {
		garbage := make([][]byte, n)
		for i := range garbage {
			garbage[i] = make([]byte, 1+i%50)
		}
		runtime.GC()
	}
	for i, v := range vals {
		if want := strings.Repeat(string(rune('a'+i%26)), 1+i%50); v.Str() != want {
			t.Fatalf("value %d reads %q after GC, want %q", i, v.Str(), want)
		}
	}
}
