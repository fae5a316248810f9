package vec

import (
	"encoding/binary"
	"math"

	"repro/internal/value"
)

// KeyEncoder computes the canonical group-key encoding (value.GroupKey's
// byte format, exactly) for whole batches at a time: one typed
// column-at-a-time pass per key column, appending each element's encoding
// to its row's key buffer. Buffers persist across Encode calls, so the
// steady state allocates nothing.
//
// FuzzGroupKeyVector pins the byte-for-byte equivalence with the scalar
// encoder over mixed int/float/string/NULL inputs.
type KeyEncoder struct {
	keys [][]byte
}

// keySlot is the bytes a row's key buffer starts with per key column.
const keySlot = 16

// Encode returns one canonical key per logical row of b, over the given
// column positions. The returned slice and its buffers are valid until the
// next Encode call on this encoder.
func (e *KeyEncoder) Encode(b *Batch, cols []int) [][]byte {
	n := b.Len()
	if old := cap(e.keys); old < n {
		// The new rows' buffers are cut from one slab, a slot per key column
		// that holds any fixed-width encoding and a short string's; a longer
		// key outgrows its slice on its own.
		grown := make([][]byte, n)
		copy(grown, e.keys[:old])
		width := keySlot * len(cols)
		slab := make([]byte, (n-old)*width)
		for i := old; i < n; i++ {
			grown[i], slab = slab[:0:width], slab[width:]
		}
		e.keys = grown
	}
	e.keys = e.keys[:n]
	for i := range e.keys {
		e.keys[i] = e.keys[i][:0]
	}
	for _, c := range cols {
		e.encodeCol(b, b.Cols[c])
	}
	return e.keys
}

// encodeCol appends column v's encoding to every row key.
func (e *KeyEncoder) encodeCol(b *Batch, v *Vector) {
	n := b.Len()
	if v.mixed {
		for i := 0; i < n; i++ {
			e.keys[i] = value.AppendGroupKey(e.keys[i], v.vals[b.Index(i)])
		}
		return
	}
	if v.kind == value.KindNull {
		for i := 0; i < n; i++ {
			e.keys[i] = append(e.keys[i], 0)
		}
		return
	}
	hasNulls := v.nulls.Any()
	switch v.kind {
	case value.KindInt:
		for i := 0; i < n; i++ {
			phys := b.Index(i)
			if hasNulls && v.nulls.Get(phys) {
				e.keys[i] = append(e.keys[i], 0)
				continue
			}
			e.keys[i] = appendIntKey(e.keys[i], v.ints[phys])
		}
	case value.KindFloat:
		for i := 0; i < n; i++ {
			phys := b.Index(i)
			if hasNulls && v.nulls.Get(phys) {
				e.keys[i] = append(e.keys[i], 0)
				continue
			}
			e.keys[i] = appendFloatKey(e.keys[i], v.floats[phys])
		}
	case value.KindString:
		for i := 0; i < n; i++ {
			phys := b.Index(i)
			if hasNulls && v.nulls.Get(phys) {
				e.keys[i] = append(e.keys[i], 0)
				continue
			}
			e.keys[i] = appendStringKey(e.keys[i], v.dict.At(v.codes[phys]))
		}
	case value.KindBool:
		for i := 0; i < n; i++ {
			phys := b.Index(i)
			if hasNulls && v.nulls.Get(phys) {
				e.keys[i] = append(e.keys[i], 0)
				continue
			}
			if v.bools[phys] {
				e.keys[i] = append(e.keys[i], 1, 1)
			} else {
				e.keys[i] = append(e.keys[i], 1, 0)
			}
		}
	}
}

// appendIntKey appends the canonical INTEGER key encoding (tag 2, big-
// endian payload).
func appendIntKey(dst []byte, i int64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(i))
	dst = append(dst, 2)
	return append(dst, buf[:]...)
}

// appendFloatKey appends the canonical DOUBLE key encoding: exact-integer
// floats collapse onto the INTEGER encoding (so 1 and 1.0 group together),
// everything else keeps tag 4 with the IEEE bits.
func appendFloatKey(dst []byte, f float64) []byte {
	var buf [8]byte
	if i, exact := value.ExactInt(f); exact {
		binary.BigEndian.PutUint64(buf[:], uint64(i))
		dst = append(dst, 2)
	} else {
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(f))
		dst = append(dst, 4)
	}
	return append(dst, buf[:]...)
}

// appendStringKey appends the canonical CHARACTER key encoding (tag 3,
// length prefix, bytes).
func appendStringKey(dst []byte, s string) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(len(s)))
	dst = append(dst, 3)
	dst = append(dst, buf[:]...)
	return append(dst, s...)
}

// NullAt reports whether any of the given columns is NULL at logical row i
// — the join-key drop test (a NULL key can never satisfy an equi-join).
func NullAt(b *Batch, i int, cols []int) bool {
	phys := b.Index(i)
	for _, c := range cols {
		if b.Cols[c].IsNull(phys) {
			return true
		}
	}
	return false
}
