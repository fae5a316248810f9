package paged

import (
	"bytes"
	"fmt"
	"testing"
)

// TestArrayKeepsElementsInPlace: an element is found where it was appended
// across the first page's doublings and several whole pages, and once the
// first page is full nothing appended later moves it.
func TestArrayKeepsElementsInPlace(t *testing.T) {
	var a Array[int]
	const n = 3*Size + 5
	var settled *int
	for i := 0; i < n; i++ {
		*a.Append() = i
		if i == Size {
			settled = a.At(7)
		}
	}
	for i := 0; i < n; i++ {
		if got := *a.At(i); got != i {
			t.Fatalf("element %d is %d", i, got)
		}
	}
	if len(a.pages) != 4 || cap(a.pages[0]) != Size || a.At(7) != settled {
		t.Fatalf("%d pages, the first holding %d: want 4 pages of %d with element 7 where it was", len(a.pages), cap(a.pages[0]), Size)
	}
}

// TestDictCollisions: keys appended under one hash share a probe sequence and
// a tag, and are told apart by their bytes — a key that is a prefix of
// another, the empty key, and keys of 8 to 16 bytes that differ in one byte
// only (compared word by word), included — before and after the slots double.
func TestDictCollisions(t *testing.T) {
	var d Dict
	const hash = 0xfeed0007
	keys := []string{"ab", "abc", "a", "b", "abd", "",
		"01234567", "01234568", "X1234567", "012345678", "0123X5678",
		"0123456789abcdef", "0123456X89abcdef", "0123456789abcdeX"}
	for id, key := range keys {
		if got := d.Lookup(hash, []byte(key)); got != -1 {
			t.Fatalf("key %q found as %d before it was appended", key, got)
		}
		if got := d.Append(hash, []byte(key)); got != id {
			t.Fatalf("key %q got id %d, want %d", key, got, id)
		}
	}
	for i := 0; i < 40; i++ { // others, in the colliding keys' probe sequence too
		d.Append(hash+uint32(i%3), []byte{'x', byte(i)})
	}
	if len(d.slots) < 4*minDictSlots {
		t.Fatalf("%d slots for %d keys: the index did not grow", len(d.slots), d.Len())
	}
	for id, key := range keys {
		if got := d.Lookup(hash, []byte(key)); got != id || string(d.Key(id)) != key || d.HashOf(id) != hash {
			t.Fatalf("key %q is id %d with key %q, want %d", key, got, d.Key(got), id)
		}
		if got := d.Lookup(hash+1, []byte(key)); got != -1 {
			t.Fatalf("key %q found under another hash as %d", key, got)
		}
	}
	for _, key := range []string{"abcd", "0123456789abcdeY", "01234569"} {
		if got := d.Lookup(hash, []byte(key)); got != -1 {
			t.Fatalf("key %q, never appended, found as %d", key, got)
		}
	}
}

// TestDictReserve: a Dict reserved for n keys is the smallest table that holds
// them, takes all n without re-placing a slot and finds every one; reserving
// fewer keys than it is sized for changes nothing.
func TestDictReserve(t *testing.T) {
	for _, n := range []int{1, 12, 13, 1000, 3*Size + 100} {
		var d Dict
		d.Reserve(n)
		size, first := len(d.slots), &d.slots[0]
		if 4*n > 3*size || (size > minDictSlots && 4*n <= 3*size/2) {
			t.Fatalf("reserved %d slots for %d keys", size, n)
		}
		for i := 0; i < n; i++ {
			k := []byte(fmt.Sprintf("key-%d", i))
			d.Append(Hash(k), k)
		}
		d.Reserve(n / 2)
		if len(d.slots) != size || &d.slots[0] != first {
			t.Fatalf("%d keys in a Dict reserved for them: %d slots, want the reserved %d, not re-placed", n, len(d.slots), size)
		}
		for i := 0; i < n; i++ {
			k := []byte(fmt.Sprintf("key-%d", i))
			if got := d.Lookup(Hash(k), k); got != i {
				t.Fatalf("key %d of %d is id %d", i, n, got)
			}
		}
	}
}

// TestDictGrowth: over several pages of entries, many doublings of the slots
// and key chunks of the arena — a key longer than a chunk now and then — every
// earlier key is still found under its id after each doubling, with its own
// bytes.
func TestDictGrowth(t *testing.T) {
	const n = 3*Size + 100
	key := func(i int) []byte {
		if i%500 == 7 {
			return bytes.Repeat([]byte{'k'}, chunkBytes+i)
		}
		return []byte(fmt.Sprintf("key-%d", i))
	}
	var d Dict
	var total int64
	check := func() {
		t.Helper()
		for i := 0; i < d.Len(); i++ {
			k := key(i)
			if got := d.Lookup(Hash(k), k); got != i || !bytes.Equal(d.Key(i), k) || d.HashOf(i) != Hash(k) {
				t.Fatalf("with %d keys, key %d is id %d", d.Len(), i, got)
			}
		}
	}
	rehashes, slots := 0, 0
	for i := 0; i < n; i++ {
		k := key(i)
		if got := d.Lookup(Hash(k), k); got != -1 {
			t.Fatalf("key %d found as %d before it was appended", i, got)
		}
		d.Append(Hash(k), k)
		total += int64(len(k))
		if len(d.slots) != slots {
			rehashes, slots = rehashes+1, len(d.slots)
			check()
		}
	}
	check()
	if d.Len() != n || d.KeyBytes() != total || rehashes < 5 || len(d.chunks) < 3 || 4*n > 3*len(d.slots) {
		t.Fatalf("%d keys of %d bytes, %d rehashes, %d chunks, %d slots", d.Len(), d.KeyBytes(), rehashes, len(d.chunks), len(d.slots))
	}
}
