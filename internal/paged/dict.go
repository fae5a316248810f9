package paged

import (
	"encoding/binary"
	"math/bits"
	"math/rand/v2"
)

// Dict maps byte keys to dense ids, handed out in insertion order: the index
// of the group table. It is an open-addressing table of {hash, id} slots —
// linear probing, never more than three quarters full — over the keys' bytes,
// which lie in an arena of byte chunks; a lookup compares the arena's bytes
// with the caller's buffer, so no key is ever made a string, and a rehash
// re-places the slots by their stored hashes. Slots, entries and chunks hold
// no pointers: the collector scans none of them. A key's hash decides where
// its slot lies and nothing else — ids do not depend on it. The zero Dict is
// empty and ready to use.
type Dict struct {
	slots   []dictSlot // power-of-two long
	entries Array[dictEntry]
	chunks  [][]byte // the key arena: only the first chunk grows
	n       int
	bytes   int64
}

// dictSlot is one index entry: a key's hash and its id + 1 (0: empty).
type dictSlot struct{ hash, ref uint32 }

// dictEntry locates id's key bytes in the arena and keeps their hash, so
// copying the key into another Dict hashes nothing.
type dictEntry struct{ hash, chunk, off, len uint32 }

const (
	minDictSlots = 16
	chunkBytes   = 16 << 10 // Size keys of one INTEGER column and then some
)

// hashSeed seeds Hash for the life of the process, so which keys collide
// cannot be chosen from outside it.
var hashSeed = rand.Uint64()

// Hash hashes a key eight bytes at a time, each word folded in by a
// 64×64→128-bit multiply; the last word is the key's last eight bytes,
// overlapping the one before. Group keys are a few words long (an INTEGER
// column is nine bytes), which is where this beats a call into the runtime's
// hash.
func Hash(key []byte) uint32 {
	n := len(key)
	h := hashSeed ^ uint64(n)
	if n < 8 {
		var word uint64
		for i, b := range key {
			word |= uint64(b) << (8 * i)
		}
		h = mix(h ^ word)
	} else {
		for i := 0; i+8 < n; i += 8 {
			h = mix(h ^ binary.LittleEndian.Uint64(key[i:]))
		}
		h = mix(h ^ binary.LittleEndian.Uint64(key[n-8:]))
	}
	return uint32(h>>32) ^ uint32(h)
}

func mix(x uint64) uint64 {
	hi, lo := bits.Mul64(x, 0x9e3779b97f4a7c15)
	return hi ^ lo
}

// Len is the number of keys: ids run from 0 to Len()-1.
func (d *Dict) Len() int { return d.n }

// KeyBytes is the total length of the keys.
func (d *Dict) KeyBytes() int64 { return d.bytes }

// Key returns id's key bytes, which the caller must not change.
func (d *Dict) Key(id int) []byte {
	e := d.entries.At(id)
	return d.chunks[e.chunk][e.off : e.off+e.len]
}

// HashOf returns the hash id's key was appended under.
func (d *Dict) HashOf(id int) uint32 { return d.entries.At(id).hash }

// Lookup returns the id of key, whose hash is hash, or -1. Two keys under one
// hash are told apart by their bytes.
func (d *Dict) Lookup(hash uint32, key []byte) int {
	if d.n == 0 {
		return -1
	}
	mask := uint32(len(d.slots) - 1)
	for i := hash & mask; ; i = (i + 1) & mask {
		s := d.slots[i]
		if s.ref == 0 {
			return -1
		}
		if s.hash == hash && string(d.Key(int(s.ref-1))) == string(key) {
			return int(s.ref - 1)
		}
	}
}

// Append gives key — which Lookup did not find — the next id, under hash.
func (d *Dict) Append(hash uint32, key []byte) int {
	id := d.n
	d.n++
	if 4*d.n > 3*len(d.slots) {
		d.rehash()
	}
	d.place(dictSlot{hash: hash, ref: uint32(id + 1)})
	chunk, off := d.store(key)
	*d.entries.Append() = dictEntry{hash: hash, chunk: chunk, off: off, len: uint32(len(key))}
	return id
}

// place stores s in the first free slot of its probe sequence.
func (d *Dict) place(s dictSlot) {
	mask := uint32(len(d.slots) - 1)
	i := s.hash & mask
	for d.slots[i].ref != 0 {
		i = (i + 1) & mask
	}
	d.slots[i] = s
}

// rehash doubles the slots, re-placing every one by its stored hash.
func (d *Dict) rehash() {
	old := d.slots
	d.slots = make([]dictSlot, max(2*len(old), minDictSlots))
	for _, s := range old {
		if s.ref != 0 {
			d.place(s)
		}
	}
}

// store copies key into the arena and returns where it lies. Only the first
// chunk grows, by append, until it holds chunkBytes; a later chunk is made
// whole, and a key longer than a chunk gets one of its own.
func (d *Dict) store(key []byte) (chunk, off uint32) {
	last := len(d.chunks) - 1
	room := chunkBytes
	if last > 0 {
		room = cap(d.chunks[last])
	}
	if last < 0 || len(d.chunks[last])+len(key) > room {
		var fresh []byte
		if last >= 0 {
			fresh = make([]byte, 0, max(chunkBytes, len(key)))
		}
		d.chunks = append(d.chunks, fresh)
		last++
	}
	off = uint32(len(d.chunks[last]))
	d.chunks[last] = append(d.chunks[last], key...)
	d.bytes += int64(len(key))
	return uint32(last), off
}
