package paged

import (
	"encoding/binary"
	"math/bits"
	"math/rand/v2"
)

// Dict maps byte keys to dense ids, handed out in insertion order: the index
// under every hashed store — the group table, the join table's partitions,
// DISTINCT and a DISTINCT aggregate's value sets, a stored table's key
// indexes. It is an open-addressing
// table of {hash, record} slots — linear probing, never more than three
// quarters full — over an arena of byte chunks holding one record per key:
// its id, its length and its bytes. A lookup goes from the slot straight to
// the record and compares its bytes with the caller's buffer, so no key is
// ever made a string, and a rehash re-places the slots by their stored
// hashes. Slots, entries and chunks hold no pointers: the collector scans
// none of them. A key's hash decides where its slot lies and nothing else —
// ids do not depend on it. The zero Dict is empty and ready to use.
type Dict struct {
	// A lookup reads only the slots and the chunks, which lie in the
	// struct's first cache line.
	slots   []dictSlot      // power-of-two long
	chunks  [][]byte        // the record arena: only the first chunk grows
	entries Array[dictSlot] // by id
	n       int
	bytes   int64
}

// dictSlot is a key's hash and its record's place + 1 (0: an empty slot). The
// entries keep each id's slot too, for the walks by id (Key, HashOf), so
// copying a key into another Dict hashes nothing.
type dictSlot struct{ hash, rec uint32 }

// A record's place is its chunk's index above chunkShift bits and its offset
// in the chunk below: a record starts inside the first chunkBytes of its
// chunk, and one longer than a chunk is the only record of its own. Its
// header is the id and the key's length, four bytes each.
const (
	minDictSlots = 16
	chunkShift   = 14
	chunkBytes   = 1 << chunkShift
	headerBytes  = 8
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
	rec := d.record(d.entries.At(id).rec - 1)
	n := binary.LittleEndian.Uint32(rec[4:])
	return rec[headerBytes : headerBytes+n : headerBytes+n]
}

// HashOf returns the hash id's key was appended under.
func (d *Dict) HashOf(id int) uint32 { return d.entries.At(id).hash }

// record returns the arena from the record at place on.
func (d *Dict) record(place uint32) []byte {
	return d.chunks[place>>chunkShift][place&(chunkBytes-1):]
}

// Lookup returns the id of key, whose hash is hash, or -1. Two keys under one
// hash are told apart by their bytes.
func (d *Dict) Lookup(hash uint32, key []byte) int {
	if len(d.slots) == 0 {
		return -1
	}
	mask := uint32(len(d.slots) - 1)
	for i := hash & mask; ; i = (i + 1) & mask {
		s := d.slots[i]
		if s.rec == 0 {
			return -1
		}
		if s.hash != hash {
			continue
		}
		rec := d.record(s.rec - 1)
		if n := len(key); binary.LittleEndian.Uint32(rec[4:]) == uint32(n) && sameBytes(rec[headerBytes:headerBytes+n], key) {
			return int(binary.LittleEndian.Uint32(rec))
		}
	}
}

// Append gives key — which Lookup did not find — the next id, under hash.
func (d *Dict) Append(hash uint32, key []byte) int {
	id := d.n
	d.n++
	if 4*d.n > 3*len(d.slots) {
		d.resize(max(2*len(d.slots), minDictSlots))
	}
	s := dictSlot{hash: hash, rec: d.store(id, key) + 1}
	d.place(s)
	*d.entries.Append() = s
	return id
}

// place stores s in the first free slot of its probe sequence.
func (d *Dict) place(s dictSlot) {
	mask := uint32(len(d.slots) - 1)
	i := s.hash & mask
	for d.slots[i].rec != 0 {
		i = (i + 1) & mask
	}
	d.slots[i] = s
}

// Reserve sizes the index for n keys in all, so appending keys up to that
// count re-places no slot: a store that knows its input's length pays for
// one table instead of a doubling series.
func (d *Dict) Reserve(n int) {
	size := minDictSlots
	for 4*n > 3*size {
		size *= 2
	}
	if size > len(d.slots) {
		d.resize(size)
	}
}

// resize makes size slots, re-placing every one by its stored hash.
func (d *Dict) resize(size int) {
	old := d.slots
	d.slots = make([]dictSlot, size)
	for _, s := range old {
		if s.rec != 0 {
			d.place(s)
		}
	}
}

// store copies id's record into the arena and returns its place. Only the
// first chunk grows, by append, until it holds chunkBytes; a later chunk is
// made whole, and a record longer than a chunk gets one of its own.
func (d *Dict) store(id int, key []byte) uint32 {
	size := headerBytes + len(key)
	last := len(d.chunks) - 1
	room := chunkBytes
	if last > 0 {
		room = cap(d.chunks[last])
	}
	if last < 0 || len(d.chunks[last])+size > room {
		var fresh []byte
		if last >= 0 {
			fresh = make([]byte, 0, max(chunkBytes, size))
		}
		d.chunks = append(d.chunks, fresh)
		last++
	}
	place := uint32(last)<<chunkShift | uint32(len(d.chunks[last]))
	c := binary.LittleEndian.AppendUint32(d.chunks[last], uint32(id))
	c = binary.LittleEndian.AppendUint32(c, uint32(len(key)))
	d.chunks[last] = append(c, key...)
	d.bytes += int64(len(key))
	return place
}

// sameBytes reports whether a and b, of one length, hold the same bytes. A
// key of 8 to 16 bytes — an INTEGER or a DOUBLE column, a short string — is
// two word compares, with no call.
func sameBytes(a, b []byte) bool {
	if n := len(a); n >= 8 && n <= 16 && len(b) == n {
		return binary.LittleEndian.Uint64(a) == binary.LittleEndian.Uint64(b) &&
			binary.LittleEndian.Uint64(a[n-8:]) == binary.LittleEndian.Uint64(b[n-8:])
	}
	return string(a) == string(b)
}
