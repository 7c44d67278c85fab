package keyhash

import "math/bits"

// Index finds entries by keyhash: an open-addressing table whose slot
// holds an entry's number plus one, 0 when empty, probed linearly from the
// top bits of the hash's mixed half. It holds no pointer, so the collector
// never scans it. The caller keeps the entries and their hashes, walks a
// probe with Home, Next and At, and compares keys itself; it keeps the
// table under half full by growing it with Resize and Add.
type Index struct{ slots []uint32 }

// Len returns the number of slots.
func (x *Index) Len() int { return len(x.slots) }

// Home returns the slot a probe for a key of hash h starts at. The index
// must have slots.
func (x *Index) Home(h uint64) uint64 {
	return h >> (64 - bits.TrailingZeros(uint(len(x.slots))))
}

// Next returns the slot after i, wrapping at the end.
func (x *Index) Next(i uint64) uint64 { return (i + 1) & uint64(len(x.slots)-1) }

// At returns what slot i holds: an entry's number plus one, or 0.
func (x *Index) At(i uint64) uint32 { return x.slots[i] }

// Add enters entry e, whose key has hash h, in the first empty slot of its
// probe.
func (x *Index) Add(h uint64, e uint32) {
	i := x.Home(h)
	for x.slots[i] != 0 {
		i = x.Next(i)
	}
	x.slots[i] = e + 1
}

// Remove removes entry e, whose key has hash h; hashOf returns the hash of
// an entry's key. Each entry of the probe run behind the freed slot moves
// back into it when the slot lies between the entry's home and where it
// sits, so no tombstone is left.
func (x *Index) Remove(h uint64, e uint32, hashOf func(e uint32) uint64) {
	mask := uint64(len(x.slots) - 1)
	hole := x.Home(h)
	for x.slots[hole] != e+1 {
		hole = x.Next(hole)
	}
	for j := x.Next(hole); x.slots[j] != 0; j = x.Next(j) {
		if (j-x.Home(hashOf(x.slots[j]-1)))&mask >= (j-hole)&mask {
			x.slots[hole] = x.slots[j]
			hole = j
		}
	}
	x.slots[hole] = 0
}

// Clear empties every slot.
func (x *Index) Clear() { clear(x.slots) }

// Resize replaces the table with an empty one of the larger of n and 16
// slots, n a power of two; the caller adds its entries again.
func (x *Index) Resize(n int) { x.slots = make([]uint32, max(n, 16)) }
