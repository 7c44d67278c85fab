// Package keyhash is the one hash of a state key. A task's interner
// computes it as it builds the key's bytes, and the task cache, the
// combiner, the store client's route and the MDB engine's table all take
// it from there, so a key on its way from a bolt to the engine is hashed
// once.
//
// The function is fixed, not seeded per process: the route places a key
// on a data instance by it, and a durable engine's directory outlives the
// process that wrote it. The low half of a hash is FNV-1a-32 of the key,
// the route's placement since the store's first version; the high half
// is that value through a 32-bit finalizer, which the in-memory tables
// index by.
package keyhash

// String returns the hash of key.
func String(key string) uint64 {
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return mix(h)
}

// Bytes returns the hash of the key whose bytes are b; it equals
// String(string(b)).
func Bytes(b []byte) uint64 {
	h := uint32(offset32)
	for _, c := range b {
		h ^= uint32(c)
		h *= prime32
	}
	return mix(h)
}

// Strings returns the hashes of keys.
func Strings(keys []string) []uint64 {
	hs := make([]uint64, len(keys))
	for i, k := range keys {
		hs[i] = String(k)
	}
	return hs
}

// Route returns the half of h the store's route places a key by: FNV-1a-32
// of the key.
func Route(h uint64) uint32 { return uint32(h) }

const offset32, prime32 = 2166136261, 16777619

// mix puts f's finalized copy (MurmurHash3's fmix32, a bijection) above f.
func mix(f uint32) uint64 {
	m := f
	m ^= m >> 16
	m *= 0x85ebca6b
	m ^= m >> 13
	m *= 0xc2b2ae35
	m ^= m >> 16
	return uint64(m)<<32 | uint64(f)
}
