package topology

import (
	"tencentrec/internal/keyhash"
	"tencentrec/internal/stream"
)

// interner builds the composite state keys the hot path uses —
// `prefix+item`, pair ids, `prefix+group+0x1f+item` — and is where a key
// is hashed, the one time on its way to the engine: it hands out the key
// with its keyhash, which the task cache, the combiner, the store client's
// route and the MDB engine take from there. Each distinct key string is
// allocated once: a later build of the key hashes the reusable byte
// scratch and finds the string in an open-addressing table of entry
// numbers by that hash. Replacing per-tuple concatenation with interning
// is what keeps the counting bolts' steady state allocation-free.
//
// Bounded the same way ResultStorage bounds its list cache: when the
// table fills, it is cleared and repopulates from live traffic. An
// interner belongs to one task and is not safe for concurrent use.
type interner struct {
	strs []string
	hs   []uint64
	// idx finds an entry by keyhash; it has at least twice the entries'
	// slots.
	idx keyhash.Index
	cap int
	buf []byte
}

// newInterner returns an interner bounded at capacity entries
// (<=0 selects 4096, matching the default fine-grained cache size).
func newInterner(capacity int) *interner {
	if capacity <= 0 {
		capacity = 4096
	}
	return &interner{cap: capacity}
}

// intern canonicalizes the current scratch contents and returns them with
// their keyhash.
func (in *interner) intern() (string, uint64) {
	h := keyhash.Bytes(in.buf)
	if in.idx.Len() > 0 {
		for i := in.idx.Home(h); in.idx.At(i) != 0; i = in.idx.Next(i) {
			if e := in.idx.At(i) - 1; in.hs[e] == h && in.strs[e] == string(in.buf) {
				return in.strs[e], h
			}
		}
	}
	if len(in.strs) >= in.cap {
		clear(in.strs) // drop the strings; capacity stays
		in.strs, in.hs = in.strs[:0], in.hs[:0]
		in.idx.Clear()
	}
	if 2*(len(in.strs)+1) > in.idx.Len() {
		in.idx.Resize(2 * in.idx.Len())
		for e, eh := range in.hs {
			in.idx.Add(eh, uint32(e))
		}
	}
	s := string(in.buf)
	in.idx.Add(h, uint32(len(in.strs)))
	in.strs, in.hs = append(in.strs, s), append(in.hs, h)
	return s, h
}

// key2 interns a+b — the `prefix+key` shape of every state key.
func (in *interner) key2(a, b string) (string, uint64) {
	in.buf = append(append(in.buf[:0], a...), b...)
	return in.intern()
}

// key3 interns prefix+a+0x1f+b — the group|item and situation|item
// counter shapes.
func (in *interner) key3(prefix, a, b string) (string, uint64) {
	in.buf = append(append(append(append(in.buf[:0], prefix...), a...), 0x1f), b...)
	return in.intern()
}

// pairBytes interns the canonical encoding of an item pair as a state
// key component: the lexicographically ordered pair joined by 0x1f. The
// second component may still alias an encoded buffer (e.g. a history
// iterator's item slice): no intermediate string is materialized.
func (in *interner) pairBytes(a string, b []byte) string {
	if a > string(b) {
		in.buf = append(append(append(in.buf[:0], b...), 0x1f), a...)
	} else {
		in.buf = append(append(append(in.buf[:0], a...), 0x1f), b...)
	}
	s, _ := in.intern()
	return s
}

// valArena chunk-allocates the backing arrays of emitted stream.Values,
// so a fan-out of many small emissions costs one allocation per chunk
// instead of one per tuple. Chunks are never reused — each emitted
// slice owns its full-capacity segment — so the stream layer may hold a
// tuple's values for as long as it likes (tuple release drops the
// reference; the pool recycles only the Tuple struct).
type valArena struct{ buf []any }

const valArenaChunk = 240

func (a *valArena) take(n int) stream.Values {
	if len(a.buf)+n > cap(a.buf) {
		a.buf = make([]any, 0, valArenaChunk)
	}
	s := len(a.buf)
	a.buf = a.buf[:s+n]
	return stream.Values(a.buf[s : s+n : s+n])
}

func (a *valArena) v2(x, y any) stream.Values {
	v := a.take(2)
	v[0], v[1] = x, y
	return v
}

func (a *valArena) v3(x, y, z any) stream.Values {
	v := a.take(3)
	v[0], v[1], v[2] = x, y, z
	return v
}

func (a *valArena) v4(x, y, z, w any) stream.Values {
	v := a.take(4)
	v[0], v[1], v[2], v[3] = x, y, z, w
	return v
}
