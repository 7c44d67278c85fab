package topology

import (
	"strconv"

	"tencentrec/internal/stream"
)

// interner canonicalizes the composite state keys the hot path builds —
// `prefix+item`, pair ids, combiner keys — so each distinct key string
// is allocated once and every later occurrence is a map lookup on a
// reusable byte scratch (the compiler elides the []byte→string copy in
// `m[string(buf)]`). Replacing per-tuple concatenation with interning
// is what keeps the counting bolts' steady state allocation-free.
//
// Bounded the same way ResultStorage bounds its list cache: when the
// table fills, it is cleared and repopulates from live traffic. An
// interner belongs to one task and is not safe for concurrent use.
type interner struct {
	m     map[string]string
	boxed map[string]any
	cap   int
	buf   []byte
}

// newInterner returns an interner bounded at capacity entries
// (<=0 selects 4096, matching the default fine-grained cache size).
func newInterner(capacity int) *interner {
	if capacity <= 0 {
		capacity = 4096
	}
	return &interner{m: make(map[string]string, 64), boxed: make(map[string]any, 64), cap: capacity}
}

// box returns a cached any-boxing of s. Boxing a string into an
// interface allocates a header copy every time; item ids and pair keys
// recur constantly in emissions, so the boxing is cached alongside the
// interned string (bounded the same way).
func (in *interner) box(s string) any {
	if v, ok := in.boxed[s]; ok {
		return v
	}
	if len(in.boxed) >= in.cap {
		clear(in.boxed)
	}
	v := any(s)
	in.boxed[s] = v
	return v
}

// intern canonicalizes the current scratch contents.
func (in *interner) intern() string {
	if s, ok := in.m[string(in.buf)]; ok {
		return s
	}
	s := string(in.buf)
	if len(in.m) >= in.cap {
		clear(in.m)
	}
	in.m[s] = s
	return s
}

// key2 interns a+b — the `prefix+key` shape of every state key.
func (in *interner) key2(a, b string) string {
	in.buf = append(append(in.buf[:0], a...), b...)
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
	return in.intern()
}

// joined interns a+0x1f+b — the group|item and situation|item shapes.
func (in *interner) joined(a, b string) string {
	in.buf = append(append(append(in.buf[:0], a...), 0x1f), b...)
	return in.intern()
}

// comb interns key+"@"+session, a counter key packed with its session for
// combiner buffering: deltas from different sessions must not merge.
func (in *interner) comb(key string, session int64) string {
	in.buf = append(append(in.buf[:0], key...), '@')
	in.buf = strconv.AppendInt(in.buf, session, 10)
	return in.intern()
}

// combJoined interns comb(a+0x1f+b, session) without building the inner
// concatenation separately.
func (in *interner) combJoined(a, b string, session int64) string {
	in.buf = append(append(append(append(in.buf[:0], a...), 0x1f), b...), '@')
	in.buf = strconv.AppendInt(in.buf, session, 10)
	return in.intern()
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
