// delta.go — the write side of the codec: edits that touch one entry
// patch the encoded frame instead of decode-all → mutate → re-encode-all.
//
// The edits are total over well-formed frames: at any entry count (the payload shifts when the count's
// uvarint changes width), any k and any id length. ok=false means exactly
// one thing — the frame is malformed, i.e. DecodeHistory/DecodeList
// return an error for the same bytes — and leaves the buffer unchanged.
//
// Equivalence contract (pinned by delta_test.go): an edited history
// decodes to the value a map mutation would have produced, and an edited
// list — whose encoder is order-preserving — is byte-identical to
// decode → reference update → encode.
package statecodec

import (
	"encoding/binary"
	"math"
)

// stackEntries is the list size up to which MergeListEntry scans into
// stack arrays; longer lists take their offset and score scratch from the
// heap.
const stackEntries = 127

// ratingBytes is the fixed-width tail of a history entry: 8-byte
// rating + 8-byte timestamp.
const ratingBytes = 16

// PatchFloat overwrites an encoded float scalar in place. It returns
// false (buffer untouched) unless b is exactly the 8-byte raw layout
// EncodeFloat produces.
func PatchFloat(b []byte, v float64) bool {
	if len(b) != 8 {
		return false
	}
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
	return true
}

// uvarintLen returns the encoded width of n.
func uvarintLen(n uint64) int {
	w := 1
	for n >= 0x80 {
		n >>= 7
		w++
	}
	return w
}

// frameBody validates a binary header of the given type and returns the
// entry count and the payload offset (just past the count). The count is
// bounded by the payload like readCount's: every entry takes a byte.
func frameBody(b []byte, typ byte) (n int, base int, ok bool) {
	if len(b) < 4 || b[0] != tagBinary || b[1] != typ || b[2] != versionOf(typ) {
		return 0, 0, false
	}
	c, sz := readUvarint(b[3:])
	if sz == 0 || c > uint64(len(b)-3-sz) {
		return 0, 0, false
	}
	return int(c), 3 + sz, true
}

// setCount rewrites the entry count of a frame whose payload starts at
// base. Small enough to inline for the usual case, a one-byte count that
// stays one byte.
func setCount(b []byte, base, n int) []byte {
	if n < 0x80 && base == 4 {
		b[3] = byte(n)
		return b
	}
	return resizeCount(b, base, n)
}

// resizeCount is setCount for a count whose uvarint width may change
// (127↔128, 16383↔16384): the payload shifts by the difference.
func resizeCount(b []byte, base, n int) []byte {
	if d := 3 + uvarintLen(uint64(n)) - base; d > 0 {
		b = append(b, make([]byte, d)...)
		copy(b[base+d:], b[base:])
	} else if d < 0 {
		copy(b[base+d:], b[base:])
		b = b[:len(b)+d]
	}
	binary.PutUvarint(b[3:], uint64(n))
	return b
}

// HistoryIter walks the entries of an encoded binary history without
// decoding it to a map. Zero-allocation: returned item slices alias the
// underlying buffer and are only valid until the buffer is modified.
type HistoryIter struct {
	rest    []byte
	n, i    int
	off     int  // offset of the next entry within the original buffer
	corrupt bool // payload ended early or had trailing garbage
}

// IterHistory starts an iteration over an encoded binary history.
// ok=false means the header is malformed.
func IterHistory(b []byte) (HistoryIter, bool) {
	n, base, ok := frameBody(b, typeHistory)
	if !ok {
		return HistoryIter{}, false
	}
	return HistoryIter{rest: b[base:], n: n, off: base}, true
}

// Next returns the next entry. ok=false means the iteration is done —
// check Corrupt to distinguish exhaustion from a malformed payload.
func (it *HistoryIter) Next() (item []byte, r Rating, ok bool) {
	if it.i >= it.n {
		// A well-formed frame consumes the payload exactly.
		if len(it.rest) != 0 {
			it.corrupt = true
		}
		return nil, Rating{}, false
	}
	l, sz := readUvarint(it.rest)
	if sz == 0 || l > uint64(len(it.rest)-sz) || uint64(len(it.rest)-sz)-l < ratingBytes {
		it.corrupt = true
		return nil, Rating{}, false
	}
	item = it.rest[sz : sz+int(l)]
	fixed := it.rest[sz+int(l):]
	r.Rating = math.Float64frombits(binary.LittleEndian.Uint64(fixed))
	r.TS = int64(binary.LittleEndian.Uint64(fixed[8:]))
	step := sz + int(l) + ratingBytes
	it.rest = it.rest[step:]
	it.off += step
	it.i++
	return item, r, true
}

// Corrupt reports whether iteration stopped on a malformed payload
// rather than clean exhaustion.
func (it *HistoryIter) Corrupt() bool { return it.corrupt }

// HistoryLen returns the entry count of an encoded binary history
// without decoding it. ok=false means the header is malformed.
func HistoryLen(b []byte) (int, bool) {
	n, _, ok := frameBody(b, typeHistory)
	return n, ok
}

// findHistoryEntry walks the whole frame looking for item and returns the
// offset of its fixed-width rating block within b. ok=false means the
// frame is malformed.
func findHistoryEntry(b []byte, item string) (fixedOff int, r Rating, found bool, ok bool) {
	it, ok := IterHistory(b)
	if !ok {
		return 0, Rating{}, false, false
	}
	for {
		name, rr, more := it.Next()
		if !more {
			break
		}
		if !found && string(name) == item {
			found, r = true, rr
			fixedOff = it.off - ratingBytes
		}
	}
	return fixedOff, r, found, !it.Corrupt()
}

// FindHistoryEntry looks up one item in an encoded binary history
// without decoding it. ok=false means the frame is
// malformed.
func FindHistoryEntry(b []byte, item string) (r Rating, found bool, ok bool) {
	_, r, found, ok = findHistoryEntry(b, item)
	return r, found, ok
}

// putRating writes the fixed-width rating block at off.
func putRating(b []byte, off int, r Rating) {
	binary.LittleEndian.PutUint64(b[off:], math.Float64bits(r.Rating))
	binary.LittleEndian.PutUint64(b[off+8:], uint64(r.TS))
}

// appendHistoryEntry appends an entry to a frame findHistoryEntry has
// walked and found well-formed.
func appendHistoryEntry(b []byte, item string, r Rating) []byte {
	n, base, _ := frameBody(b, typeHistory)
	b = setCount(b, base, n+1)
	b = appendString(b, item)
	off := len(b)
	b = append(b, make([]byte, ratingBytes)...)
	putRating(b, off, r)
	return b
}

// UpsertHistoryEntry sets item's rating in an encoded binary history:
// an existing entry is patched in place (same bytes, new rating block),
// a new one is appended. ok=false — buffer unchanged — when the frame is
// malformed.
func UpsertHistoryEntry(b []byte, item string, r Rating) ([]byte, bool) {
	fixedOff, _, found, ok := findHistoryEntry(b, item)
	if !ok {
		return b, false
	}
	if found {
		putRating(b, fixedOff, r)
		return b, true
	}
	return appendHistoryEntry(b, item, r), true
}

// EvictOldestHistoryEntry removes the entry with the smallest timestamp
// whose item differs from keep (ties keep the first in encoded order),
// splicing the bytes out and decrementing the count; a history with no
// such entry is returned as it is. ok=false — buffer unchanged — when the
// frame is malformed.
func EvictOldestHistoryEntry(b []byte, keep string) ([]byte, bool) {
	it, ok := IterHistory(b)
	if !ok {
		return b, false
	}
	base := it.off
	oldStart, oldEnd := -1, -1
	var oldTS int64
	for {
		start := it.off
		name, r, more := it.Next()
		if !more {
			break
		}
		if string(name) == keep {
			continue
		}
		if oldStart < 0 || r.TS < oldTS {
			oldStart, oldEnd, oldTS = start, it.off, r.TS
		}
	}
	if it.Corrupt() {
		return b, false
	}
	if oldStart < 0 {
		return b, true
	}
	copy(b[oldStart:], b[oldEnd:])
	b = b[:len(b)-(oldEnd-oldStart)]
	return setCount(b, base, it.n-1), true
}

// MergeListEntry applies one (item, score) update to an encoded scored
// list: any existing entry for item is removed, then — when score > 0 —
// the entry is inserted at its rank (descending score, ties after
// existing entries) and the list truncated to k (a negative k counts as
// 0). This is the byte-level equivalent of DecodeList → reference update
// → EncodeList and produces identical bytes (the list encoder is
// order-preserving). threshold is the score of the k-th entry when the
// list is full, else 0. ok=false — buffer unchanged — when the frame is
// malformed.
func MergeListEntry(b []byte, item string, score float64, k int) (out []byte, threshold float64, ok bool) {
	n, base, ok := frameBody(b, typeList)
	if !ok {
		return b, 0, false
	}
	k = max(k, 0)
	// Scan: absolute entry offsets (offs[i] .. offs[i+1]; int32, a stored
	// value being far below 2 GiB) and scores, with room for the one entry
	// an insert adds.
	var offsArr [stackEntries + 2]int32
	var scoresArr [stackEntries + 1]float64
	offs, scores := offsArr[:], scoresArr[:]
	if n > stackEntries {
		offs, scores = make([]int32, n+2), make([]float64, n+1)
	}
	rest := b[base:]
	off := base
	foundIdx := -1
	for i := 0; i < n; i++ {
		offs[i] = int32(off)
		l, sz := readUvarint(rest)
		if sz == 0 || l > uint64(len(rest)-sz) || uint64(len(rest)-sz)-l < 8 {
			return b, 0, false
		}
		step := sz + int(l) + 8
		scores[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[step-8:]))
		if foundIdx < 0 && string(rest[sz:sz+int(l)]) == item {
			foundIdx = i
		}
		rest = rest[step:]
		off += step
	}
	if len(rest) != 0 {
		return b, 0, false
	}
	offs[n] = int32(off)

	// In-place fast case: the item is already present, keeps a positive
	// score, the stored list is within bounds, and its rank is stable —
	// overwrite the 8 score bytes and done. The rank test is strict
	// against the successor: on a score tie the reference re-insert
	// moves the entry after its equals, which only the general path
	// reproduces.
	if foundIdx >= 0 && score > 0 && n <= k &&
		(foundIdx == 0 || scores[foundIdx-1] >= score) &&
		(foundIdx == n-1 || score > scores[foundIdx+1]) {
		binary.LittleEndian.PutUint64(b[offs[foundIdx+1]-8:], math.Float64bits(score))
		if n >= k {
			threshold = math.Float64frombits(binary.LittleEndian.Uint64(b[len(b)-8:]))
		}
		return b, threshold, true
	}

	// General path: splice out, splice in, truncate — memmoves on the
	// frame, no allocation beyond append growth.
	if foundIdx >= 0 {
		s, e := offs[foundIdx], offs[foundIdx+1]
		copy(b[s:], b[e:])
		b = b[:len(b)-int(e-s)]
		for i := foundIdx; i < n; i++ {
			offs[i] = offs[i+1] - (e - s)
			scores[i] = scores[i+1]
		}
		n--
	}
	if score > 0 {
		pos := n
		for i := 0; i < n; i++ {
			if score > scores[i] {
				pos = i
				break
			}
		}
		// An insert at rank >= k is dropped by the truncate below; skip
		// the splice (net effect: removal + truncate alone).
		if pos < k {
			// Open a gap at the entry's rank and encode it there.
			at := int(offs[pos])
			entLen := uvarintLen(uint64(len(item))) + len(item) + 8
			b = append(b, make([]byte, entLen)...)
			copy(b[at+entLen:], b[at:])
			w := binary.PutUvarint(b[at:], uint64(len(item)))
			copy(b[at+w:], item)
			binary.LittleEndian.PutUint64(b[at+entLen-8:], math.Float64bits(score))
			for i := n; i >= pos; i-- {
				offs[i+1] = offs[i] + int32(entLen)
			}
			n++
		}
		if n > k {
			b = b[:offs[k]]
			n = k
		}
	}
	b = setCount(b, base, n)
	if n >= k && k > 0 {
		threshold = math.Float64frombits(binary.LittleEndian.Uint64(b[len(b)-8:]))
	}
	return b, threshold, true
}
