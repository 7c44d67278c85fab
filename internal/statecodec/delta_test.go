package statecodec

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"tencentrec/internal/core"
)

// refMergeList is the reference semantics MergeListEntry must match
// byte-for-byte: the update applied to a decoded list (the same function
// as topology's updateStoredList reference).
func refMergeList(l List, item string, score float64, k int) (List, float64) {
	for i, sc := range l {
		if sc.Item == item {
			l = append(l[:i], l[i+1:]...)
			break
		}
	}
	if score > 0 {
		pos := len(l)
		for i, sc := range l {
			if score > sc.Score {
				pos = i
				break
			}
		}
		l = append(l, core.ScoredItem{})
		copy(l[pos+1:], l[pos:])
		l[pos] = core.ScoredItem{Item: item, Score: score}
		if len(l) > k {
			l = l[:k]
		}
	}
	threshold := 0.0
	if len(l) >= k && k > 0 {
		threshold = l[len(l)-1].Score
	}
	return l, threshold
}

// refHistory is the map reference for the history edits, with the
// encoded order beside it: eviction breaks timestamp ties by it.
type refHistory struct {
	h     History
	order []string
}

// refHistoryOf reads the reference out of a frame, keeping its order.
func refHistoryOf(t *testing.T, buf []byte) *refHistory {
	t.Helper()
	ref := &refHistory{h: History{}}
	it, ok := IterHistory(buf)
	if !ok {
		t.Fatal("reference frame is malformed")
	}
	for {
		item, r, more := it.Next()
		if !more {
			break
		}
		ref.h[string(item)] = r
		ref.order = append(ref.order, string(item))
	}
	return ref
}

func (ref *refHistory) upsert(item string, r Rating) {
	if _, had := ref.h[item]; !had {
		ref.order = append(ref.order, item)
	}
	ref.h[item] = r
}

// evict drops the entry with the smallest TS other than keep, the first
// in encoded order among equals, and names it.
func (ref *refHistory) evict(keep string) string {
	at := -1
	for i, item := range ref.order {
		if item != keep && (at < 0 || ref.h[item].TS < ref.h[ref.order[at]].TS) {
			at = i
		}
	}
	if at < 0 {
		return ""
	}
	gone := ref.order[at]
	delete(ref.h, gone)
	ref.order = append(ref.order[:at], ref.order[at+1:]...)
	return gone
}

// same fails unless buf decodes to exactly the reference.
func (ref *refHistory) same(t *testing.T, buf []byte, when string) {
	t.Helper()
	got, err := DecodeHistory(buf)
	if err != nil {
		t.Fatalf("%s: decode: %v", when, err)
	}
	if n, ok := HistoryLen(buf); !ok || n != len(ref.h) {
		t.Fatalf("%s: HistoryLen = (%d,%v), want (%d,true)", when, n, ok, len(ref.h))
	}
	if len(got) != len(ref.h) {
		t.Fatalf("%s: %d entries, reference %d", when, len(got), len(ref.h))
	}
	for k, v := range ref.h {
		if got[k] != v {
			t.Fatalf("%s: %q = %v, reference %v", when, k, got[k], v)
		}
	}
}

// listIDs returns n distinct ids; two of them are far longer than the
// rest, with two- and three-byte length prefixes.
func listIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = benchItemID(i)
	}
	ids[1] = strings.Repeat("x", 241)
	ids[n/2] = strings.Repeat("y", 1000)
	return ids
}

// TestMergeListEntryEquivalence: at every k, through fills, ties,
// removals and a full drain (so the count crosses 127↔128 both ways for
// k >= 128), every merge is byte-identical to decode → reference update
// → encode, with the same threshold.
func TestMergeListEntryEquivalence(t *testing.T) {
	for _, k := range []int{0, 1, 2, 5, 127, 128, 300} {
		rng := rand.New(rand.NewSource(int64(9 + k)))
		ids := listIDs(max(2*k, 12))
		buf := EncodeList(nil)
		var ref List
		step := func(op int, item string, score float64) {
			t.Helper()
			out, thr, ok := MergeListEntry(buf, item, score, k)
			if !ok {
				t.Fatalf("k=%d op %d: merge declined a well-formed frame of %d entries", k, op, len(ref))
			}
			var refThr float64
			ref, refThr = refMergeList(ref, item, score, k)
			buf = out
			if want := EncodeList(ref); !bytes.Equal(buf, want) {
				t.Fatalf("k=%d op %d (%d-byte id, score=%v): merge bytes diverge at %d entries\n got %.64x\nwant %.64x",
					k, op, len(item), score, len(ref), buf, want)
			}
			if thr != refThr {
				t.Fatalf("k=%d op %d: threshold = %v, want %v", k, op, thr, refThr)
			}
		}
		for op := 0; op < 6*len(ids); op++ {
			score := math.Round(rng.Float64()*1000) / 1000
			switch rng.Intn(6) {
			case 0: // removal (non-positive score)
				score = 0
			case 1: // duplicate scores to exercise tie ordering
				score = 0.5
			}
			step(op, ids[rng.Intn(len(ids))], score)
		}
		for op := 0; len(ref) > 0; op++ {
			step(op, ref[rng.Intn(len(ref))].Item, 0)
		}
	}
	// A negative k is an empty list, as k = 0 is.
	out, thr, ok := MergeListEntry(EncodeList(List{{Item: "a", Score: 1}}), "b", 2, -1)
	if !ok || thr != 0 || !bytes.Equal(out, EncodeList(nil)) {
		t.Fatalf("k=-1: (%x, %v, %v), want the empty list", out, thr, ok)
	}
}

func TestHistoryDeltaEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	items := []string{"i1", "i2", "i3", "longitemname4", "i5", "i6", "i7", "i8"}
	for trial := 0; trial < 300; trial++ {
		buf := EncodeHistory(nil)
		ref := &refHistory{h: History{}}
		for op := 0; op < 40; op++ {
			item := items[rng.Intn(len(items))]
			r := Rating{
				Rating: math.Round(rng.Float64()*100) / 100,
				TS:     rng.Int63n(1 << 40),
			}
			out, ok := UpsertHistoryEntry(buf, item, r)
			if !ok {
				t.Fatalf("trial %d op %d: upsert declined at %d entries", trial, op, len(ref.h))
			}
			buf = out
			ref.upsert(item, r)
			ref.same(t, buf, "after upsert")
			if fr, found, ok := FindHistoryEntry(buf, item); !ok || !found || fr != r {
				t.Fatalf("trial %d op %d: FindHistoryEntry = (%v,%v,%v), want (%v,true,true)",
					trial, op, fr, found, ok, r)
			}
		}
	}
}

// TestHistoryCountWidthBoundaries walks a history across the counts where
// the count's uvarint changes width — 0→1, 127→128→127, 16383→16384 and
// back — comparing with the map reference after every edit. Timestamps
// repeat, so eviction's tie rule (first in encoded order) is exercised
// on the way down.
func TestHistoryCountWidthBoundaries(t *testing.T) {
	buf := EncodeHistory(nil)
	ref := &refHistory{h: History{}}
	for i := 0; i < 130; i++ {
		item, r := benchItemID(i), Rating{Rating: 1, TS: int64(i % 7)}
		var ok bool
		if buf, ok = UpsertHistoryEntry(buf, item, r); !ok {
			t.Fatalf("edit declined at %d entries", i)
		}
		ref.upsert(item, r)
		ref.same(t, buf, "growing")
	}
	keep := benchItemID(0) // TS 0: the oldest, and protected
	for len(ref.h) > 1 {
		want := ref.evict(keep)
		var ok bool
		if buf, ok = EvictOldestHistoryEntry(buf, keep); !ok {
			t.Fatalf("evict declined at %d entries", len(ref.h)+1)
		}
		if _, found, _ := FindHistoryEntry(buf, want); found {
			t.Fatalf("at %d entries: %q should have been evicted", len(ref.h)+1, want)
		}
		ref.same(t, buf, "shrinking")
	}
	// Only keep is left: nothing to evict, which is not a malformed frame.
	orig := append([]byte(nil), buf...)
	if out, ok := EvictOldestHistoryEntry(buf, keep); !ok || !bytes.Equal(out, orig) {
		t.Fatalf("evict with nothing removable = (%x, %v), want the frame unchanged", out, ok)
	}
	if buf, _ = EvictOldestHistoryEntry(buf, ""); len(buf) != len(EncodeHistory(nil)) {
		t.Fatalf("1→0 left %x", buf)
	}

	// The two-to-three byte boundary.
	h := History{}
	for i := 0; i < 16383; i++ {
		h[benchItemID(i)] = Rating{Rating: 1, TS: int64(i + 10)}
	}
	buf = EncodeHistory(h)
	ref = refHistoryOf(t, buf)
	r := Rating{Rating: 2, TS: 1}
	var ok bool
	if buf, ok = UpsertHistoryEntry(buf, "the 16384th", r); !ok {
		t.Fatal("upsert declined at 16383 entries")
	}
	ref.upsert("the 16384th", r)
	ref.same(t, buf, "16383→16384")
	if buf, ok = EvictOldestHistoryEntry(buf, ""); !ok {
		t.Fatal("evict declined at 16384 entries")
	}
	if gone := ref.evict(""); gone != "the 16384th" {
		t.Fatalf("reference evicted %q", gone)
	}
	ref.same(t, buf, "16384→16383")
}

func TestEvictOldestHistoryEntry(t *testing.T) {
	buf := EncodeHistory(nil)
	entries := []struct {
		item string
		ts   int64
	}{{"a", 50}, {"b", 10}, {"c", 30}, {"d", 20}}
	for _, e := range entries {
		var ok bool
		buf, ok = UpsertHistoryEntry(buf, e.item, Rating{Rating: 1, TS: e.ts})
		if !ok {
			t.Fatalf("append %q declined", e.item)
		}
	}
	// Evict mutates in place: work on copies so each case sees the
	// original bytes.
	orig := append([]byte(nil), buf...)

	// Oldest is b(10); with keep="b" the oldest evictable is d(20).
	out, ok := EvictOldestHistoryEntry(append([]byte(nil), orig...), "b")
	if !ok {
		t.Fatal("evict declined")
	}
	got, err := DecodeHistory(out)
	if err != nil {
		t.Fatal(err)
	}
	if _, has := got["d"]; has {
		t.Fatalf("expected d evicted, have %v", got)
	}
	if len(got) != 3 {
		t.Fatalf("expected 3 entries after evict, have %v", got)
	}
	// Without keep protection the true oldest goes.
	out2, ok := EvictOldestHistoryEntry(append([]byte(nil), orig...), "")
	if !ok {
		t.Fatal("evict declined")
	}
	got2, _ := DecodeHistory(out2)
	if _, has := got2["b"]; has {
		t.Fatalf("expected b evicted, have %v", got2)
	}
}

// editsAgreeWithDecoder asserts the layer's contract on one frame: every
// edit reports ok exactly when the decoder accepts the bytes, and an edit
// that declines leaves them alone.
func editsAgreeWithDecoder(t *testing.T, name string, data []byte) {
	t.Helper()
	_, herr := DecodeHistory(data)
	_, lerr := DecodeList(data)
	r := Rating{Rating: 2.5, TS: 42}
	edits := []struct {
		name      string
		decodeErr error
		run       func(b []byte) ([]byte, bool)
	}{
		{"FindHistoryEntry", herr, func(b []byte) ([]byte, bool) { _, _, ok := FindHistoryEntry(b, "probe"); return b, ok }},
		{"UpsertHistoryEntry", herr, func(b []byte) ([]byte, bool) { return UpsertHistoryEntry(b, "probe", r) }},
		{"EvictOldestHistoryEntry", herr, func(b []byte) ([]byte, bool) { return EvictOldestHistoryEntry(b, "keep") }},
		{"MergeListEntry", lerr, func(b []byte) ([]byte, bool) { out, _, ok := MergeListEntry(b, "probe", 1.5, 300); return out, ok }},
		{"MergeListEntry/remove", lerr, func(b []byte) ([]byte, bool) { out, _, ok := MergeListEntry(b, "probe", 0, 5); return out, ok }},
	}
	for _, e := range edits {
		cp := append([]byte(nil), data...)
		_, ok := e.run(cp)
		if ok != (e.decodeErr == nil) {
			t.Fatalf("%s: %s ok=%v, decoder error %v (frame %.40x)", name, e.name, ok, e.decodeErr, data)
		}
		if !ok && !bytes.Equal(cp, data) {
			t.Fatalf("%s: declined %s mutated the buffer: %.40x -> %.40x", name, e.name, data, cp)
		}
	}
}

// TestEditsDeclineExactlyWhatTheDecoderRejects: ok=false ⇔ malformed,
// over truncations at every length, trailing garbage, wrong tag, type and
// version, a count the payload cannot hold, an id length that overflows,
// and a count or an id length stored wider than it needs to be (malformed:
// a value has one encoding).
func TestEditsDeclineExactlyWhatTheDecoderRejects(t *testing.T) {
	hist := EncodeHistory(nil)
	for i := 0; i < 3; i++ {
		hist, _ = UpsertHistoryEntry(hist, benchItemID(i), Rating{Rating: 1, TS: int64(i)})
	}
	list := EncodeList(List{{Item: "x", Score: 2}, {Item: strings.Repeat("y", 241), Score: 1}})
	for _, frame := range [][]byte{hist, list} {
		for cut := 0; cut <= len(frame); cut++ {
			editsAgreeWithDecoder(t, "truncated", frame[:cut])
		}
		editsAgreeWithDecoder(t, "trailing garbage", append(append([]byte(nil), frame...), 0))
		editsAgreeWithDecoder(t, "trailing entry-like garbage", append(append([]byte(nil), frame...), frame[4:]...))
		for at := 0; at < 3; at++ {
			bad := append([]byte(nil), frame...)
			bad[at] ^= 0x10
			editsAgreeWithDecoder(t, "header byte flipped", bad)
		}
	}
	for _, typ := range []byte{typeHistory, typeList} {
		ver := versionOf(typ)
		editsAgreeWithDecoder(t, "count beyond payload", []byte{tagBinary, typ, ver, 127})
		editsAgreeWithDecoder(t, "ten-byte count", append([]byte{tagBinary, typ, ver}, bytes.Repeat([]byte{0xff}, 9)...))
		// One entry whose id length is 2^64-10: adding the fixed tail to
		// it wraps around.
		over := append([]byte{tagBinary, typ, ver, 1}, 0xf6, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
		editsAgreeWithDecoder(t, "id length overflows", append(over, make([]byte, 40)...))
		editsAgreeWithDecoder(t, "wide zero count", []byte{tagBinary, typ, ver, 0x80, 0x00})
		editsAgreeWithDecoder(t, "wide id length", append([]byte{tagBinary, typ, ver, 1, 0x80, 0x00}, make([]byte, 24)...))
	}
	// A history under the version histories were once written in is
	// refused, not read as an older layout.
	retired := append([]byte(nil), hist...)
	retired[2] = 1
	if _, err := DecodeHistory(retired); err == nil {
		t.Fatal("DecodeHistory read a frame under a version 1 header")
	}
	editsAgreeWithDecoder(t, "version 1 header", retired)
	editsAgreeWithDecoder(t, "json", []byte(`{"a":{"r":1}}`))
	editsAgreeWithDecoder(t, "json list", []byte(`[]`))
	editsAgreeWithDecoder(t, "nil", nil)

	// No writer pads a uvarint, so a padded one is damage and not a second
	// spelling: decoder and edits both decline it.
	for _, padded := range [][]byte{
		{tagBinary, typeHistory, version, 0x80, 0x00},
		append([]byte{tagBinary, typeList, version, 1, 0x80, 0x00}, EncodeFloat(2)...),
	} {
		_, herr := DecodeHistory(padded)
		_, lerr := DecodeList(padded)
		if herr == nil || lerr == nil {
			t.Fatalf("padded uvarint accepted: frame %x, history %v, list %v", padded, herr, lerr)
		}
	}
}

// BenchmarkHistoryEntryBytes reports what a stored history spends per
// entry: 1,000 upserts of the 5-byte ids i1000 to i1999 into one frame,
// then the frame's bytes past its header and count over its entries.
// scripts/check.sh holds B/entry to 1+k+16 for k-byte ids (id_bytes): the
// length prefix, the id, the rating and the timestamp. Version 1 entries,
// with a session, took 1+k+24.
func BenchmarkHistoryEntryBytes(b *testing.B) {
	ids := make([]string, 1000)
	for i := range ids {
		ids[i] = "i" + strconv.Itoa(1000+i)
	}
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = EncodeHistory(nil)
		for j, id := range ids {
			buf, _ = UpsertHistoryEntry(buf, id, Rating{Rating: 1, TS: int64(j)})
		}
	}
	n, base, ok := frameBody(buf, typeHistory)
	if !ok || n != len(ids) {
		b.Fatalf("frame holds %d entries (ok=%v), want %d", n, ok, len(ids))
	}
	b.ReportMetric(float64(len(buf)-base)/float64(n), "B/entry")
	b.ReportMetric(float64(len(ids[0])), "id_bytes")
}

func TestPatchFloat(t *testing.T) {
	b := EncodeFloat(1.5)
	if !PatchFloat(b, 2.75) {
		t.Fatal("patch declined on 8-byte buffer")
	}
	if v, err := DecodeFloat(b); err != nil || v != 2.75 {
		t.Fatalf("decode after patch = (%v,%v)", v, err)
	}
	if PatchFloat([]byte("123456789"), 1) {
		t.Fatal("patch accepted a 9-byte buffer")
	}
	if PatchFloat(nil, 1) {
		t.Fatal("patch accepted nil")
	}
}

// --- zero-allocation gates -------------------------------------------------

func TestMergeListEntryZeroAlloc(t *testing.T) {
	l := List{}
	for i := 0; i < 20; i++ {
		l = append(l, core.ScoredItem{Item: benchItemID(i), Score: float64(100 - i)})
	}
	buf := EncodeList(l)
	buf = append(buf, 0)[:len(buf)] // spare capacity so in-place growth never reallocates
	allocs := testing.AllocsPerRun(200, func() {
		out, _, ok := MergeListEntry(buf, benchItemID(7), 95.5, 20)
		if !ok {
			t.Fatal("merge declined")
		}
		buf = out
	})
	if allocs != 0 {
		t.Fatalf("MergeListEntry in-place: %v allocs/op, want 0", allocs)
	}
}

func TestUpsertHistoryEntryZeroAlloc(t *testing.T) {
	buf := benchHistoryBuf(30)
	r := Rating{Rating: 2, TS: 77}
	allocs := testing.AllocsPerRun(200, func() {
		out, ok := UpsertHistoryEntry(buf, benchItemID(11), r)
		if !ok {
			t.Fatal("upsert declined")
		}
		buf = out
	})
	if allocs != 0 {
		t.Fatalf("UpsertHistoryEntry existing-item: %v allocs/op, want 0", allocs)
	}
}

func TestFindIterZeroAlloc(t *testing.T) {
	buf := benchHistoryBuf(30)
	allocs := testing.AllocsPerRun(200, func() {
		if _, found, ok := FindHistoryEntry(buf, benchItemID(29)); !ok || !found {
			t.Fatal("find failed")
		}
		it, _ := IterHistory(buf)
		for {
			if _, _, more := it.Next(); !more {
				break
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Find/Iter: %v allocs/op, want 0", allocs)
	}
}

// --- delta vs full microbenchmarks -----------------------------------------

func benchHistoryBuf(n int) []byte {
	buf := EncodeHistory(nil)
	for i := 0; i < n; i++ {
		buf, _ = UpsertHistoryEntry(buf, benchItemID(i), Rating{Rating: 1, TS: int64(i)})
	}
	return buf
}

// BenchmarkHistoryUpsertDelta is under scripts/check.sh's zero-alloc
// gate. "boundary" sits on the 127/128 count-width boundary: every
// iteration appends a 128th entry (the payload shifts right by a byte)
// and evicts it again (it shifts back).
func BenchmarkHistoryUpsertDelta(b *testing.B) {
	b.Run("patch", func(b *testing.B) {
		buf := benchHistoryBuf(100)
		r := Rating{Rating: 2, TS: 5}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, ok := UpsertHistoryEntry(buf, benchItemID(50), r)
			if !ok {
				b.Fatal("declined")
			}
			buf = out
		}
	})
	b.Run("boundary", func(b *testing.B) {
		buf := benchHistoryBuf(127)
		buf = append(buf, make([]byte, 64)...)[:len(buf)] // room for the 128th entry
		r := Rating{Rating: 2, TS: -1}                    // older than every other entry
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, ok := UpsertHistoryEntry(buf, "the 128th", r)
			if ok {
				out, ok = EvictOldestHistoryEntry(out, "")
			}
			if !ok {
				b.Fatal("declined")
			}
			buf = out
		}
		if n, _ := HistoryLen(buf); n != 127 {
			b.Fatalf("%d entries after the last evict, want 127", n)
		}
	})
}

func BenchmarkHistoryUpsertFull(b *testing.B) {
	buf := benchHistoryBuf(100)
	r := Rating{Rating: 2, TS: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := DecodeHistory(buf)
		if err != nil {
			b.Fatal(err)
		}
		h[benchItemID(50)] = r
		buf = EncodeHistory(h)
	}
}

func benchListBuf(n int) []byte {
	l := make(List, 0, n)
	for i := 0; i < n; i++ {
		l = append(l, core.ScoredItem{Item: benchItemID(i), Score: float64(1000 - i)})
	}
	return EncodeList(l)
}

func BenchmarkListMergeDelta(b *testing.B) {
	buf := benchListBuf(20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, ok := MergeListEntry(buf, benchItemID(10), 995.5, 20)
		if !ok {
			b.Fatal("declined")
		}
		buf = out
	}
}

func BenchmarkListMergeFull(b *testing.B) {
	buf := benchListBuf(20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := DecodeList(buf)
		if err != nil {
			b.Fatal(err)
		}
		l, _ = refMergeList(l, benchItemID(10), 995.5, 20)
		buf = EncodeList(l)
	}
}
