package statecodec

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// The fuzz targets pin three properties of the codecs on arbitrary input:
// no decoder or edit may panic, an edit reports ok exactly when the
// decoder accepts the same bytes, and an edit that reports ok leaves the
// buffer decodable with the edit applied. Seeds cover the binary frames on
// both sides of every count-width boundary, long ids, non-binary bytes,
// truncations and trailing garbage.

func fuzzSeeds(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{})
	f.Add([]byte{tagBinary})
	f.Add([]byte(`{"a":{"r":1}}`))
	f.Add([]byte(`[]`))
	h := History{"item-a": {Rating: 1.5, TS: 100}, "b": {Rating: 0.5, TS: 7}}
	hb := EncodeHistory(h)
	f.Add(hb)
	f.Add(hb[:len(hb)/2])
	l := List{{Item: "x", Score: 2}, {Item: "yy", Score: 1}}
	lb := EncodeList(l)
	f.Add(lb)
	f.Add(lb[:len(lb)-3])
	f.Add(EncodeFloat(3.25))
	f.Add(EncodeProfile(Profile{Weights: map[string]float64{"k": 1.5}, UpdatedTS: 9, Published: 2}))
	// Hostile count: claims 127 entries with no body.
	f.Add([]byte{tagBinary, 'H', historyVersion, 127})
	f.Add([]byte{tagBinary, 'L', 1, 127})
	// Two-byte count frame.
	f.Add([]byte{tagBinary, 'H', historyVersion, 0x80, 0x01})
	// Histories under the retired version 1 header, which every reader
	// refuses: a whole frame relabelled, its truncation, and a hostile
	// count.
	retired := append([]byte(nil), hb...)
	retired[2] = 1
	f.Add(retired)
	f.Add(retired[:len(retired)-5])
	f.Add([]byte{tagBinary, 'H', 1, 127})
	// Trailing garbage after a whole frame.
	f.Add(append(append([]byte(nil), hb...), 0))
	f.Add(append(append([]byte(nil), lb...), lb[4:]...))
}

func FuzzDecodeHistory(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHistory(data)
		if err != nil {
			return
		}
		// A decodable frame must survive re-encode → decode. Ratings are
		// compared at the bit level: fuzzed frames can carry NaN.
		h2, err := DecodeHistory(EncodeHistory(h))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(h) != len(h2) {
			t.Fatalf("round trip diverged: %v vs %v", h, h2)
		}
		for k, v := range h {
			v2, has := h2[k]
			if !has || v.TS != v2.TS ||
				math.Float64bits(v.Rating) != math.Float64bits(v2.Rating) {
				t.Fatalf("round trip diverged at %q: %v vs %v", k, v, v2)
			}
		}
	})
}

func FuzzDecodeList(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := DecodeList(data)
		if err != nil {
			return
		}
		l2, err := DecodeList(EncodeList(l))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(l) != len(l2) {
			t.Fatalf("round trip diverged: %v vs %v", l, l2)
		}
	})
}

func FuzzDecodeProfile(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProfile(data)
		if err != nil {
			return
		}
		if _, err := DecodeProfile(EncodeProfile(p)); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

func FuzzHistoryDelta(f *testing.F) {
	fuzzSeeds(f)
	// Counts on both sides of each uvarint width boundary: the target's
	// upsert takes them 0→1, 127→128 and 16383→16384, its evict 128→127.
	for _, n := range []int{0, 127, 128, 16383} {
		f.Add(EncodeHistory(benchHistory(n)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every read-side helper must tolerate arbitrary bytes.
		FindHistoryEntry(data, "probe")
		HistoryLen(data)
		if it, ok := IterHistory(data); ok {
			for {
				if _, _, more := it.Next(); !more {
					break
				}
			}
			it.Corrupt()
		}

		// Write-side helpers: work on a copy (they mutate in place). They
		// accept exactly what the decoder accepts, and what they accept must
		// decode with the edit applied.
		_, decErr := DecodeHistory(data)
		r := Rating{Rating: 2.5, TS: 42}
		cp := append([]byte(nil), data...)
		out, ok := UpsertHistoryEntry(cp, "probe", r)
		if ok != (decErr == nil) {
			t.Fatalf("upsert ok=%v but decoder error %v (in=%x)", ok, decErr, data)
		}
		if ok {
			h, err := DecodeHistory(out)
			if err != nil {
				t.Fatalf("upsert produced undecodable frame: %v (in=%x out=%x)", err, data, out)
			}
			if h["probe"] != r {
				t.Fatalf("upsert lost entry: %v", h["probe"])
			}
			if out[2] != historyVersion {
				t.Fatalf("upsert wrote a version %d frame", out[2])
			}
		} else if !bytes.Equal(cp, data) {
			t.Fatalf("declined upsert mutated buffer: %x -> %x", data, cp)
		}

		cp = append([]byte(nil), data...)
		out, ok = EvictOldestHistoryEntry(cp, "keep")
		if ok != (decErr == nil) {
			t.Fatalf("evict ok=%v but decoder error %v (in=%x)", ok, decErr, data)
		}
		if ok {
			if _, err := DecodeHistory(out); err != nil {
				t.Fatalf("evict produced undecodable frame: %v (in=%x out=%x)", err, data, out)
			}
		} else if !bytes.Equal(cp, data) {
			t.Fatalf("declined evict mutated buffer: %x -> %x", data, cp)
		}
	})
}

// descending reports whether every score is at least its successor's
// (false for any list holding a NaN).
func descending(l List) bool {
	for i := 1; i < len(l); i++ {
		if !(l[i-1].Score >= l[i].Score) {
			return false
		}
	}
	return len(l) != 1 || l[0].Score == l[0].Score
}

func FuzzListDelta(f *testing.F) {
	lb := EncodeList(List{{Item: "x", Score: 2}, {Item: "yy", Score: 1}})
	f.Add(lb, "probe", 1.5, 5)
	f.Add(lb, "x", 0.0, 2)
	f.Add(lb[:len(lb)-3], "probe", 3.0, 1)
	f.Add(append(append([]byte(nil), lb...), 7), "probe", 3.0, 1)
	f.Add([]byte(`[]`), "probe", 1.0, 3)
	f.Add([]byte{tagBinary, 'L', 1, 127}, "probe", 2.0, 0)
	// Lists one short of, at and past the one-byte count, at the k that
	// fills them; ids whose length prefix takes two bytes.
	for _, k := range []int{5, 127, 128, 300} {
		f.Add(benchListBuf(k-1), "probe", 1000.5, k)
		f.Add(benchListBuf(k), benchItemID(k/2), 0.0, k)
	}
	f.Add(lb, strings.Repeat("i", 241), 1.5, 5)
	f.Add(lb, strings.Repeat("j", 1000), 2.5, 5)
	f.Fuzz(func(t *testing.T, data []byte, item string, score float64, k int) {
		if k < -1 {
			k = -1
		}
		if k > 400 {
			k %= 400
		}
		l, decErr := DecodeList(data)
		cp := append([]byte(nil), data...)
		out, _, ok := MergeListEntry(cp, item, score, k)
		if ok != (decErr == nil) {
			t.Fatalf("merge ok=%v but decoder error %v (in=%x)", ok, decErr, data)
		}
		if !ok {
			if !bytes.Equal(cp, data) {
				t.Fatalf("declined merge mutated buffer: %x -> %x", data, cp)
			}
			return
		}
		got, err := DecodeList(out)
		if err != nil {
			t.Fatalf("merge produced undecodable frame: %v (in=%x out=%x)", err, data, out)
		}
		// A positive-score merge bounds the list at k.
		if len(got) > max(k, 0) && score > 0 {
			t.Fatalf("merge exceeded k=%d: %d entries", k, len(got))
		}
		// On a descending list — what every writer maintains — the bytes
		// are the reference's. (A fuzzed frame may be valid but unordered;
		// there only the bound above is promised.)
		if descending(l) {
			want, _ := refMergeList(l, item, score, max(k, 0))
			if !bytes.Equal(out, EncodeList(want)) {
				t.Fatalf("merge diverges from the reference (in=%x item=%q score=%v k=%d)\n got %x\nwant %x",
					data, item, score, k, out, EncodeList(want))
			}
		}
	})
}

func FuzzDecodeFloat(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(EncodeFloat(1.5))
	f.Add([]byte("1.5"))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeFloat(data)
		if err != nil {
			return
		}
		cp := append([]byte(nil), data...)
		if PatchFloat(cp, v) {
			if v2, err := DecodeFloat(cp); err != nil || (v2 != v && !(v != v)) {
				t.Fatalf("patch round trip: %v %v", v2, err)
			}
		}
	})
}
