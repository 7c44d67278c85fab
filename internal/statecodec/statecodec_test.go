package statecodec

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"tencentrec/internal/core"
)

// quickCfg bumps the case count: codec round-trips are cheap and the
// corner cases (empty maps, huge floats, NUL-bearing keys) matter.
func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
}

// normFloat squashes NaN, which does not compare equal to itself and is
// never produced by the pipeline's counters.
func normFloat(v float64) float64 {
	if math.IsNaN(v) {
		return 0.5
	}
	return v
}

func TestFloatRoundTrip(t *testing.T) {
	f := func(v float64) bool {
		v = normFloat(v)
		got, err := DecodeFloat(EncodeFloat(v))
		return err == nil && got == v
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFloat([]byte{1, 2, 3}); err == nil {
		t.Fatal("DecodeFloat accepted a short value")
	}
}

func TestHistoryRoundTrip(t *testing.T) {
	f := func(items []string, ratings []float64, ts []int64) bool {
		h := make(History)
		for i, item := range items {
			var r Rating
			if i < len(ratings) {
				r.Rating = normFloat(ratings[i])
			}
			if i < len(ts) {
				r.TS = ts[i]
			}
			h[item] = r
		}
		got, err := DecodeHistory(EncodeHistory(h))
		return err == nil && reflect.DeepEqual(got, h)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestListRoundTrip(t *testing.T) {
	f := func(items []string, scores []float64) bool {
		l := make(List, 0, len(items))
		for i, item := range items {
			var s float64
			if i < len(scores) {
				s = normFloat(scores[i])
			}
			l = append(l, core.ScoredItem{Item: item, Score: s})
		}
		got, err := DecodeList(EncodeList(l))
		if err != nil {
			return false
		}
		if len(l) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, l)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestProfileRoundTrip(t *testing.T) {
	f := func(terms []string, weights []float64, updated, published int64) bool {
		p := Profile{Weights: make(map[string]float64), UpdatedTS: updated, Published: published}
		for i, term := range terms {
			var w float64
			if i < len(weights) {
				w = normFloat(weights[i])
			}
			p.Weights[term] = w
		}
		got, err := DecodeProfile(EncodeProfile(p))
		return err == nil && reflect.DeepEqual(got, p)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptInputsNeverPanic fuzzes the decoders with truncations,
// bit-flips and type confusions; every outcome must be a wrapped error
// or a clean value, never a panic.
func TestCorruptInputsNeverPanic(t *testing.T) {
	seeds := [][]byte{
		EncodeHistory(History{"item": {Rating: 1, TS: 2}, "other": {Rating: 0.5}}),
		EncodeList(List{{Item: "a", Score: 1}, {Item: "b", Score: 0.25}}),
		EncodeProfile(Profile{Weights: map[string]float64{"t1": 1, "t2": 2}, UpdatedTS: 5}),
		[]byte(`{"item":{"r":1,"t":2,"s":3}}`),
		[]byte(`[{"Item":"a","Score":1}]`),
		{},
		{tagBinary},
		{tagBinary, typeHistory},
		{tagBinary, typeList, version, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	}
	decoders := []func([]byte) error{
		func(b []byte) error { _, err := DecodeHistory(b); return err },
		func(b []byte) error { _, err := DecodeList(b); return err },
		func(b []byte) error { _, err := DecodeProfile(b); return err },
		func(b []byte) error { _, err := DecodeFloat(b); return err },
	}
	rng := rand.New(rand.NewSource(2))
	for _, seed := range seeds {
		for trial := 0; trial < 400; trial++ {
			mut := append([]byte(nil), seed...)
			switch rng.Intn(3) {
			case 0: // truncate
				if len(mut) > 0 {
					mut = mut[:rng.Intn(len(mut))]
				}
			case 1: // flip bytes
				for i := 0; i < 1+rng.Intn(4) && len(mut) > 0; i++ {
					mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
				}
			case 2: // append garbage
				extra := make([]byte, rng.Intn(9))
				rng.Read(extra)
				mut = append(mut, extra...)
			}
			for _, dec := range decoders {
				_ = dec(mut) // must not panic
			}
		}
	}
	// Type confusion: a history decoded as a profile must error.
	if _, err := DecodeProfile(EncodeHistory(History{"x": {}})); err == nil {
		t.Fatal("DecodeProfile accepted a history value")
	}
	if _, err := DecodeList(EncodeProfile(Profile{})); err == nil {
		t.Fatal("DecodeList accepted a profile value")
	}
	// Unknown version must error, not misparse.
	bad := EncodeList(List{{Item: "a", Score: 1}})
	bad[2] = 99
	if _, err := DecodeList(bad); err == nil {
		t.Fatal("DecodeList accepted an unknown version")
	}
	badH := EncodeHistory(History{"a": {Rating: 1}})
	badH[2] = historyVersion + 1
	if _, err := DecodeHistory(badH); err == nil {
		t.Fatal("DecodeHistory accepted an unknown version")
	}
}

// --- BenchmarkStateCodec: whole-value encode + decode ----------------------

func benchHistory(n int) History {
	h := make(History, n)
	for i := 0; i < n; i++ {
		h[benchItemID(i)] = Rating{Rating: float64(i%5) + 0.5, TS: int64(i) * 1e9}
	}
	return h
}

func benchList(n int) List {
	l := make(List, n)
	for i := range l {
		l[i] = core.ScoredItem{Item: benchItemID(i), Score: 1 / float64(i+1)}
	}
	return l
}

func benchItemID(i int) string {
	return "item-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
}

func BenchmarkStateCodec(b *testing.B) {
	hist := benchHistory(64)
	list := benchList(50)
	b.Run("history-binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			raw := EncodeHistory(hist)
			if _, err := DecodeHistory(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("list-binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			raw := EncodeList(list)
			if _, err := DecodeList(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}
