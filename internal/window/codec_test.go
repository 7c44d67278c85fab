package window

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestAddEncodedEquivalence checks that the in-place encoded ops are
// byte-for-byte equivalent to Unmarshal → Add → Sum → Marshal across
// random op sequences, window sizes, and session jumps.
func TestAddEncodedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, w := range []int{0, 1, 2, 3, 8, 24} {
		for trial := 0; trial < 60; trial++ {
			ref := NewCounter(w)
			enc, err := ref.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			session := int64(rng.Intn(100))
			for op := 0; op < 50; op++ {
				// Mostly advance, occasionally stay or look back.
				switch rng.Intn(5) {
				case 0:
					session += int64(rng.Intn(2 * (w + 1)))
				case 1:
					if session > 0 {
						session -= int64(rng.Intn(int(session) + 1))
					}
				}
				delta := float64(rng.Intn(10)) - 2

				sum, ok := AddEncoded(enc, session, delta)
				if !ok {
					t.Fatalf("w=%d trial=%d op=%d: AddEncoded declined a marshaled counter", w, trial, op)
				}
				ref.Add(session, delta)
				refSum := ref.Sum(session)
				if sum != refSum {
					t.Fatalf("w=%d trial=%d op=%d session=%d: AddEncoded sum=%v, Counter sum=%v",
						w, trial, op, session, sum, refSum)
				}
				want, err := ref.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(enc, want) {
					t.Fatalf("w=%d trial=%d op=%d session=%d: encoded bytes diverge\n got %x\nwant %x",
						w, trial, op, session, enc, want)
				}

				current := session + int64(rng.Intn(w+2))
				gotSum, ok := SumEncoded(enc, current)
				if !ok {
					t.Fatalf("w=%d trial=%d op=%d: SumEncoded declined", w, trial, op)
				}
				if gotSum != ref.Sum(current) {
					t.Fatalf("w=%d trial=%d op=%d current=%d: SumEncoded=%v, Counter.Sum=%v",
						w, trial, op, current, gotSum, ref.Sum(current))
				}
			}
		}
	}
}

func TestAddEncodedDeclines(t *testing.T) {
	c := NewCounter(4)
	c.Add(3, 1)
	enc, _ := c.MarshalBinary()

	cases := []struct {
		name    string
		data    []byte
		session int64
	}{
		{"nil", nil, 1},
		{"short", enc[:10], 1},
		{"foreign magic", append([]byte{0x00}, enc[1:]...), 1},
		{"bad version", append([]byte{counterMagic, 9}, enc[2:]...), 1},
		{"negative session", enc, -1},
		{"truncated ring", enc[:len(enc)-8], 1},
	}
	for _, tc := range cases {
		cp := append([]byte(nil), tc.data...)
		if _, ok := AddEncoded(cp, tc.session, 1); ok {
			t.Errorf("%s: AddEncoded accepted", tc.name)
		}
		if !bytes.Equal(cp, tc.data) {
			t.Errorf("%s: declined AddEncoded mutated the buffer", tc.name)
		}
		if _, ok := SumEncoded(cp, tc.session); ok {
			t.Errorf("%s: SumEncoded accepted", tc.name)
		}
	}

	// Negative stored base: unaddressable by slot arithmetic.
	neg := append([]byte(nil), enc...)
	for i := 0; i < 8; i++ {
		neg[encOffBase+i] = 0xFF
	}
	if _, ok := AddEncoded(neg, 1, 1); ok {
		t.Error("negative base: AddEncoded accepted")
	}

	// A lifetime sum has no slots to address: any session does.
	life, _ := NewCounter(0).MarshalBinary()
	if sum, ok := AddEncoded(life, -3, 2); !ok || sum != 2 {
		t.Errorf("unwindowed counter, negative session: AddEncoded = (%v, %v), want (2, true)", sum, ok)
	}
	if sum, ok := SumEncoded(life, -3); !ok || sum != 2 {
		t.Errorf("unwindowed counter, negative session: SumEncoded = (%v, %v), want (2, true)", sum, ok)
	}
}

func TestAddEncodedZeroAlloc(t *testing.T) {
	c := NewCounter(8)
	c.Add(5, 1)
	enc, _ := c.MarshalBinary()
	session := int64(5)
	allocs := testing.AllocsPerRun(200, func() {
		session++
		if _, ok := AddEncoded(enc, session, 1); !ok {
			t.Fatal("declined")
		}
		if _, ok := SumEncoded(enc, session); !ok {
			t.Fatal("declined")
		}
	})
	if allocs != 0 {
		t.Fatalf("AddEncoded/SumEncoded: %v allocs/op, want 0", allocs)
	}
}

func BenchmarkAddEncoded(b *testing.B) {
	c := NewCounter(24)
	c.Add(100, 1)
	enc, _ := c.MarshalBinary()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddEncoded(enc, 100+int64(i%3), 1)
	}
}

func BenchmarkAddDecoded(b *testing.B) {
	c := NewCounter(24)
	c.Add(100, 1)
	enc, _ := c.MarshalBinary()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cc Counter
		if err := cc.UnmarshalBinary(enc); err != nil {
			b.Fatal(err)
		}
		cc.Add(100+int64(i%3), 1)
		cc.Sum(100 + int64(i%3))
		out, err := cc.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		enc = out
	}
}

// FuzzCounterEncoded holds the in-place codec to the decoded counter over
// arbitrary bytes: UnmarshalBinary accepts a frame exactly when SumEncoded
// does, SumEncoded equals Sum, AddEncoded's bytes and sum equal those of
// Unmarshal → Add → Marshal, and a declined frame is left as it was.
// Sessions come from Clock.SessionOf, which is never negative.
func FuzzCounterEncoded(f *testing.F) {
	for _, w := range []int{0, 1, 4} {
		c := NewCounter(w)
		c.Add(3, 1.5)
		enc, _ := c.MarshalBinary()
		f.Add(enc, int64(5), 2.0)
	}
	fresh, _ := NewCounter(3).MarshalBinary()
	f.Add(fresh, int64(0), 1.0)
	// A windowed counter whose base is negative: Sum would index its ring
	// at -1.
	neg, _ := NewCounter(1).MarshalBinary()
	binary.LittleEndian.PutUint64(neg[encOffBase:], 1<<63)
	neg[encOffInit] = 1
	f.Add(neg, int64(1), 1.0)
	f.Fuzz(func(t *testing.T, data []byte, session int64, delta float64) {
		if session < 0 {
			session = ^session
		}
		var c Counter
		uerr := c.UnmarshalBinary(data)
		sum, ok := SumEncoded(data, session)
		if ok != (uerr == nil) {
			t.Fatalf("UnmarshalBinary error %v, SumEncoded ok=%v (frame %x)", uerr, ok, data)
		}
		enc := append([]byte(nil), data...)
		added, addOK := AddEncoded(enc, session, delta)
		if addOK != ok {
			t.Fatalf("AddEncoded ok=%v, SumEncoded ok=%v (frame %x)", addOK, ok, data)
		}
		if !ok {
			if !bytes.Equal(enc, data) {
				t.Fatalf("declined AddEncoded changed the frame: %x -> %x", data, enc)
			}
			return
		}
		if want := c.Sum(session); math.Float64bits(sum) != math.Float64bits(want) {
			t.Fatalf("SumEncoded = %v, Sum = %v (frame %x)", sum, want, data)
		}
		c.Add(session, delta)
		want, _ := c.MarshalBinary()
		if !bytes.Equal(enc, want) {
			t.Fatalf("AddEncoded(%d, %v) wrote %x, Add and MarshalBinary %x", session, delta, enc, want)
		}
		if s := c.Sum(session); math.Float64bits(added) != math.Float64bits(s) {
			t.Fatalf("AddEncoded sum = %v, Sum after Add = %v", added, s)
		}
	})
}
