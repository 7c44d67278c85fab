package cluster

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"tencentrec/internal/stream"
)

// randomValues draws a tuple payload from the full wire type palette.
func randomValues(rng *rand.Rand) stream.Values {
	n := rng.Intn(6)
	vals := make(stream.Values, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(9) {
		case 0:
			vals = append(vals, nil)
		case 1:
			b := make([]byte, rng.Intn(20))
			rng.Read(b)
			vals = append(vals, string(b))
		case 2:
			vals = append(vals, rng.Int63()-rng.Int63())
		case 3:
			vals = append(vals, int(rng.Int31())-int(rng.Int31()))
		case 4:
			vals = append(vals, rng.NormFloat64())
		case 5:
			vals = append(vals, rng.Intn(2) == 0)
		case 6:
			b := make([]byte, rng.Intn(16))
			rng.Read(b)
			vals = append(vals, b)
		case 7:
			vals = append(vals, math.Float64frombits(rng.Uint64())) // incl. NaN/Inf bit patterns
		case 8:
			run := make(stream.Run, rng.Intn(5)) // a run of no rows included
			for r := range run {
				key, str := make([]byte, rng.Intn(12)), make([]byte, rng.Intn(6))
				rng.Read(key)
				rng.Read(str)
				run[r] = stream.Row{Key: string(key), Str: string(str), Num: math.Float64frombits(rng.Uint64())}
			}
			vals = append(vals, run)
		}
	}
	return vals
}

func valuesEqual(a, b stream.Values) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		af, aok := a[i].(float64)
		bf, bok := b[i].(float64)
		if aok && bok && math.IsNaN(af) && math.IsNaN(bf) {
			continue
		}
		if ar, ok := a[i].(stream.Run); ok {
			br, ok := b[i].(stream.Run)
			if !ok || len(ar) != len(br) {
				return false
			}
			for r := range ar {
				if ar[r].Key != br[r].Key || ar[r].Str != br[r].Str || math.Float64bits(ar[r].Num) != math.Float64bits(br[r].Num) {
					return false
				}
			}
			continue
		}
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
		// reflect.DeepEqual(nil-[]byte, empty) subtleties are acceptable,
		// but type identity is not: int must come back int, not int64.
		if reflect.TypeOf(a[i]) != reflect.TypeOf(b[i]) {
			return false
		}
	}
	return true
}

// TestBatchRoundTripProperty drives randomized batches through
// encode→frame→read→decode and requires exact payload and type fidelity.
func TestBatchRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		nt := rng.Intn(20)
		in := make([]WireTuple, 0, nt)
		for i := 0; i < nt; i++ {
			in = append(in, WireTuple{
				Root:   rng.Uint64(),
				ID:     rng.Uint64(),
				Values: randomValues(rng),
			})
		}
		src, streamID := "comp", "s1"
		payload := EncodeBatch(nil, src, streamID, in)

		var frame bytes.Buffer
		if err := WriteFrame(&frame, payload); err != nil {
			t.Fatal(err)
		}
		got, err := NewFrameReader(&frame).Next()
		if err != nil {
			t.Fatalf("iter %d: read frame: %v", iter, err)
		}
		gs, gst, out, err := DecodeBatch(got, nil)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		if gs != src || gst != streamID || len(out) != len(in) {
			t.Fatalf("iter %d: got (%q,%q,%d tuples), want (%q,%q,%d)", iter, gs, gst, len(out), src, streamID, len(in))
		}
		for i := range in {
			if out[i].Root != in[i].Root || out[i].ID != in[i].ID || !valuesEqual(out[i].Values, in[i].Values) {
				t.Fatalf("iter %d tuple %d: got %+v want %+v", iter, i, out[i], in[i])
			}
		}
	}
}

// TestFrameTornAndCorrupt enumerates every truncation of a valid frame
// and a byte flip at every position: all must error, none may panic, and
// flips must be CRC errors.
func TestFrameTornAndCorrupt(t *testing.T) {
	payload := EncodeBatch(nil, "src", "default", []WireTuple{
		{Root: 1, ID: 2, Values: stream.Values{"user", int64(7), 3.5, true, []byte{1, 2}}},
		{Root: 1, ID: 3, Values: stream.Values{stream.Run{{Key: "a\x1fb", Num: 0.5}, {Key: "a", Str: "b", Num: 1}}, int64(0)}},
	})
	var full bytes.Buffer
	if err := WriteFrame(&full, payload); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()

	for cut := 0; cut < len(raw); cut++ {
		_, err := NewFrameReader(bytes.NewReader(raw[:cut])).Next()
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if cut < frameHeaderLen {
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("torn header at %d: got %v", cut, err)
			}
		}
	}
	for flip := 0; flip < len(raw); flip++ {
		mut := append([]byte(nil), raw...)
		mut[flip] ^= 0x40
		got, err := NewFrameReader(bytes.NewReader(mut)).Next()
		if err == nil {
			// A flip in the length prefix can only be accepted if the CRC
			// also matched the shorter read — impossible here.
			t.Fatalf("flip at %d accepted: %x", flip, got)
		}
	}
}

// TestDecodeBatchTrailingAndLying rejects payloads with trailing garbage
// or counts that exceed the payload.
func TestDecodeBatchTrailingAndLying(t *testing.T) {
	payload := EncodeBatch(nil, "a", "b", []WireTuple{{Root: 1, ID: 2, Values: stream.Values{"x"}}})
	if _, _, _, err := DecodeBatch(append(payload, 0xFF), nil); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Every truncation of the payload must error.
	for cut := 1; cut < len(payload); cut++ {
		if _, _, _, err := DecodeBatch(payload[:cut], nil); err == nil {
			t.Fatalf("payload truncation at %d accepted", cut)
		}
	}
	lyingCount := EncodeBatch(nil, "a", "b", nil)
	lyingCount = append(lyingCount[:len(lyingCount)-1], 0xFF, 0xFF, 0xFF, 0x7F) // a tuple count no payload holds
	if _, _, _, err := DecodeBatch(lyingCount, nil); err == nil {
		t.Fatal("lying tuple count accepted")
	}
	// A run is one value of one tuple; its truncations are covered above
	// once it is in the payload, and its row count may not promise more
	// rows than the bytes behind it can hold.
	run := EncodeBatch(nil, "a", "b", []WireTuple{{Values: stream.Values{stream.Run{{Key: "k", Str: "o", Num: 1}, {Key: "k2"}}}}})
	if _, _, tuples, err := DecodeBatch(run, nil); err != nil || len(tuples) != 1 || len(tuples[0].Values) != 1 {
		t.Fatalf("a run did not decode as one value of one tuple: %v, %v", tuples, err)
	}
	for cut := 1; cut < len(run); cut++ {
		if _, _, _, err := DecodeBatch(run[:cut], nil); err == nil {
			t.Fatalf("run payload truncation at %d accepted", cut)
		}
	}
	lying := EncodeBatch(nil, "a", "b", nil)
	lying[len(lying)-1] = 1                      // one tuple
	lying = append(lying, make([]byte, 16)...)   // unanchored
	lying = append(lying, 1, valRun, 9)          // one value: a run of nine rows
	lying = append(lying, make([]byte, 9+10)...) // in bytes enough for one row and a byte each for the rest
	if _, _, _, err := DecodeBatch(lying, nil); !errors.Is(err, ErrFrameCorrupt) || !strings.Contains(err.Error(), "run of 9 rows") {
		t.Fatalf("lying run row count: %v", err)
	}
}

// TestFrameOversize rejects frames whose length prefix exceeds MaxFrame
// without allocating for them.
func TestFrameOversize(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, frameHeaderLen)
	hdr[4] = 0xFF
	hdr[5] = 0xFF
	hdr[6] = 0xFF
	hdr[7] = 0x7F
	buf.Write(hdr)
	_, err := NewFrameReader(&buf).Next()
	if !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("oversize frame: got %v, want ErrFrameCorrupt", err)
	}
	if err := WriteFrame(io.Discard, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversize write accepted")
	}
}
