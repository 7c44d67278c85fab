package cluster

import (
	"bytes"
	"testing"

	"tencentrec/internal/stream"
)

// FuzzWireFrame feeds arbitrary bytes through the framed read path and
// the batch decoder: malformed input must error, never panic, never
// over-read. Anything that does decode must survive a re-encode/re-decode
// round trip unchanged (byte equality is deliberately not required —
// uvarints admit non-minimal encodings).
func FuzzWireFrame(f *testing.F) {
	// Seeds: valid batch frames, a well-framed payload of an unknown type,
	// and classic corruptions.
	var seed bytes.Buffer
	_ = WriteFrame(&seed, EncodeBatch(nil, "src", "default", nil))
	f.Add(append([]byte(nil), seed.Bytes()...))
	seed.Reset()
	_ = WriteFrame(&seed, EncodeBatch(nil, "spout", "default", []WireTuple{
		{Root: 3, ID: 4, Values: stream.Values{"u1", int64(9), 1.5, true, nil, []byte{7}}},
		{Root: 3, ID: 5, Values: stream.Values{stream.Run{{Key: "i1\x1fi2", Num: 0.25}, {Key: "i1", Str: "i2", Num: 0.5}}, int64(2)}},
	}))
	f.Add(append([]byte(nil), seed.Bytes()...))
	f.Add(append([]byte(nil), seed.Bytes()[:seed.Len()-3]...)) // torn tail
	seed.Reset()
	_ = WriteFrame(&seed, []byte{FrameBatch + 1, 1, 2, 3})
	f.Add(append([]byte(nil), seed.Bytes()...))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		for {
			payload, err := fr.Next()
			if err != nil {
				return
			}
			if len(payload) == 0 {
				t.Fatal("empty payload without error")
			}
			src, streamID, tuples, err := DecodeBatch(payload, nil)
			if err != nil {
				continue
			}
			s2, st2, t2, err := DecodeBatch(EncodeBatch(nil, src, streamID, tuples), nil)
			if err != nil || s2 != src || st2 != streamID || len(t2) != len(tuples) {
				t.Fatalf("batch round trip: (%q,%q,%d) -> (%q,%q,%d) (%v)",
					src, streamID, len(tuples), s2, st2, len(t2), err)
			}
			for i := range tuples {
				if t2[i].Root != tuples[i].Root || t2[i].ID != tuples[i].ID ||
					!valuesEqual(tuples[i].Values, t2[i].Values) {
					t.Fatalf("batch tuple %d round trip: %+v -> %+v", i, tuples[i], t2[i])
				}
			}
		}
	})
}
