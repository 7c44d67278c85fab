package topology

import (
	"bytes"
	"testing"
)

// FuzzDecodeAction feeds arbitrary bytes to the action-frame decoder,
// which reads what the TDAccess log hands back from disk. Properties: an
// error or an action, never a panic; an accepted frame is the one
// encoding of its action (it re-encodes to the same bytes); and a frame
// with anything after its last field is rejected.
func FuzzDecodeAction(f *testing.F) {
	for _, a := range []RawAction{
		{},
		{User: "u1", Item: "i1", Action: "click", TS: 1},
		{User: "user-00042", Item: "item-000777", Action: "purchase", TS: 1727400000123456789},
		{User: "x", Item: "ad-1", Action: "impression", TS: -5, Region: "beijing", Gender: "m", Age: "20-30", Position: "top"},
		{User: string(make([]byte, 200)), Item: "i", Action: "read", TS: 1 << 62},
	} {
		f.Add(EncodeAction(a))
	}
	f.Add([]byte(`{"user":"u1","item":"i1","action":"click","ts":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeAction(data)
		if err != nil {
			return
		}
		if again := EncodeAction(a); !bytes.Equal(again, data) {
			t.Fatalf("accepted frame %x re-encodes as %x", data, again)
		}
		if _, err := DecodeAction(append(data[:len(data):len(data)], 0)); err == nil {
			t.Fatalf("frame %x accepted with a trailing byte", data)
		}
	})
}
