package topology

import (
	"bytes"
	"os"
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

// FuzzDecodeXML feeds arbitrary bytes to the Fig. 7 reader, the front end
// that reads a topology description a person wrote, and builds what it
// accepts against the production units. Properties: an error or a
// topology, never a panic; an accepted topology is named and every
// component has a name and at least one task.
func FuzzDecodeXML(f *testing.F) {
	reg := NewRegistry(NewMemState(), Params{})
	reg.Spouts["ActionSpout"] = NewSliceSpout(nil)
	reg.Spouts["Spout"] = NewSliceSpout(nil)

	for _, path := range []string{"testdata/cf-topology.xml", "../../testdata/ctr-topology.xml"} {
		seed, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`<topology name="t"><spout class="ActionSpout"/><bolts><bolt name="b" class="Pretreatment"><grouping/></bolt></bolts></topology>`))
	f.Add([]byte(`<topology name="t"><spout name="s" class="ActionSpout" parallelism="-3"/><bolts><bolt name="b" class="ItemCount"><grouping type="field"><fields>item</fields><stream_id>item_delta</stream_id></grouping><tick_seconds>1e300</tick_seconds></bolt></bolts></topology>`))

	f.Fuzz(func(t *testing.T, data []byte) {
		topo, err := LoadXML(bytes.NewReader(data), reg)
		if err != nil {
			return
		}
		comps := topo.Components()
		if topo.Name == "" || len(comps) == 0 {
			t.Fatalf("accepted topology %q with components %v", topo.Name, comps)
		}
		for _, c := range comps {
			if c == "" || topo.Parallelism(c) < 1 {
				t.Fatalf("accepted component %q with %d tasks", c, topo.Parallelism(c))
			}
		}
	})
}
