package topology

import (
	"bytes"
	"os"
	"slices"
	"testing"
)

// FuzzLoadXML feeds arbitrary bytes to the Fig. 7 topology loader, which
// reads a file an operator wrote. Property: an error, or a topology that
// validates again (named, every component named with parallelism >= 1,
// and the same bytes load to the same components); never a panic.
func FuzzLoadXML(f *testing.F) {
	for _, path := range []string{"testdata/cf-topology.xml", "../../testdata/ctr-topology.xml"} {
		seed, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(fig7XML))
	f.Add([]byte(`<topology name="t"><spout class="ActionSpout"/><bolts><bolt name="b" class="Pretreatment"><grouping/></bolt></bolts></topology>`))
	f.Add([]byte(`<topology name="t"><spout name="s" class="ActionSpout" parallelism="-3"/><bolts><bolt name="b" class="ItemCount"><grouping type="field"><fields>item</fields><stream_id>item_delta</stream_id></grouping><tick_seconds>1e300</tick_seconds></bolt></bolts></topology>`))

	// load returns the component names of a topology LoadXML accepted.
	load := func(t *testing.T, data []byte) ([]string, error) {
		reg := NewRegistry(NewMemState(), Params{})
		reg.Spouts["ActionSpout"] = NewSliceSpout(nil)
		reg.Spouts["Spout"] = NewSliceSpout(nil)
		topo, err := LoadXML(bytes.NewReader(data), reg)
		if err != nil {
			return nil, err
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
		return comps, nil
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		comps, err := load(t, data)
		if err != nil {
			return
		}
		again, err := load(t, data)
		if err != nil || !slices.Equal(comps, again) {
			t.Fatalf("second load gave %v, %v; first gave %v", again, err, comps)
		}
	})
}

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
