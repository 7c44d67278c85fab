package cluster

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"reflect"
	"testing"

	"tencentrec/internal/stream"
	"tencentrec/internal/topology"
)

// FuzzSpec feeds the same bytes to the two front ends that read a topology
// description a person wrote: Fig. 7's XML (topology.DecodeXML) and the
// cluster's JSON (ParseSpec). Properties: an error or a spec, never a
// panic; an accepted spec is named and every component has a name and at
// least one task; re-marshalled to JSON it parses back to the same JSON
// and builds the same topology (names, order, parallelism, outputs,
// ticks, subscriptions).
func FuzzSpec(f *testing.F) {
	// One registry for both front ends: the Fig. 6 units join the
	// workload kinds, as in a cluster that runs production units.
	maps.Copy(Kinds.Bolts, topology.NewRegistry(topology.NewMemState(), topology.Params{}).Bolts)
	Kinds.Spouts["ActionSpout"] = topology.NewSliceSpout(nil)
	Kinds.Spouts["Spout"] = topology.NewSliceSpout(nil)

	for _, path := range []string{"../topology/testdata/cf-topology.xml", "../../testdata/ctr-topology.xml"} {
		seed, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`<topology name="t"><spout class="ActionSpout"/><bolts><bolt name="b" class="Pretreatment"><grouping/></bolt></bolts></topology>`))
	f.Add([]byte(`<topology name="t"><spout name="s" class="ActionSpout" parallelism="-3"/><bolts><bolt name="b" class="ItemCount"><grouping type="field"><fields>item</fields><stream_id>item_delta</stream_id></grouping><tick_seconds>1e300</tick_seconds></bolt></bolts></topology>`))
	soak, err := json.Marshal(soakSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(soak)
	f.Add([]byte(`{"name": "demo", "workers": 2, "acking": true, "ack_timeout_ms": 5000, "assign": {"count": 1},
		"spouts": [{"name": "actions", "kind": "actions", "params": {"count": "10"}, "outputs": {"default": ["user", "item", "weight", "msgid"]}}],
		"bolts": [{"name": "count", "kind": "count", "parallelism": 2, "tick_ms": 0.5, "params": {},
			"inputs": [{"source": "actions", "stream": "default", "grouping": "fields", "fields": ["item"]}]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var accepted []*Spec
		if g, err := topology.DecodeXML(bytes.NewReader(data)); err == nil {
			if s := (&Spec{Name: g.Name, Spouts: g.Spouts, Bolts: g.Bolts}); s.Validate() == nil {
				accepted = append(accepted, s)
			}
		}
		if s, err := ParseSpec(data); err == nil {
			accepted = append(accepted, s)
		}
		for _, s := range accepted {
			topo, err := s.build()
			if err != nil {
				t.Fatalf("accepted spec does not build: %v", err)
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
			out, err := json.Marshal(s)
			if err != nil {
				t.Fatalf("accepted spec does not marshal: %v", err)
			}
			again, err := ParseSpec(out)
			if err != nil {
				t.Fatalf("re-marshalled spec %s rejected: %v", out, err)
			}
			if out2, _ := json.Marshal(again); !bytes.Equal(out, out2) {
				t.Fatalf("spec %s re-parses as %s", out, out2)
			}
			topo2, err := again.build()
			if err != nil || !reflect.DeepEqual(topo.Graph(), topo2.Graph()) {
				t.Fatalf("spec %s builds %+v, re-parsed it builds %+v (%v)", out, topo.Graph(), topo2, err)
			}
		}
	})
}

// FuzzWireFrame feeds arbitrary bytes through the framed read path and
// the per-type decoders: malformed input must error, never panic, never
// over-read. Anything that does decode must survive a re-encode/re-decode
// round trip unchanged (byte equality is deliberately not required —
// uvarints admit non-minimal encodings).
func FuzzWireFrame(f *testing.F) {
	// Seeds: one valid frame of each type, plus classic corruptions.
	var seed bytes.Buffer
	_ = WriteFrame(&seed, EncodeHello(nil, Hello{Cluster: "c", Worker: 1, Incarnation: 2}))
	f.Add(append([]byte(nil), seed.Bytes()...))
	seed.Reset()
	_ = WriteFrame(&seed, EncodeBatch(nil, "spout", "default", []WireTuple{
		{Root: 3, ID: 4, Values: stream.Values{"u1", int64(9), 1.5, true, nil, []byte{7}}},
		{Root: 3, ID: 5, Values: stream.Values{stream.Run{{Key: "i1\x1fi2", Num: 0.25}, {Key: "i1", Str: "i2", Num: 0.5}}, int64(2)}},
	}))
	f.Add(append([]byte(nil), seed.Bytes()...))
	f.Add(append([]byte(nil), seed.Bytes()[:seed.Len()-3]...)) // torn tail
	seed.Reset()
	_ = WriteFrame(&seed, EncodeAcks(nil, []stream.AckUpdate{{Root: 1, Xor: 2}, {Fail: true, Root: 3}}))
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
			switch payload[0] {
			case FrameHello:
				h, err := DecodeHello(payload)
				if err != nil {
					continue
				}
				h2, err := DecodeHello(EncodeHello(nil, h))
				if err != nil || h2 != h {
					t.Fatalf("hello round trip: %+v -> %+v (%v)", h, h2, err)
				}
			case FrameBatch:
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
			case FrameAcks:
				acks, err := DecodeAcks(payload, nil)
				if err != nil {
					continue
				}
				a2, err := DecodeAcks(EncodeAcks(nil, acks), nil)
				if err != nil || len(a2) != len(acks) {
					t.Fatalf("acks round trip: %d -> %d (%v)", len(acks), len(a2), err)
				}
				for i := range acks {
					if a2[i] != acks[i] {
						t.Fatalf("ack %d round trip: %+v -> %+v", i, acks[i], a2[i])
					}
				}
			}
		}
	})
}
