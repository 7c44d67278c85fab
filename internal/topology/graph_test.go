package topology

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"tencentrec/internal/stream"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fig6-graphs.golden from this tree")

// listing prints what the engine was given for a topology: components in
// registration order, parallelism, declared outputs, tick and
// subscriptions.
func listing(t *testing.T, topo *stream.Topology) string {
	t.Helper()
	g := topo.Graph()
	var b strings.Builder
	var names []string
	for _, c := range g.Spouts {
		names = append(names, c.Name)
		fmt.Fprintf(&b, "  spout %s x%d outputs %v\n", c.Name, c.Parallelism, c.Outputs)
	}
	for _, c := range g.Bolts {
		names = append(names, c.Name)
		fmt.Fprintf(&b, "  bolt %s x%d tick %v outputs %v\n", c.Name, c.Parallelism,
			time.Duration(c.TickMS*float64(time.Millisecond)), c.Outputs)
		for _, in := range c.Inputs {
			fmt.Fprintf(&b, "    <- %s/%s %s %v\n", in.Source, in.Stream, in.Grouping, in.Fields)
		}
	}
	if got := topo.Components(); !reflect.DeepEqual(got, names) {
		t.Fatalf("Components() = %v, Graph() lists %v", got, names)
	}
	return b.String()
}

// TestBuilderGraphsMatchGolden holds the topology Builder makes for every
// Features combination the tests build — component names, registration
// order, parallelism, ticks, subscriptions — to the listing taken from the
// tree whose Builder wired the fluent TopologyBuilder by hand.
func TestBuilderGraphsMatchGolden(t *testing.T) {
	par := Parallelism{Spout: 2, Pretreatment: 2, UserHistory: 3, ItemCount: 2, PairCount: 4, Storage: 2, DB: 2, AR: 3, CB: 2, Ctr: 2}
	flush := Params{FlushInterval: 20 * time.Millisecond}
	cases := []struct {
		name string
		f    Features
		p    Params
		par  Parallelism
		feed bool
	}{
		{"default", Features{CF: true}, Params{}, Parallelism{}, false},
		{"cf-parallel", Features{CF: true}, flush, par, false},
		{"cf-filter", Features{CF: true}, Params{Filter: func(string) bool { return true }}, par, false},
		{"none", Features{}, flush, Parallelism{}, false},
		{"ar", Features{AR: true}, Params{FlushInterval: time.Hour}, par, false},
		{"cb", Features{CB: true}, flush, par, false},
		{"cb-feed", Features{CB: true}, flush, par, true},
		{"ctr", Features{Ctr: true}, flush, par, false},
		{"cf-cb-ctr", Features{CF: true, CB: true, Ctr: true}, flush, Parallelism{}, true},
		{"all", Features{CF: true, AR: true, CB: true, Ctr: true}, Params{FlushInterval: 1500 * time.Microsecond}, par, true},
	}
	var got strings.Builder
	for _, c := range cases {
		b := NewBuilder(c.name, NewSliceSpout(nil), NewMemState(), c.p).WithFeatures(c.f).WithParallelism(c.par)
		if c.feed {
			b.WithItemFeed(NewItemFeedSpout(nil))
		}
		topo, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&got, "%s\n%s", c.name, listing(t, topo))
	}
	const path = "testdata/fig6-graphs.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("Builder's topologies differ from %s:\n%s", path, got.String())
	}
}

// TestXMLAndBuilderDescribeOneGraph: testdata/cf-topology.xml is the CF
// application written in Fig. 7's format, and it decodes to the graph
// Builder emits for Features{CF: true} — same components, classes and
// subscriptions — apart from what the file chooses for itself:
// parallelism, tick, declaration order and the spout's output override.
func TestXMLAndBuilderDescribeOneGraph(t *testing.T) {
	f, err := os.Open("testdata/cf-topology.xml")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fromXML, err := DecodeXML(f)
	if err != nil {
		t.Fatal(err)
	}
	fromBuilder := NewBuilder("cf-full", NewSliceSpout(nil), NewMemState(), Params{}).graph()
	shape := func(g stream.Graph) map[string]stream.ComponentSpec {
		out := map[string]stream.ComponentSpec{}
		for _, c := range append(append([]stream.ComponentSpec(nil), g.Spouts...), g.Bolts...) {
			out[c.Name] = stream.ComponentSpec{Name: c.Name, Kind: c.Kind, Inputs: c.Inputs}
		}
		return out
	}
	if fromXML.Name != fromBuilder.Name {
		t.Errorf("names: xml %q, builder %q", fromXML.Name, fromBuilder.Name)
	}
	if x, b := shape(fromXML), shape(fromBuilder); !reflect.DeepEqual(x, b) {
		t.Errorf("cf-topology.xml and Builder describe different graphs:\nxml     %+v\nbuilder %+v", x, b)
	}
}
