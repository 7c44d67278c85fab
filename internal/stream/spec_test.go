package stream

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

func specRegistry() *Registry {
	sink, _, _ := newSink()
	return &Registry{
		Spouts: map[string]SpoutFactory{
			"seven": func() Spout { return &rangeSpout{n: 7} },
		},
		Bolts: map[string]BoltFactory{"sink": sink, "split": func() Bolt { return &splitBolt{} }},
	}
}

func specGraph() Graph {
	return Graph{
		Name:   "g",
		Spouts: []ComponentSpec{{Name: "s", Kind: "seven", Parallelism: 2}},
		Bolts: []ComponentSpec{
			{Name: "split", Kind: "split", Inputs: []InputSpec{{Source: "s"}}},
			{Name: "evens", Kind: "sink", Parallelism: 3, TickMS: 1.5,
				Inputs: []InputSpec{{Source: "split", Stream: "even", Grouping: "fields", Fields: Fields{"n"}}}},
			{Name: "both", Kind: "sink", Inputs: []InputSpec{
				{Source: "split", Stream: "odd"}, {Source: "split", Stream: "even", Grouping: "shuffle"}}},
		},
	}
}

// TestGraphBuildIsTheFluentBuilder: a Graph builds the topology the same
// calls on the fluent builder would, and the built topology describes
// itself back as that data with defaults filled in.
func TestGraphBuildIsTheFluentBuilder(t *testing.T) {
	reg := specRegistry()
	topo, err := specGraph().Build(NewTopologyBuilder("g"), reg)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTopologyBuilder("g")
	tb.SetSpout("s", func() Spout { return &rangeSpout{n: 7} }, 2)
	tb.SetBolt("split", func() Bolt { return &splitBolt{} }, 1).Shuffle("s")
	tb.SetBolt("evens", reg.Bolts["sink"], 3).On("split", "even", byFields("n")).Tick(1500000)
	tb.SetBolt("both", reg.Bolts["sink"], 1).On("split", "odd", Grouping{Kind: ShuffleGrouping}).On("split", "even", Grouping{Kind: ShuffleGrouping})
	byHand, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := topo.Graph(), byHand.Graph(); !reflect.DeepEqual(got, want) {
		t.Errorf("Graph.Build made\n%+v\nthe fluent calls make\n%+v", got, want)
	}
	// The class's factory made the spouts: two tasks of 7 tuples each.
	snap, err := topo.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Components["s"].Emitted; got != 14 {
		t.Errorf("spout emitted %d tuples, want 14", got)
	}
}

// TestGraphBuildOutputsReplaceTheDeclared: a component's Outputs, on a
// spout or a bolt, replace what its class declares; a component without
// them keeps the declaration; and a subscription to a stream the
// replacement no longer declares is refused.
func TestGraphBuildOutputsReplaceTheDeclared(t *testing.T) {
	g := specGraph()
	g.Spouts[0].Outputs = map[string]Fields{"renamed": {"n"}}
	if _, err := g.Build(NewTopologyBuilder("g"), specRegistry()); err == nil || !strings.Contains(err.Error(), `undeclared stream "default"`) {
		t.Fatalf("Build = %v, want split's subscription to s/default refused", err)
	}
	g.Bolts[0].Inputs[0].Stream = "renamed"
	g.Bolts[1].Outputs = map[string]Fields{"side": {"n"}}
	topo, err := g.Build(NewTopologyBuilder("g"), specRegistry())
	if err != nil {
		t.Fatal(err)
	}
	built := topo.Graph()
	if got := built.Spouts[0].Outputs; !reflect.DeepEqual(got, g.Spouts[0].Outputs) {
		t.Errorf("spout outputs = %v, want %v", got, g.Spouts[0].Outputs)
	}
	if got := built.Bolts[1].Outputs; !reflect.DeepEqual(got, g.Bolts[1].Outputs) {
		t.Errorf("evens outputs = %v, want %v", got, g.Bolts[1].Outputs)
	}
	if got, want := built.Bolts[0].Outputs, (&splitBolt{}).DeclareOutputFields(); !reflect.DeepEqual(got, want) {
		t.Errorf("split outputs = %v, want its declaration %v", got, want)
	}
}

func TestGraphBuildRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Graph)
		want string
	}{
		{"no name", func(g *Graph) { g.Name = "" }, "needs a name"},
		{"nameless spout", func(g *Graph) { g.Spouts[0].Name = "" }, "has no name"},
		{"nameless bolt", func(g *Graph) { g.Bolts[1].Name = "" }, "has no name"},
		{"unknown spout class", func(g *Graph) { g.Spouts[0].Kind = "sink" }, "unknown class"},
		{"unknown bolt class", func(g *Graph) { g.Bolts[0].Kind = "seven" }, "unknown class"},
		{"spout with inputs", func(g *Graph) { g.Spouts[0].Inputs = []InputSpec{{Source: "split"}} }, "cannot have inputs"},
		{"spout with tick", func(g *Graph) { g.Spouts[0].TickMS = 5 }, "cannot have inputs or a tick"},
		{"negative tick", func(g *Graph) { g.Bolts[0].TickMS = -1 }, "out of range"},
		{"tick past a Duration", func(g *Graph) { g.Bolts[0].TickMS = 1e300 }, "out of range"},
		{"unknown grouping", func(g *Graph) { g.Bolts[0].Inputs[0].Grouping = "sideways" }, "unknown grouping"},
		{"field grouping without fields", func(g *Graph) { g.Bolts[1].Inputs[0].Fields = nil }, "needs fields"},
		// The rest is the fluent builder's validation, reached through Build.
		{"absent grouping field", func(g *Graph) { g.Bolts[1].Inputs[0].Fields = Fields{"nope"} }, `groups on field "nope"`},
		{"duplicate name", func(g *Graph) { g.Bolts[2].Name = "s" }, "duplicate component"},
		{"no spouts", func(g *Graph) { g.Spouts = nil }, "no spouts"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := specGraph()
			c.mut(&g)
			if _, err := g.Build(NewTopologyBuilder(g.Name), specRegistry()); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Build = %v, want an error containing %q", err, c.want)
			}
		})
	}
}

func TestParseGroupingInvertsString(t *testing.T) {
	for _, k := range []GroupingKind{ShuffleGrouping, FieldsGrouping} {
		g, err := ParseGrouping(k.String(), Fields{"f"})
		if err != nil || g.Kind != k {
			t.Errorf("ParseGrouping(%q) = %+v, %v", k.String(), g, err)
		}
	}
}
