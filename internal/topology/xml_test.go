package topology

import (
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"tencentrec/internal/ctr"
	"tencentrec/internal/stream"
)

// fig7XML is the paper's example: a situational CTR topology with one
// spout and four bolts ("An Example XML File and Storm Topology").
const fig7XML = `
<topology name="cf-test">
  <spout name="spout" class="ActionSpout">
    <output_fields>
      <stream_id>default</stream_id>
      <fields>raw</fields>
    </output_fields>
  </spout>
  <bolts>
    <bolt name="pretreatment" class="Pretreatment" parallelism="2">
      <grouping type="shuffle">
        <stream_id>default</stream_id>
      </grouping>
    </bolt>
    <bolt name="ctrStore" class="CtrStore" parallelism="2">
      <grouping type="field">
        <fields>item</fields>
        <stream_id>ad_event</stream_id>
      </grouping>
    </bolt>
    <bolt name="ctrBolt" class="CtrBolt" parallelism="2">
      <grouping type="field">
        <fields>sit</fields>
        <stream_id>ctr_cell</stream_id>
      </grouping>
    </bolt>
    <bolt name="resultStorage" class="ResultStorage">
      <grouping type="field">
        <source>pretreatment</source>
        <fields>user</fields>
        <stream_id>user_action</stream_id>
      </grouping>
    </bolt>
  </bolts>
</topology>`

func fig7Actions() []RawAction {
	var out []RawAction
	for i := 0; i < 30; i++ {
		out = append(out, RawAction{
			User: "u", Item: "ad-1", Action: "impression",
			Gender: "m", Age: "20-30", Region: "beijing",
			TS: t0.Add(time.Duration(i) * time.Second).UnixNano(),
		})
		if i < 15 {
			out = append(out, RawAction{
				User: "u", Item: "ad-1", Action: "ad_click",
				Gender: "m", Age: "20-30", Region: "beijing",
				TS: t0.Add(time.Duration(i) * time.Second).UnixNano(),
			})
		}
	}
	return out
}

func TestLoadXMLBuildsFig7Topology(t *testing.T) {
	st := NewMemState()
	p := Params{WindowSessions: -1}
	reg := NewRegistry(st, p)
	reg.Spouts["ActionSpout"] = NewSliceSpout(fig7Actions())

	topo, err := LoadXML(strings.NewReader(fig7XML), reg)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Name != "cf-test" {
		t.Fatalf("name = %q", topo.Name)
	}
	comps := topo.Components()
	if len(comps) != 5 {
		t.Fatalf("components = %v, want 1 spout + 4 bolts", comps)
	}
	if topo.Parallelism("ctrStore") != 2 || topo.Parallelism("resultStorage") != 1 {
		t.Fatalf("parallelism not honoured")
	}
	if _, err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The CTR chain must have produced a ranking.
	srv := NewServing(st, p)
	top, err := srv.TopAds(ctr.Context{Gender: "m", AgeGroup: "20-30", Region: "beijing"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].Item != "ad-1" {
		t.Fatalf("TopAds after XML topology run = %v", top)
	}
}

func TestLoadXMLErrors(t *testing.T) {
	st := NewMemState()
	reg := NewRegistry(st, Params{})
	reg.Spouts["ActionSpout"] = NewSliceSpout(nil)
	cases := []struct {
		name, xml string
	}{
		{"malformed", "<topology"},
		{"no name", `<topology><spout name="s" class="ActionSpout"/><bolts/></topology>`},
		{"unknown spout class", `<topology name="t"><spout name="s" class="Nope"/><bolts/></topology>`},
		{"unknown bolt class", `<topology name="t"><spout name="s" class="ActionSpout"/><bolts><bolt name="b" class="Nope"><grouping type="shuffle"/></bolt></bolts></topology>`},
		{"no groupings", `<topology name="t"><spout name="s" class="ActionSpout"/><bolts><bolt name="b" class="Pretreatment"/></bolts></topology>`},
		{"bad grouping type", `<topology name="t"><spout name="s" class="ActionSpout"/><bolts><bolt name="b" class="Pretreatment"><grouping type="psychic"/></bolt></bolts></topology>`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := LoadXML(strings.NewReader(c.xml), reg); err == nil {
				t.Fatal("LoadXML succeeded, want error")
			}
		})
	}
}

// ctrChainXML is Fig. 7's spout and first two bolts, without the spout's
// <output_fields>: the spout's outputs are its class's declaration.
const ctrChainXML = `
<topology name="ctr-chain">
  <spout name="spout" class="ActionSpout"/>
  <bolts>
    <bolt name="pretreatment" class="Pretreatment">
      <grouping type="shuffle"/>
    </bolt>
    <bolt name="ctrStore" class="CtrStore">
      <grouping type="field">
        <fields>item</fields>
        <stream_id>ad_event</stream_id>
      </grouping>
    </bolt>
  </bolts>
</topology>`

// TestOutputFieldsFromKind: the outputs a loaded topology reports are its
// classes' declarations, or the description's outputs in their place; a
// subscription to a stream the replacement no longer declares is refused
// with the whole graph in view.
func TestOutputFieldsFromKind(t *testing.T) {
	reg := NewRegistry(NewMemState(), Params{})
	reg.Spouts["ActionSpout"] = NewSliceSpout(nil)
	g, err := DecodeXML(strings.NewReader(ctrChainXML))
	if err != nil {
		t.Fatal(err)
	}
	replaced := map[string]stream.Fields{StreamAdEvent: {"item"}}
	g.Bolts[1].Outputs = map[string]stream.Fields{"side": {"item"}}
	topo, err := g.Build(stream.NewTopologyBuilder(g.Name), reg)
	if err != nil {
		t.Fatal(err)
	}
	built := topo.Graph()
	if got, want := built.Spouts[0].Outputs, map[string]stream.Fields{stream.DefaultStream: rawFields}; !reflect.DeepEqual(got, want) {
		t.Errorf("outputs of spout = %v, want its class's %v", got, want)
	}
	if got, want := built.Bolts[0].Outputs, (&PretreatmentBolt{}).DeclareOutputFields(); !reflect.DeepEqual(got, want) {
		t.Errorf("outputs of pretreatment = %v, want its class's %v", got, want)
	}
	if got := built.Bolts[1].Outputs; !reflect.DeepEqual(got, g.Bolts[1].Outputs) {
		t.Errorf("outputs of ctrStore = %v, want the description's %v", got, g.Bolts[1].Outputs)
	}
	// Replaced, pretreatment keeps ad_event but no longer declares
	// user_action; a bolt subscribing to it is refused.
	g.Bolts[0].Outputs = replaced
	g.Bolts = append(g.Bolts, stream.ComponentSpec{Name: "history", Kind: "UserHistory",
		Inputs: []stream.InputSpec{{Source: "pretreatment", Stream: StreamUserAction, Grouping: "field", Fields: stream.Fields{"user"}}}})
	if _, err := g.Build(stream.NewTopologyBuilder(g.Name), reg); err == nil || !strings.Contains(err.Error(), "undeclared stream") {
		t.Errorf("Build = %v, want an undeclared-stream error", err)
	}
}

// TestSubmitRejectsAbsentGroupingField: a field grouping on a field the
// source stream does not declare is the stream builder's to refuse, and
// loading a topology description asks it, so no runnable topology comes
// back.
func TestSubmitRejectsAbsentGroupingField(t *testing.T) {
	reg := NewRegistry(NewMemState(), Params{})
	reg.Spouts["ActionSpout"] = NewSliceSpout(nil)
	xml := strings.Replace(ctrChainXML, "<fields>item</fields>", "<fields>nope</fields>", 1)
	topo, err := LoadXML(strings.NewReader(xml), reg)
	if err == nil || !strings.Contains(err.Error(), `groups on field "nope" absent from pretreatment/ad_event`) {
		t.Errorf("LoadXML = %v, want the stream builder's message", err)
	}
	if topo != nil {
		t.Error("LoadXML returned a topology that could be run")
	}
}

func TestSplitFields(t *testing.T) {
	got := splitFields("user, item, action")
	want := stream.Fields{"user", "item", "action"}
	if len(got) != 3 || got[0] != want[0] || got[2] != want[2] {
		t.Fatalf("splitFields = %v", got)
	}
	if out := splitFields(" "); len(out) != 0 {
		t.Fatalf("splitFields(blank) = %v", out)
	}
}

func TestLoadXMLFullCFTopologyEndToEnd(t *testing.T) {
	// The complete Fig. 6 CF wiring expressed in Fig. 7's XML format:
	// loading it and running real actions through it must produce the
	// same counters as the library engine.
	f, err := os.Open("testdata/cf-topology.xml")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	actions := genActions(71, 1000, 25, 20)
	st := NewMemState()
	p := Params{FlushInterval: time.Hour}
	reg := NewRegistry(st, p)
	reg.Spouts["ActionSpout"] = NewSliceSpout(actions)
	topo, err := LoadXML(f, reg)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Parallelism("userHistory") != 3 {
		t.Fatalf("parallelism not applied: %d", topo.Parallelism("userHistory"))
	}
	if _, err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	cf := libEngine(p.withDefaults(), actions)
	now := time.Unix(0, actions[len(actions)-1].TS)
	for i := 0; i < 20; i++ {
		item := fmt.Sprintf("i%d", i)
		got := readStateCounter(t, st, prefixItemCount+item, 0, 0)
		want := cf.ItemCount(item, now)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("XML topology itemCount(%s) = %v, library %v", item, got, want)
		}
	}
	srv := NewServing(st, p)
	list, err := srv.SimilarItems("i0", 3)
	if err != nil || len(list) == 0 {
		t.Fatalf("XML topology produced no similar lists: %v %v", list, err)
	}
}
