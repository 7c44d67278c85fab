package topology

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"time"

	"tencentrec/internal/stream"
)

// The XML topology format of Fig. 7: "To deploy different topologies
// easily, we implement a module to generate Storm topologies from XML
// configuration files. The XML configuration file states which spouts and
// bolts it needs and the ways to compose them to construct topology. To
// generate topology for a specific application, we just need to rewrite
// the XML file."
//
// Extensions over the figure's fragment: an optional parallelism
// attribute per component, an optional <source> element per grouping
// (defaulting to the previously declared component, which is how the
// figure's linear ctr topology reads), and an optional <tick_seconds>
// per bolt for combiner flushing.

type xmlTopology struct {
	XMLName xml.Name   `xml:"topology"`
	Name    string     `xml:"name,attr"`
	Spouts  []xmlSpout `xml:"spout"`
	Bolts   []xmlBolt  `xml:"bolts>bolt"`
}

type xmlSpout struct {
	Name        string      `xml:"name,attr"`
	Class       string      `xml:"class,attr"`
	Parallelism int         `xml:"parallelism,attr"`
	Outputs     []xmlOutput `xml:"output_fields"`
}

type xmlOutput struct {
	StreamID string `xml:"stream_id"`
	Fields   string `xml:"fields"`
}

type xmlBolt struct {
	Name        string        `xml:"name,attr"`
	Class       string        `xml:"class,attr"`
	Parallelism int           `xml:"parallelism,attr"`
	TickSeconds float64       `xml:"tick_seconds"`
	Groupings   []xmlGrouping `xml:"grouping"`
}

type xmlGrouping struct {
	Type     string `xml:"type,attr"`
	Source   string `xml:"source"`
	StreamID string `xml:"stream_id"`
	Fields   string `xml:"fields"`
}

// Registry resolves XML class names to component factories. Build one
// with NewRegistry for the standard TencentRec units, then add
// application-specific classes.
type Registry struct {
	// Spouts maps class names to spout factories.
	Spouts map[string]stream.SpoutFactory
	// Bolts maps class names to bolt factories.
	Bolts map[string]stream.BoltFactory
	// Config is attached to the built topology, for application classes
	// that read TopologyContext.Config (the standard units need nothing
	// here: their factories hold the State).
	Config map[string]interface{}
}

// NewRegistry returns a registry pre-populated with the Fig. 6 units.
// The caller registers the application's spout classes.
func NewRegistry(st State, p Params) *Registry {
	p = p.withDefaults()
	return &Registry{
		Spouts: map[string]stream.SpoutFactory{},
		Bolts: map[string]stream.BoltFactory{
			"Pretreatment":  NewPretreatmentBolt(p),
			"UserHistory":   NewUserHistoryBolt(st, p),
			"ItemCount":     NewItemCountBolt(st, p),
			"PairCount":     NewPairCountBolt(st, p),
			"Filter":        NewFilterBolt(p),
			"ResultStorage": NewResultStorageBolt(st, p),
			"DBBolt":        NewDBBolt(st, p),
			"ARItemBolt":    NewARItemBolt(st, p),
			"ARBolt":        NewARBolt(st, p),
			"ARListBolt":    NewARListBolt(st, p),
			"ItemInfo":      NewItemInfoBolt(st, p),
			"CBBolt":        NewCBBolt(st, p),
			"CtrStore":      NewCtrStoreBolt(st, p),
			"CtrBolt":       NewCtrBolt(st, p),
		},
	}
}

// splitFields parses the comma-separated field list of Fig. 7's
// <fields>user, item, action</fields>.
func splitFields(s string) stream.Fields {
	var out stream.Fields
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}

// LoadXML parses an XML topology definition and builds it against the
// registry.
func LoadXML(r io.Reader, reg *Registry) (*stream.Topology, error) {
	var doc xmlTopology
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("topology: parse xml: %w", err)
	}
	if doc.Name == "" {
		return nil, fmt.Errorf("topology: xml topology has no name attribute")
	}
	tb := stream.NewTopologyBuilder(doc.Name)
	for k, v := range reg.Config {
		tb.SetConfig(k, v)
	}
	var prev string
	for _, sp := range doc.Spouts {
		if sp.Name == "" {
			return nil, fmt.Errorf("topology: spout of class %q has no name attribute", sp.Class)
		}
		factory, ok := reg.Spouts[sp.Class]
		if !ok {
			return nil, fmt.Errorf("topology: unknown spout class %q", sp.Class)
		}
		tb.SetSpout(sp.Name, factory, sp.Parallelism)
		if len(sp.Outputs) > 0 {
			outputs := make(map[string]stream.Fields, len(sp.Outputs))
			for _, o := range sp.Outputs {
				id := o.StreamID
				if id == "" {
					id = stream.DefaultStream
				}
				outputs[id] = splitFields(o.Fields)
			}
			tb.SetSpoutOutputs(sp.Name, outputs)
		}
		prev = sp.Name
	}
	for _, bl := range doc.Bolts {
		if bl.Name == "" {
			return nil, fmt.Errorf("topology: bolt of class %q has no name attribute", bl.Class)
		}
		factory, ok := reg.Bolts[bl.Class]
		if !ok {
			return nil, fmt.Errorf("topology: unknown bolt class %q", bl.Class)
		}
		d := tb.SetBolt(bl.Name, factory, bl.Parallelism)
		if len(bl.Groupings) == 0 {
			return nil, fmt.Errorf("topology: bolt %q has no groupings", bl.Name)
		}
		for _, g := range bl.Groupings {
			source := g.Source
			if source == "" {
				source = prev
			}
			streamID := g.StreamID
			if streamID == "" {
				streamID = stream.DefaultStream
			}
			var grouping stream.Grouping
			switch g.Type {
			case "field", "fields":
				grouping = stream.Grouping{Kind: stream.FieldsGrouping, Fields: splitFields(g.Fields)}
			case "shuffle", "":
				grouping = stream.Grouping{Kind: stream.ShuffleGrouping}
			case "global":
				grouping = stream.Grouping{Kind: stream.GlobalGrouping}
			case "all":
				grouping = stream.Grouping{Kind: stream.AllGrouping}
			default:
				return nil, fmt.Errorf("topology: bolt %q has unknown grouping type %q", bl.Name, g.Type)
			}
			d.On(source, streamID, grouping)
		}
		if bl.TickSeconds > 0 {
			d.Tick(time.Duration(bl.TickSeconds * float64(time.Second)))
		}
		prev = bl.Name
	}
	return tb.Build()
}
