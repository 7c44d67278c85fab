package topology

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

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

// DecodeXML reads a Fig. 7 file into the graph it describes. A grouping
// without a <source> subscribes to the component declared before its
// bolt, which is how the figure's linear topology reads.
func DecodeXML(r io.Reader) (stream.Graph, error) {
	var doc xmlTopology
	if err := xml.NewDecoder(r).Decode(&doc); err != nil {
		return stream.Graph{}, fmt.Errorf("topology: parse xml: %w", err)
	}
	g := stream.Graph{Name: doc.Name}
	var prev string
	for _, sp := range doc.Spouts {
		c := stream.ComponentSpec{Name: sp.Name, Kind: sp.Class, Parallelism: sp.Parallelism}
		if len(sp.Outputs) > 0 {
			c.Outputs = make(map[string]stream.Fields, len(sp.Outputs))
		}
		for _, o := range sp.Outputs {
			id := o.StreamID
			if id == "" {
				id = stream.DefaultStream
			}
			c.Outputs[id] = splitFields(o.Fields)
		}
		g.Spouts = append(g.Spouts, c)
		prev = sp.Name
	}
	for _, bl := range doc.Bolts {
		c := stream.ComponentSpec{
			Name: bl.Name, Kind: bl.Class, Parallelism: bl.Parallelism,
			TickMS: bl.TickSeconds * 1000,
		}
		for _, gr := range bl.Groupings {
			source := gr.Source
			if source == "" {
				source = prev
			}
			c.Inputs = append(c.Inputs, stream.InputSpec{
				Source: source, Stream: gr.StreamID, Grouping: gr.Type, Fields: splitFields(gr.Fields),
			})
		}
		g.Bolts = append(g.Bolts, c)
		prev = bl.Name
	}
	return g, nil
}

// LoadXML decodes an XML topology definition and builds it against the
// registry.
func LoadXML(r io.Reader, reg *stream.Registry) (*stream.Topology, error) {
	g, err := DecodeXML(r)
	if err != nil {
		return nil, err
	}
	return g.Build(stream.NewTopologyBuilder(g.Name), reg)
}
