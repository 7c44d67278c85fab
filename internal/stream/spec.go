package stream

import (
	"fmt"
	"math"
	"time"
)

// Graph is a topology as plain data: which spouts and bolts it needs, by
// class name, and the ways to compose them (§5.1, Fig. 7). Every
// description of a topology in this tree — the paper's XML file, the
// Fig. 6 builder's Features — is a front end that produces a Graph;
// Build is the one place a Graph becomes a Topology.
type Graph struct {
	Name   string
	Spouts []ComponentSpec
	Bolts  []ComponentSpec
}

// ComponentSpec declares one spout or bolt.
type ComponentSpec struct {
	Name string
	// Kind is the component's class: the name a Registry resolves (the
	// class attribute of Fig. 7).
	Kind        string
	Parallelism int
	// Outputs maps stream id to field names. When present it replaces
	// what the class declares through OutputDeclarer.
	Outputs map[string]Fields
	// TickMS, for bolts, requests engine tick tuples at this interval, in
	// milliseconds.
	TickMS float64
	// Inputs, for bolts, subscribe to upstream streams.
	Inputs []InputSpec
}

// InputSpec is one subscription of a bolt.
type InputSpec struct {
	Source string
	// Stream defaults to DefaultStream.
	Stream string
	// Grouping is a name ParseGrouping accepts; Fields are its keys.
	Grouping string
	Fields   Fields
}

// StreamID returns the subscribed stream with the default filled in.
func (in InputSpec) StreamID() string {
	if in.Stream == "" {
		return DefaultStream
	}
	return in.Stream
}

// Registry resolves the class names of a Graph to component factories.
type Registry struct {
	Spouts map[string]SpoutFactory
	Bolts  map[string]BoltFactory
}

// maxTickMS is the largest TickMS a time.Duration holds.
const maxTickMS = float64(math.MaxInt64 / int64(time.Millisecond))

// Build registers g's components on tb, resolving classes through reg, and
// builds the topology. It checks what only the data can get wrong (a
// missing name, an unknown class, a spout with inputs, a grouping name, a
// tick no Duration holds); duplicate names, bolts without inputs, unknown
// sources, undeclared streams and absent grouping fields are
// TopologyBuilder.Build's to reject, as for a hand-wired topology.
func (g Graph) Build(tb *TopologyBuilder, reg *Registry) (*Topology, error) {
	if g.Name == "" {
		return nil, fmt.Errorf("stream: topology needs a name")
	}
	for i := range g.Spouts {
		c := &g.Spouts[i]
		factory := reg.Spouts[c.Kind]
		if err := c.check("spout", i, factory != nil); err != nil {
			return nil, err
		}
		if len(c.Inputs) > 0 || c.TickMS != 0 {
			return nil, fmt.Errorf("stream: spout %q cannot have inputs or a tick", c.Name)
		}
		d := tb.addSpout(c.Name, factory, c.Parallelism)
		if len(c.Outputs) > 0 {
			d.outputs = c.Outputs
		}
	}
	for i := range g.Bolts {
		c := &g.Bolts[i]
		factory := reg.Bolts[c.Kind]
		if err := c.check("bolt", i, factory != nil); err != nil {
			return nil, err
		}
		if !(c.TickMS >= 0 && c.TickMS <= maxTickMS) {
			return nil, fmt.Errorf("stream: bolt %q has tick_ms %v out of range", c.Name, c.TickMS)
		}
		d := tb.SetBolt(c.Name, factory, c.Parallelism)
		if len(c.Outputs) > 0 {
			d.b.outputs = c.Outputs
		}
		for _, in := range c.Inputs {
			grouping, err := ParseGrouping(in.Grouping, in.Fields)
			if err != nil {
				return nil, fmt.Errorf("stream: bolt %q, input %q: %w", c.Name, in.Source, err)
			}
			d.On(in.Source, in.StreamID(), grouping)
		}
		d.Tick(time.Duration(math.Round(c.TickMS * float64(time.Millisecond))))
	}
	return tb.Build()
}

// check rejects the i-th spout or bolt when it has no name or its class
// is not in the registry.
func (c *ComponentSpec) check(role string, i int, known bool) error {
	switch {
	case c.Name == "":
		return fmt.Errorf("stream: %s %d of class %q has no name", role, i, c.Kind)
	case !known:
		return fmt.Errorf("stream: %s %q has unknown class %q", role, c.Name, c.Kind)
	}
	return nil
}

// Graph describes the built topology as data: every component's name,
// parallelism, declared outputs, tick and subscriptions, in registration
// order. Kind is empty — a Topology holds factories, not class names.
func (t *Topology) Graph() Graph {
	g := Graph{Name: t.Name}
	for _, s := range t.spouts {
		g.Spouts = append(g.Spouts, ComponentSpec{Name: s.name, Parallelism: s.parallelism, Outputs: s.outputs})
	}
	for _, b := range t.bolts {
		c := ComponentSpec{
			Name: b.name, Parallelism: b.parallelism, Outputs: b.outputs,
			TickMS: float64(b.tick) / float64(time.Millisecond),
		}
		for _, in := range b.inputs {
			c.Inputs = append(c.Inputs, InputSpec{
				Source: in.source, Stream: in.stream,
				Grouping: in.group.Kind.String(), Fields: in.group.Fields,
			})
		}
		g.Bolts = append(g.Bolts, c)
	}
	return g
}
