package stream

import (
	"fmt"
	"time"

	"tencentrec/internal/obsv"
)

// SpoutFactory creates fresh spout instances. The engine calls it once per
// task at startup (and BoltFactory once per task of each generation a
// Rebalance spawns), so instances must not share mutable state through
// the factory's closure unless that state is itself safe to share.
type SpoutFactory func() Spout

// BoltFactory creates fresh bolt instances; see SpoutFactory.
type BoltFactory func() Bolt

// subscription is one inbound edge of a bolt.
type subscription struct {
	source string // upstream component name
	stream string // upstream stream id
	group  Grouping
}

// spoutDecl is a spout registered with a builder.
type spoutDecl struct {
	name        string
	factory     SpoutFactory
	parallelism int
	outputs     map[string]Fields
}

// boltDecl is a bolt registered with a builder.
type boltDecl struct {
	name        string
	factory     BoltFactory
	parallelism int
	outputs     map[string]Fields
	inputs      []subscription
	tick        time.Duration
}

// BoltDeclarer configures the subscriptions of a bolt being registered,
// in the style of Storm's fluent topology builder.
type BoltDeclarer struct {
	b *boltDecl
}

// Shuffle subscribes the bolt to the source's default stream with shuffle
// grouping.
func (d *BoltDeclarer) Shuffle(source string) *BoltDeclarer {
	return d.add(source, DefaultStream, Grouping{Kind: ShuffleGrouping})
}

// On subscribes with an explicit grouping and stream, for data-driven
// topology construction (Graph.Build).
func (d *BoltDeclarer) On(source, stream string, g Grouping) *BoltDeclarer {
	return d.add(source, stream, g)
}

// Tick requests engine-generated tick tuples on TickStream, driving work
// such as combiner flushes (§5.3). The interval is the longest the bolt goes
// without one: a tick also comes, no sooner than a sixteenth of the interval
// after the last, when the topology has gone idle over data that entered
// since (runtime.runTicker). A tick carries no notion of elapsed time.
func (d *BoltDeclarer) Tick(interval time.Duration) *BoltDeclarer {
	d.b.tick = interval
	return d
}

func (d *BoltDeclarer) add(source, stream string, g Grouping) *BoltDeclarer {
	d.b.inputs = append(d.b.inputs, subscription{source: source, stream: stream, group: g})
	return d
}

// TopologyBuilder assembles a Topology from spouts, bolts and groupings.
// It mirrors Storm's TopologyBuilder; a built topology is what the paper
// "submits to Storm for real-time computation" (§5.1).
type TopologyBuilder struct {
	name       string
	spouts     []*spoutDecl
	bolts      []*boltDecl
	maxBatch   int
	linger     time.Duration
	queueDepth int
	registry   *obsv.Registry
	tracer     *obsv.Tracer
	errs       []error
}

// NewTopologyBuilder returns an empty builder for a topology with the
// given name.
func NewTopologyBuilder(name string) *TopologyBuilder {
	return &TopologyBuilder{name: name}
}

// SetMaxBatch overrides the transport's per-destination flush threshold
// (DefaultMaxBatch). Smaller batches trade throughput for latency; 1
// reproduces the old tuple-at-a-time hand-off.
func (tb *TopologyBuilder) SetMaxBatch(n int) *TopologyBuilder {
	tb.maxBatch = n
	return tb
}

// SetLinger overrides the spout-side flush deadline (DefaultLinger) for
// buffers below the batch threshold.
func (tb *TopologyBuilder) SetLinger(d time.Duration) *TopologyBuilder {
	tb.linger = d
	return tb
}

// SetQueueDepth overrides every task's input-channel capacity, in
// batches (DefaultQueueDepth). Deeper queues absorb larger bursts before
// backpressure reaches the spouts; shallower queues bound memory and
// latency harder. Depth must be >= 1.
func (tb *TopologyBuilder) SetQueueDepth(depth int) *TopologyBuilder {
	if depth < 1 {
		tb.errs = append(tb.errs, fmt.Errorf("stream: SetQueueDepth: depth must be >= 1, got %d", depth))
		return tb
	}
	tb.queueDepth = depth
	return tb
}

// SetMetricsRegistry binds the topology's runtime metrics (per-component
// counters, execute-latency histograms, per-task queue-depth gauges) to
// an obsv Registry for Prometheus/JSON exposition. All bindings are
// exposition-time callbacks, so exposition adds no hot-path cost.
func (tb *TopologyBuilder) SetMetricsRegistry(r *obsv.Registry) *TopologyBuilder {
	tb.registry = r
	return tb
}

// SetTracer enables sampled tuple tracing: spout emissions are sampled
// at the tracer's rate, and every bolt that executes a tuple of a
// sampled lineage records a span (queue wait + execute time) into the
// trace. Unsampled emissions pay one atomic increment at the spout and
// a nil check per executed tuple.
func (tb *TopologyBuilder) SetTracer(tr *obsv.Tracer) *TopologyBuilder {
	tb.tracer = tr
	return tb
}

// SetSpout registers a spout with the given parallelism.
func (tb *TopologyBuilder) SetSpout(name string, factory SpoutFactory, parallelism int) *TopologyBuilder {
	tb.addSpout(name, factory, parallelism)
	return tb
}

func (tb *TopologyBuilder) addSpout(name string, factory SpoutFactory, parallelism int) *spoutDecl {
	if parallelism < 1 {
		parallelism = 1
	}
	d := &spoutDecl{name: name, factory: factory, parallelism: parallelism}
	if tb.lookup(name) {
		tb.errs = append(tb.errs, fmt.Errorf("stream: duplicate component name %q", name))
	} else {
		if od, ok := factory().(OutputDeclarer); ok {
			d.outputs = od.DeclareOutputFields()
		}
		tb.spouts = append(tb.spouts, d)
	}
	return d
}

// SetBolt registers a bolt with the given parallelism and returns a
// declarer for its subscriptions.
func (tb *TopologyBuilder) SetBolt(name string, factory BoltFactory, parallelism int) *BoltDeclarer {
	if parallelism < 1 {
		parallelism = 1
	}
	d := &boltDecl{name: name, factory: factory, parallelism: parallelism}
	if tb.lookup(name) {
		tb.errs = append(tb.errs, fmt.Errorf("stream: duplicate component name %q", name))
	} else {
		if od, ok := factory().(OutputDeclarer); ok {
			d.outputs = od.DeclareOutputFields()
		}
		tb.bolts = append(tb.bolts, d)
	}
	return &BoltDeclarer{b: d}
}

func (tb *TopologyBuilder) lookup(name string) bool {
	for _, s := range tb.spouts {
		if s.name == name {
			return true
		}
	}
	for _, b := range tb.bolts {
		if b.name == name {
			return true
		}
	}
	return false
}

// Build validates the wiring and returns a runnable Topology.
//
// Validation checks that every subscription references an existing
// component and a stream that component declares, and that fields-grouping
// keys exist in the subscribed stream's fields.
func (tb *TopologyBuilder) Build() (*Topology, error) {
	if len(tb.errs) > 0 {
		return nil, tb.errs[0]
	}
	if len(tb.spouts) == 0 {
		return nil, fmt.Errorf("stream: topology %q has no spouts", tb.name)
	}
	outputs := make(map[string]map[string]Fields)
	for _, s := range tb.spouts {
		outputs[s.name] = s.outputs
	}
	for _, b := range tb.bolts {
		outputs[b.name] = b.outputs
	}
	for _, b := range tb.bolts {
		if len(b.inputs) == 0 {
			return nil, fmt.Errorf("stream: bolt %q has no inputs", b.name)
		}
		for _, in := range b.inputs {
			src, ok := outputs[in.source]
			if !ok {
				return nil, fmt.Errorf("stream: bolt %q subscribes to unknown component %q", b.name, in.source)
			}
			fields, ok := src[in.stream]
			if !ok {
				return nil, fmt.Errorf("stream: bolt %q subscribes to undeclared stream %q of %q", b.name, in.stream, in.source)
			}
			if in.group.Kind == FieldsGrouping {
				for _, f := range in.group.Fields {
					if fields.index(f) < 0 {
						return nil, fmt.Errorf("stream: bolt %q groups on field %q absent from %s/%s (fields %v)",
							b.name, f, in.source, in.stream, fields)
					}
				}
			}
		}
	}
	t := &Topology{
		Name:       tb.name,
		spouts:     tb.spouts,
		bolts:      tb.bolts,
		maxBatch:   tb.maxBatch,
		linger:     tb.linger,
		queueDepth: tb.queueDepth,
		registry:   tb.registry,
		tracer:     tb.tracer,
	}
	t.order = t.topoOrder()
	return t, nil
}

// topoOrder returns bolt names in topological order (sources first).
// Cycles fall back to registration order for the strongly connected part.
func (t *Topology) topoOrder() []string {
	indeg := make(map[string]int, len(t.bolts))
	adj := make(map[string][]string)
	for _, b := range t.bolts {
		indeg[b.name] = 0
	}
	for _, b := range t.bolts {
		seen := make(map[string]bool)
		for _, in := range b.inputs {
			if _, isBolt := indeg[in.source]; isBolt && !seen[in.source] {
				adj[in.source] = append(adj[in.source], b.name)
				indeg[b.name]++
				seen[in.source] = true
			}
		}
	}
	var order []string
	var queue []string
	for _, b := range t.bolts { // registration order for determinism
		if indeg[b.name] == 0 {
			queue = append(queue, b.name)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, m := range adj[n] {
			indeg[m]--
			if indeg[m] == 0 {
				queue = append(queue, m)
			}
		}
	}
	if len(order) < len(t.bolts) { // cycle: append the rest in registration order
		inOrder := make(map[string]bool, len(order))
		for _, n := range order {
			inOrder[n] = true
		}
		for _, b := range t.bolts {
			if !inOrder[b.name] {
				order = append(order, b.name)
			}
		}
	}
	return order
}
