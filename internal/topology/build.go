package topology

import (
	"fmt"
	"time"

	"tencentrec/internal/obsv"
	"tencentrec/internal/stream"
)

// Unit names, matching the components of Fig. 6 and the XML class names
// of Fig. 7.
const (
	UnitSpout         = "spout"
	UnitItemFeed      = "itemFeed"
	UnitPretreatment  = "pretreatment"
	UnitUserHistory   = "userHistory"
	UnitItemCount     = "itemCount"
	UnitPairCount     = "pairCount"
	UnitFilter        = "filter"
	UnitResultStorage = "resultStorage"
	UnitDB            = "dbBolt"
	UnitARItem        = "arItemBolt"
	UnitAR            = "arBolt"
	UnitARList        = "arListBolt"
	UnitItemInfo      = "itemInfo"
	UnitCB            = "cbBolt"
	UnitCtrStore      = "ctrStore"
	UnitCtr           = "ctrBolt"
)

// Parallelism sets per-unit task counts; zero fields default to 1.
// The paper sets these manually per application (§7 lists automatic
// parallelism as future work).
type Parallelism struct {
	Spout, Pretreatment, UserHistory, ItemCount, PairCount,
	Storage, DB, AR, CB, Ctr int
}

// Features selects which algorithm chains a topology includes, the way
// each production application's XML names only the units it needs.
type Features struct {
	// CF enables the item-based CF chain (UserHistory → ItemCount /
	// PairCount → [Filter] → ResultStorage). UserHistory and the DB
	// chain are always present: DB complements every application (§6.2).
	CF bool
	// AR enables the association-rule chain.
	AR bool
	// CB enables the content-based chain; requires an item feed
	// (SetItemFeed or a live item_info stream).
	CB bool
	// Ctr enables the situational CTR chain.
	Ctr bool
}

// Builder assembles a TencentRec application topology.
type Builder struct {
	name     string
	spout    stream.SpoutFactory
	itemFeed stream.SpoutFactory
	state    State
	params   Params
	par      Parallelism
	feats    Features
	registry *obsv.Registry
	tracer   *obsv.Tracer
}

// NewBuilder starts a topology for one application.
func NewBuilder(name string, spout stream.SpoutFactory, st State, p Params) *Builder {
	return &Builder{
		name:   name,
		spout:  spout,
		state:  st,
		params: p.withDefaults(),
		feats:  Features{CF: true},
	}
}

// WithParallelism sets per-unit parallelism.
func (b *Builder) WithParallelism(par Parallelism) *Builder {
	b.par = par
	return b
}

// WithFeatures selects the algorithm chains.
func (b *Builder) WithFeatures(f Features) *Builder {
	b.feats = f
	return b
}

// WithItemFeed attaches an item-metadata spout for the CB chain.
func (b *Builder) WithItemFeed(feed stream.SpoutFactory) *Builder {
	b.itemFeed = feed
	return b
}

// WithObservability binds the topology's runtime metrics to a registry
// (Prometheus/JSON exposition of per-unit counters, execute-latency
// histograms and queue depths) and, when tracer is non-nil, samples
// tuple traces at the tracer's rate so the monitor can print per-stage
// latency waterfalls. Either argument may be nil to enable just the
// other.
func (b *Builder) WithObservability(r *obsv.Registry, tr *obsv.Tracer) *Builder {
	b.registry = r
	b.tracer = tr
	return b
}

// Class names of the application-specific spouts in the graph Builder
// emits; Fig. 7 files name their spout class the same way.
const (
	classActionSpout = "ActionSpout"
	classItemFeed    = "ItemFeed"
)

// NewRegistry returns a registry pre-populated with the Fig. 6 units.
// The caller registers the application's spout classes.
func NewRegistry(st State, p Params) *stream.Registry {
	return newRegistry(st, p.withDefaults(), true, new(obsv.Counter))
}

// newRegistry is the one list of production units: XML class name →
// constructor. ar has UserHistory emit the AR chain's streams; malformed
// counts the payloads Pretreatment drops.
func newRegistry(st State, p Params, ar bool, malformed *obsv.Counter) *stream.Registry {
	return &stream.Registry{Spouts: map[string]stream.SpoutFactory{}, Bolts: map[string]stream.BoltFactory{
		"Pretreatment":  newPretreatmentBolt(p, malformed),
		"UserHistory":   newUserHistoryBolt(st, p, ar),
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
	}}
}

// graph is the Fig. 6 wiring for the builder's features, parallelism and
// params, as data.
func (b *Builder) graph() stream.Graph {
	p, par := b.params, b.par
	g := stream.Graph{Name: b.name}
	bolt := func(name, class string, parallelism int, tick time.Duration, source, streamID string, key ...string) {
		in := stream.InputSpec{Source: source, Stream: streamID, Grouping: stream.ShuffleGrouping.String()}
		if len(key) > 0 {
			in.Grouping, in.Fields = stream.FieldsGrouping.String(), key
		}
		g.Bolts = append(g.Bolts, stream.ComponentSpec{
			Name: name, Kind: class, Parallelism: parallelism,
			TickMS: float64(tick) / float64(time.Millisecond),
			Inputs: []stream.InputSpec{in},
		})
	}

	g.Spouts = append(g.Spouts, stream.ComponentSpec{Name: UnitSpout, Kind: classActionSpout, Parallelism: par.Spout})
	bolt(UnitPretreatment, "Pretreatment", par.Pretreatment, 0, UnitSpout, stream.DefaultStream)

	// UserHistory and the DB complement run for every application.
	bolt(UnitUserHistory, "UserHistory", par.UserHistory, 0, UnitPretreatment, StreamUserAction, "user")
	bolt(UnitDB, "DBBolt", par.DB, p.FlushInterval, UnitUserHistory, StreamGroupDelta, "group")

	if b.feats.CF {
		bolt(UnitItemCount, "ItemCount", par.ItemCount, p.FlushInterval, UnitUserHistory, StreamItemDelta, "item")
		bolt(UnitPairCount, "PairCount", par.PairCount, p.FlushInterval, UnitUserHistory, StreamPairDelta, "pair")
		simSource := UnitPairCount
		if p.Filter != nil {
			bolt(UnitFilter, "Filter", par.Storage, 0, UnitPairCount, StreamSim)
			simSource = UnitFilter
		}
		bolt(UnitResultStorage, "ResultStorage", par.Storage, 0, simSource, StreamSim, "item")
	}

	if b.feats.AR {
		bolt(UnitARItem, "ARItemBolt", par.AR, 0, UnitUserHistory, StreamARItem, "item")
		bolt(UnitAR, "ARBolt", par.AR, p.FlushInterval, UnitUserHistory, StreamARPair, "pair")
		bolt(UnitARList, "ARListBolt", par.AR, 0, UnitAR, StreamSim, "item")
	}

	if b.feats.CB {
		if b.itemFeed != nil {
			g.Spouts = append(g.Spouts, stream.ComponentSpec{Name: UnitItemFeed, Kind: classItemFeed, Parallelism: 1})
			bolt(UnitItemInfo, "ItemInfo", par.CB, 0, UnitItemFeed, StreamItemInfo, "item")
		}
		bolt(UnitCB, "CBBolt", par.CB, 0, UnitPretreatment, StreamUserAction, "user")
	}

	if b.feats.Ctr {
		bolt(UnitCtrStore, "CtrStore", par.Ctr, 0, UnitPretreatment, StreamAdEvent, "item")
		bolt(UnitCtr, "CtrBolt", par.Ctr, 0, UnitCtrStore, "ctr_cell", "sit")
	}
	return g
}

// Build emits the Fig. 6 graph and builds it through the same registry
// and stream.Graph.Build a Fig. 7 file goes through.
func (b *Builder) Build() (*stream.Topology, error) {
	if b.state == nil {
		return nil, fmt.Errorf("topology: Builder requires a State")
	}
	g := b.graph()
	tb := stream.NewTopologyBuilder(b.name)
	if b.registry != nil {
		tb.SetMetricsRegistry(b.registry)
	}
	if b.tracer != nil {
		tb.SetTracer(b.tracer)
	}

	malformed := new(obsv.Counter)
	if b.registry != nil {
		malformed = b.registry.Counter("pretreatment_malformed_total",
			"Payloads Pretreatment dropped because they are not an action frame.")
	}
	reg := newRegistry(b.state, b.params, b.feats.AR, malformed)
	reg.Spouts[classActionSpout] = b.spout
	if b.itemFeed != nil {
		reg.Spouts[classItemFeed] = b.itemFeed
	}
	return g.Build(tb, reg)
}
