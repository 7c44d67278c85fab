package cluster

import (
	"fmt"
	"sort"
	"time"

	"tencentrec/internal/stream"
)

// Kinds resolves the kind names of a Spec: the same stream.Registry type
// a Fig. 7 file's classes resolve through. Because the supervisor and
// every worker run the same binary, a kind added at init time exists
// identically on both sides: the supervisor builds the whole graph with
// it to validate a spec, each worker its slice. It must hold the same
// kinds, making the same declared outputs from the same params, in both —
// fill it from init functions only. The names "__in" and "__out" are
// reserved for the proxies a worker adds to its own copy.
var Kinds = &stream.Registry{
	Spouts: map[string]stream.SpoutClass{},
	Bolts:  map[string]stream.BoltClass{},
}

// Spec is what a cluster is asked to run: a stream.Graph (the same data
// the Fig. 7 XML file and the Fig. 6 builder produce), the placement
// request, and the engine knobs that must agree across every worker. The
// supervisor builds it once to validate it and plans the component→worker
// assignment; every worker rebuilds its slice of the graph from the same
// Spec deterministically.
type Spec struct {
	Name string
	// Workers is the requested worker-process count. Spouts always land
	// on worker 0 (which hosts the lineage acker); bolts spread over the
	// remaining workers round-robin in topological order unless Assign
	// pins them. Clamped to 1+len(Bolts).
	Workers int
	// Assign optionally pins components to worker ids. Spouts may only be
	// pinned to 0.
	Assign map[string]int

	Acking       bool
	AckTimeoutMS int64

	Spouts []ComponentSpec
	Bolts  []ComponentSpec
}

// ComponentSpec and InputSpec are the graph's own types; Kind names a
// class of Kinds.
type (
	ComponentSpec = stream.ComponentSpec
	InputSpec     = stream.InputSpec
)

// graph is the topology description inside the spec.
func (s *Spec) graph() stream.Graph {
	return stream.Graph{Name: s.Name, Spouts: s.Spouts, Bolts: s.Bolts}
}

// ackTimeout returns the spec's ack timeout as a duration (0 = default).
func (s *Spec) ackTimeout() time.Duration { return time.Duration(s.AckTimeoutMS) * time.Millisecond }

// Validate builds the whole graph once against Kinds — so a spec is held
// to exactly the rules the stream builder enforces inside a worker, at
// submit time and with the whole graph in view — then checks the pins.
func (s *Spec) Validate() error {
	_, err := s.build()
	return err
}

// build is Validate, returning the whole graph as built.
func (s *Spec) build() (*stream.Topology, error) {
	topo, err := s.graph().Build(stream.NewTopologyBuilder(s.Name), Kinds)
	if err != nil {
		return nil, err
	}
	isSpout := make(map[string]bool, len(s.Spouts)+len(s.Bolts))
	for i := range s.Spouts {
		isSpout[s.Spouts[i].Name] = true
	}
	for i := range s.Bolts {
		isSpout[s.Bolts[i].Name] = false
	}
	for name, w := range s.Assign {
		spout, known := isSpout[name]
		switch {
		case !known:
			return nil, fmt.Errorf("cluster: assignment for unknown component %q", name)
		case w < 0:
			return nil, fmt.Errorf("cluster: component %q assigned to negative worker", name)
		case spout && w != 0:
			return nil, fmt.Errorf("cluster: spout %q must live on worker 0 (the acker worker)", name)
		}
	}
	return topo, nil
}

// Plan is the supervisor's placement decision: which worker hosts each
// component, and the worker drain order for graceful shutdown.
type Plan struct {
	// Workers is the effective worker count after clamping.
	Workers int
	// Assign maps component name → worker id.
	Assign map[string]int
	// DrainOrder lists worker ids upstream-first: a worker appears after
	// every worker hosting components it consumes from, so draining in
	// order never strands in-flight tuples.
	DrainOrder []int
}

// PlanSpec computes the placement for a validated spec: spouts on worker
// 0, bolts round-robin over all workers in topological order, explicit
// Assign entries respected.
func PlanSpec(s *Spec) (*Plan, error) {
	topo, err := s.build()
	if err != nil {
		return nil, err
	}
	workers := s.Workers
	if workers < 1 {
		workers = 2
	}
	if max := 1 + len(s.Bolts); workers > max {
		workers = max
	}
	assign := make(map[string]int, len(s.Spouts)+len(s.Bolts))
	for i := range s.Spouts {
		assign[s.Spouts[i].Name] = 0
	}
	order := topo.BoltOrder()
	next := 1 % workers
	for _, name := range order {
		if w, ok := s.Assign[name]; ok {
			if w >= workers {
				return nil, fmt.Errorf("cluster: component %q assigned to worker %d, only %d workers", name, w, workers)
			}
			assign[name] = w
			continue
		}
		assign[name] = next
		next = (next + 1) % workers
		if next == 0 && workers > 1 {
			next = 1 // keep worker 0 for spouts unless pinned there
		}
	}
	return &Plan{Workers: workers, Assign: assign, DrainOrder: drainOrder(assign, workers, order)}, nil
}

// drainOrder sorts worker ids upstream-first by the minimum topological
// position of the components they host (worker 0, the spout worker,
// always first).
func drainOrder(assign map[string]int, workers int, boltOrder []string) []int {
	pos := make(map[int]int, workers)
	for w := 0; w < workers; w++ {
		pos[w] = len(boltOrder) + 1
	}
	pos[0] = -1 // spouts
	for i, name := range boltOrder {
		w := assign[name]
		if i < pos[w] {
			pos[w] = i
		}
	}
	order := make([]int, 0, workers)
	for w := 0; w < workers; w++ {
		order = append(order, w)
	}
	sort.SliceStable(order, func(i, j int) bool { return pos[order[i]] < pos[order[j]] })
	return order
}
