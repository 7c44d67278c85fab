package cluster

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"maps"
	"net"
	"os"
	"slices"
	"strconv"
	"time"

	"tencentrec/internal/stream"
)

// A worker process hosts one stream.Topology: the components the plan
// assigns to it, plus the proxies that stitch its remote edges:
//
//   - for every remote edge leaving this worker, an egress proxy bolt
//     ("__out/<src>/<stream>/w<dest>") subscribes shuffle to the source
//     stream, remote-anchors each tuple, and ships micro-batches through
//     the transport (flushed on batch threshold and on a linger tick);
//   - for every remote edge arriving here, an ingress proxy spout
//     ("__in/<src>/<stream>") re-emits received tuples under their wire
//     lineage on the source's declared stream, so local subscribers use
//     their ORIGINAL groupings — fields grouping, rebalance, and
//     backpressure behave exactly as in-process within the worker.
//
// Worker 0 hosts every spout and the topology's real acker; other
// workers run in ack-forward mode, shipping lineage updates to worker 0.

// Proxy component names. A spec component that takes one of them is a
// duplicate name to the worker's build.
func proxyInName(src, streamID string) string { return "__in/" + src + "/" + streamID }
func proxyOutName(src, streamID string, dest int) string {
	return fmt.Sprintf("__out/%s/%s/w%d", src, streamID, dest)
}

type edgeKey struct{ src, stream string }

// proxySpout re-emits tuples received from the transport.
type proxySpout struct {
	q        chan []WireTuple
	streamID string
	col      stream.SpoutCollector
}

func (s *proxySpout) Open(_ stream.TopologyContext, col stream.SpoutCollector) error {
	s.col = col
	return nil
}

func (s *proxySpout) NextTuple() bool {
	select {
	case batch := <-s.q:
		rc := s.col.(stream.RelayCollector)
		for i := range batch {
			rc.EmitRelayed(s.streamID, batch[i].Values, batch[i].Root, batch[i].ID)
		}
	case <-time.After(time.Millisecond):
	}
	return true // never exhausts; the engine stops it on Stop()
}

func (s *proxySpout) Close() {}

// proxyBolt forwards a source stream to one remote worker, micro-batched.
type proxyBolt struct {
	eg       *egress
	dest     int
	src      string
	streamID string

	col   stream.Collector
	batch []WireTuple
}

func (b *proxyBolt) Prepare(_ stream.TopologyContext, col stream.Collector) error {
	b.col = col
	return nil
}

func (b *proxyBolt) Execute(t *stream.Tuple) error {
	if t.IsTick() {
		b.flush()
		return nil
	}
	root, id := b.col.(stream.RemoteAnchorer).AnchorRemote()
	// The tuple's Values slice is recycled after Execute; copy it out.
	vals := make(stream.Values, len(t.Values))
	copy(vals, t.Values)
	b.batch = append(b.batch, WireTuple{Root: root, ID: id, Values: vals})
	if len(b.batch) >= stream.DefaultMaxBatch {
		b.flush()
	}
	return nil
}

func (b *proxyBolt) flush() {
	if len(b.batch) == 0 {
		return
	}
	b.eg.sendBatch(b.dest, EncodeBatch(nil, b.src, b.streamID, b.batch))
	b.batch = b.batch[:0]
}

func (b *proxyBolt) Cleanup() { b.flush() }

// proxyFlushTick is the egress proxy's linger: a sub-threshold batch
// waits at most this long, the wire analog of stream.DefaultLinger.
const proxyFlushTick = 2 * time.Millisecond

// envWorkerFlag marks a process as a cluster worker (see MaybeWorker).
const envWorkerFlag = "TR_CLUSTER_WORKER"

// MaybeWorker runs the worker main and returns true when the process was
// spawned as a cluster worker (TR_CLUSTER_WORKER=1). Call it first thing
// in main() of any binary that creates a Supervisor — including TestMain
// of process-spawning tests.
func MaybeWorker() bool {
	if os.Getenv(envWorkerFlag) != "1" {
		return false
	}
	if err := runWorker(os.Stdin, os.NewFile(3, "data listener")); err != nil {
		fmt.Fprintf(os.Stderr, "cluster worker: %v\n", err)
		os.Exit(1)
	}
	return true
}

// runWorker is the worker main: read the assignment, build the local
// topology slice, serve ingress on the inherited listener, and run until
// the spouts exhaust (source worker) or stdin ends (drain). Returns once
// the worker's part is done; the process then exits 0.
func runWorker(stdin io.Reader, lnFile *os.File) error {
	in := bufio.NewReader(stdin)
	var a assignment
	if err := gob.NewDecoder(in).Decode(&a); err != nil {
		return fmt.Errorf("cluster: read assignment: %w", err)
	}
	ln, err := net.FileListener(lnFile)
	lnFile.Close()
	if err != nil {
		return err
	}
	incarn := uint64(os.Getpid())
	ig := newIngress(ln, a.Cluster, a.ID, incarn)
	defer ig.close()
	eg := newEgress(a.Cluster, a.ID, incarn, a.Addrs)

	inQueues := make(map[edgeKey]chan []WireTuple)
	topo, hostsSpout, err := buildLocal(a.Spec, a.Plan, a.ID, eg, inQueues)
	if err != nil {
		return err
	}

	// A source worker is done once its spouts exhaust and every lineage
	// resolves; any other topology only ever stops on a drain.
	var h *stream.RunningTopology
	var exhausted <-chan struct{}
	if topo != nil {
		h = topo.SubmitWithErrorHandler(func(component string, err error) {
			fmt.Fprintf(os.Stderr, "worker %d: component %s: %v\n", a.ID, component, err)
		})
		if hostsSpout {
			exhausted = h.Done()
		}
		ig.start(
			func(src, streamID string, tuples []WireTuple) {
				if q, ok := inQueues[edgeKey{src, streamID}]; ok {
					q <- tuples
				}
				// Unknown edge: a stale sender; drop, the acker replays.
			},
			func(updates []stream.AckUpdate) {
				if a.ID == 0 {
					_ = h.InjectAcks(updates) // post-shutdown injection is moot
				}
			},
		)
	} else {
		ig.start(func(string, string, []WireTuple) {}, nil)
	}

	// The end of stdin is the supervisor's drain (or its death).
	eof := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, in)
		close(eof)
	}()

	select {
	case <-exhausted:
		// Exit 0 reports the exhaustion; the supervisor drains downstream.
	case <-eof:
		// Upstream workers have exited by the time the supervisor drains
		// this one; wait for their connections to finish delivering.
		deadline := time.Now().Add(20 * time.Second)
		for ig.openConns() > 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if h != nil {
			h.Stop()
			h.Wait()
		}
	}
	eg.close(2 * time.Second)
	return nil
}

// Reserved classes of a worker's registry: the proxies localGraph adds.
const (
	classProxyIn  = "__in"
	classProxyOut = "__out"
)

// localGraph cuts the worker's slice out of the spec's graph: the
// components the plan puts here, an ingress proxy spout in place of every
// remote source they subscribe to, and an egress proxy bolt for every
// local stream a remote bolt subscribes to. outputs are the declared
// outputs of the whole graph as built, by component name.
func localGraph(spec *Spec, plan *Plan, workerID int, outputs map[string]map[string]stream.Fields) stream.Graph {
	here := func(name string) bool { return plan.Assign[name] == workerID }
	g := stream.Graph{Name: spec.Name}
	for i := range spec.Spouts {
		if here(spec.Spouts[i].Name) {
			g.Spouts = append(g.Spouts, spec.Spouts[i])
		}
	}
	var egress []ComponentSpec
	proxied := make(map[string]bool)
	for i := range spec.Bolts {
		b := spec.Bolts[i]
		b.Inputs = append([]InputSpec(nil), b.Inputs...)
		for j, in := range b.Inputs {
			src, streamID := in.Source, in.StreamID()
			switch {
			case here(b.Name) && !here(src):
				name := proxyInName(src, streamID)
				if !proxied[name] {
					proxied[name] = true
					g.Spouts = append(g.Spouts, ComponentSpec{
						Name: name, Kind: classProxyIn,
						Params:  map[string]string{"src": src, "stream": streamID},
						Outputs: map[string]stream.Fields{streamID: outputs[src][streamID]},
					})
				}
				b.Inputs[j].Source = name
			case !here(b.Name) && here(src):
				dest := plan.Assign[b.Name]
				name := proxyOutName(src, streamID, dest)
				if !proxied[name] {
					proxied[name] = true
					egress = append(egress, ComponentSpec{
						Name: name, Kind: classProxyOut,
						Params: map[string]string{"src": src, "stream": streamID, "dest": strconv.Itoa(dest)},
						TickMS: float64(proxyFlushTick) / float64(time.Millisecond),
						Inputs: []InputSpec{{Source: src, Stream: streamID}},
					})
				}
			}
		}
		if here(b.Name) {
			g.Bolts = append(g.Bolts, b)
		}
	}
	g.Bolts = append(g.Bolts, egress...)
	return g
}

// buildLocal builds this worker's slice of the spec's graph, through the
// same stream.Graph.Build the supervisor validated the whole graph with.
// Returns a nil topology when the plan assigns the worker nothing (it
// still drains trivially).
func buildLocal(spec *Spec, plan *Plan, workerID int, eg *egress, inQueues map[edgeKey]chan []WireTuple) (*stream.Topology, bool, error) {
	// The whole graph, for the declared outputs of remote sources.
	whole, err := spec.build()
	if err != nil {
		return nil, false, err
	}
	outputs := make(map[string]map[string]stream.Fields)
	wg := whole.Graph()
	for _, c := range slices.Concat(wg.Spouts, wg.Bolts) {
		outputs[c.Name] = c.Outputs
	}
	g := localGraph(spec, plan, workerID, outputs)
	if len(g.Spouts)+len(g.Bolts) == 0 {
		return nil, false, nil
	}
	hostsSpout := false
	for _, sp := range g.Spouts {
		if sp.Kind == classProxyIn {
			// 128 batches of slack between the ingress reader and the
			// proxy spout's task, half a task queue (DefaultQueueDepth).
			inQueues[edgeKey{sp.Params["src"], sp.Params["stream"]}] = make(chan []WireTuple, 128)
		} else {
			hostsSpout = true
		}
	}

	tb := stream.NewTopologyBuilder(fmt.Sprintf("%s@w%d", spec.Name, workerID))
	if spec.Acking {
		tb.SetAcking(true)
		if spec.AckTimeoutMS > 0 {
			tb.SetAckTimeout(spec.ackTimeout())
		}
		if workerID != 0 {
			tb.SetAckForwarder(func(updates []stream.AckUpdate) { eg.sendAcks(0, updates) })
		}
	}

	classes := &stream.Registry{Spouts: maps.Clone(Kinds.Spouts), Bolts: maps.Clone(Kinds.Bolts)}
	classes.Spouts[classProxyIn] = stream.SpoutClassFunc(func(p map[string]string) stream.Spout {
		return &proxySpout{q: inQueues[edgeKey{p["src"], p["stream"]}], streamID: p["stream"]}
	})
	classes.Bolts[classProxyOut] = stream.BoltClassFunc(func(p map[string]string) stream.Bolt {
		dest, _ := strconv.Atoi(p["dest"]) // localGraph wrote it with Itoa
		return &proxyBolt{eg: eg, dest: dest, src: p["src"], streamID: p["stream"]}
	})
	topo, err := g.Build(tb, classes)
	if err != nil {
		return nil, false, err
	}
	return topo, hostsSpout, nil
}
