package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"tencentrec/internal/obsv"
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

// WorkerConfig configures one worker process.
type WorkerConfig struct {
	Cluster       string
	ID            int
	SupervisorURL string
}

// Env var names used to spawn workers as re-executions of the current
// binary (see Supervisor and MaybeWorker).
const (
	envWorkerFlag = "TR_CLUSTER_WORKER"
	envSupervisor = "TR_SUPERVISOR"
	envWorkerID   = "TR_WORKER_ID"
	envCluster    = "TR_CLUSTER_NAME"
)

// MaybeWorker runs the worker main and returns true when the process was
// spawned as a cluster worker (TR_CLUSTER_WORKER=1). Call it first thing
// in main() of any binary used as a worker command — including TestMain
// of process-spawning tests.
func MaybeWorker() bool {
	if os.Getenv(envWorkerFlag) != "1" {
		return false
	}
	id, _ := strconv.Atoi(os.Getenv(envWorkerID))
	cfg := WorkerConfig{
		Cluster:       os.Getenv(envCluster),
		ID:            id,
		SupervisorURL: os.Getenv(envSupervisor),
	}
	if err := RunWorker(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "cluster worker %d: %v\n", cfg.ID, err)
		os.Exit(1)
	}
	return true
}

// registerReq/registerResp are the worker↔supervisor registration
// exchange; the response carries everything the worker needs to build
// its topology slice.
type registerReq struct {
	Worker   int    `json:"worker"`
	PID      int    `json:"pid"`
	DataAddr string `json:"data_addr"`
	HTTPAddr string `json:"http_addr"`
}

type registerResp struct {
	Incarnation uint64 `json:"incarnation"`
	Spec        *Spec  `json:"spec"`
	Plan        *Plan  `json:"plan"`
}

// planPeer is one worker's connectivity info in GET /cluster/plan.
type planPeer struct {
	ID          int    `json:"id"`
	State       string `json:"state"`
	DataAddr    string `json:"data_addr"`
	HTTPAddr    string `json:"http_addr"`
	Incarnation uint64 `json:"incarnation"`
	PID         int    `json:"pid"`
	Restarts    int    `json:"restarts"`
}

type planResp struct {
	Version int        `json:"version"`
	Peers   []planPeer `json:"peers"`
}

// RunWorker is the worker main: register, build the local topology
// slice, serve ingress, and run until exhaustion (source worker) or a
// supervisor-initiated drain. Returns once the worker's part is done.
func RunWorker(cfg WorkerConfig) error {
	if cfg.SupervisorURL == "" {
		return fmt.Errorf("cluster: worker needs a supervisor URL")
	}
	reg := obsv.NewRegistry()
	met := newWireMetrics(reg)
	incarn := uint64(os.Getpid())

	ig, err := newIngress(cfg.Cluster, cfg.ID, incarn, met)
	if err != nil {
		return err
	}
	defer ig.close()

	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer httpLn.Close()

	client := &http.Client{Timeout: 5 * time.Second}

	// Register: the supervisor replies with the spec and the plan.
	body, _ := json.Marshal(registerReq{
		Worker: cfg.ID, PID: os.Getpid(),
		DataAddr: ig.addr(), HTTPAddr: httpLn.Addr().String(),
	})
	resp, err := client.Post(cfg.SupervisorURL+"/cluster/register", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("cluster: register: %w", err)
	}
	var rr registerResp
	err = json.NewDecoder(resp.Body).Decode(&rr)
	resp.Body.Close()
	if err != nil || rr.Spec == nil || rr.Plan == nil {
		return fmt.Errorf("cluster: register response invalid (%v)", err)
	}
	spec, plan := rr.Spec, rr.Plan

	// Resolver consulted by egress senders (re-queried after failures, so
	// a restarted peer's fresh port is picked up).
	resolve := func(peer int) string {
		resp, err := client.Get(cfg.SupervisorURL + "/cluster/plan")
		if err != nil {
			return ""
		}
		defer resp.Body.Close()
		var pr planResp
		if json.NewDecoder(resp.Body).Decode(&pr) != nil {
			return ""
		}
		for _, p := range pr.Peers {
			if p.ID == peer && p.State == "running" {
				return p.DataAddr
			}
		}
		return ""
	}
	eg := newEgress(cfg.Cluster, cfg.ID, incarn, resolve, met)

	inQueues := make(map[edgeKey]chan []WireTuple)
	topo, hostsSpout, err := buildLocal(spec, plan, cfg.ID, reg, eg, inQueues)
	if err != nil {
		return err
	}

	var h *stream.RunningTopology
	var draining atomic.Bool
	done := make(chan error, 2)

	if topo != nil {
		h = topo.SubmitWithErrorHandler(func(component string, err error) {
			fmt.Fprintf(os.Stderr, "worker %d: component %s: %v\n", cfg.ID, component, err)
		})
		ig.start(
			func(src, streamID string, tuples []WireTuple) {
				if q, ok := inQueues[edgeKey{src, streamID}]; ok {
					q <- tuples
				}
				// Unknown edge: a stale sender; drop, the acker replays.
			},
			func(updates []stream.AckUpdate) {
				if cfg.ID == 0 {
					_ = h.InjectAcks(updates) // post-shutdown injection is moot
				}
			},
		)
	} else {
		ig.start(func(string, string, []WireTuple) {}, nil)
	}

	// Worker HTTP: observability, drain, rebalance proxy target.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("GET /debug/vars", reg.ServeJSON)
	mux.HandleFunc("GET /metrics", reg.ServePrometheus)
	mux.HandleFunc("POST /control/rebalance", func(w http.ResponseWriter, r *http.Request) {
		if h == nil {
			http.Error(w, "worker hosts no topology", http.StatusConflict)
			return
		}
		h.ServeRebalance(w, r)
	})
	mux.HandleFunc("POST /drain", func(w http.ResponseWriter, _ *http.Request) {
		if !draining.CompareAndSwap(false, true) {
			fmt.Fprintln(w, "already draining")
			return
		}
		// Upstream workers have exited by the time the supervisor sends
		// /drain; wait for their connections to finish delivering.
		deadline := time.Now().Add(20 * time.Second)
		for ig.openConns() > 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if h != nil {
			h.Stop()
			h.Wait()
		}
		eg.close(2 * time.Second)
		fmt.Fprintln(w, "drained")
		done <- nil
	})
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(httpLn) }()
	defer srv.Close()

	// Source workers finish on their own once spouts exhaust and every
	// lineage resolves; report exhaustion so the supervisor cascades the
	// drain downstream.
	if hostsSpout && h != nil {
		go func() {
			h.Wait()
			if draining.CompareAndSwap(false, true) {
				eg.close(2 * time.Second)
				resp, err := client.Post(fmt.Sprintf("%s/cluster/exhausted?worker=%d", cfg.SupervisorURL, cfg.ID), "", nil)
				if err == nil {
					resp.Body.Close()
				}
				done <- nil
			}
		}()
	}

	// Orphan guard: a worker whose supervisor vanished must not linger.
	go func() {
		fails := 0
		for {
			time.Sleep(2 * time.Second)
			resp, err := client.Get(cfg.SupervisorURL + "/cluster/status")
			if err != nil {
				if fails++; fails >= 5 {
					done <- fmt.Errorf("cluster: supervisor unreachable, exiting")
					return
				}
				continue
			}
			resp.Body.Close()
			fails = 0
		}
	}()

	return <-done
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
// still serves HTTP and drains trivially).
func buildLocal(spec *Spec, plan *Plan, workerID int, reg *obsv.Registry, eg *egress, inQueues map[edgeKey]chan []WireTuple) (*stream.Topology, bool, error) {
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
	tb.SetMetricsRegistry(reg)
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
