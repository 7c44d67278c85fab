package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tencentrec"
	"tencentrec/internal/cache"
	"tencentrec/internal/cluster"
	"tencentrec/internal/combiner"
	"tencentrec/internal/core"
	"tencentrec/internal/statecodec"
	"tencentrec/internal/stream"
	"tencentrec/internal/tdaccess"
	"tencentrec/internal/tdstore"
	"tencentrec/internal/tdstore/engine/ldb"
	"tencentrec/internal/window"
)

// Layer probes: each replays a sample of the workload's own inputs
// through one layer's public functions, alone, at a fixed operation
// count. They answer "what does this layer cost per call on this
// workload's data" without the rest of the pipeline around it; the
// traced run reports them next to the counters measured in situ.

// perOp times n calls of fn and returns nanoseconds per call.
func perOp(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// probeSample is what the probes replay: encoded actions, the longest
// histories and similar lists the workload produced, and a wire batch.
type probeSample struct {
	payloads  [][]byte
	users     []string
	keys      []string
	histories [][]byte // encoded statecodec histories
	histItems []string // one item present in each history
	lists     [][]byte // encoded statecodec lists
	scored    [][]core.ScoredItem
	wire      []cluster.WireTuple
}

const (
	probeActions = 20000
	probeStates  = 256
)

func buildProbeSample(actions []action, base time.Time, step time.Duration, cf *tencentrec.Recommender) *probeSample {
	ps := &probeSample{}
	n := min(len(actions), probeActions)
	hist := make(map[int32]statecodec.History)
	for i, a := range actions[:n] {
		ts := base.Add(time.Duration(i) * step).UnixNano()
		ps.payloads = append(ps.payloads, []byte(fmt.Sprintf(
			`{"user":%q,"item":%q,"action":"click","ts":%d}`, userName(a.user), itemName(a.item), ts)))
		ps.users = append(ps.users, userName(a.user))
		ps.keys = append(ps.keys, "uh:"+userName(a.user))
	}
	// Histories over the whole run, so dense workloads probe with the
	// long histories they really build.
	for i, a := range actions {
		h := hist[a.user]
		if h == nil {
			h = statecodec.History{}
			hist[a.user] = h
		}
		h[itemName(a.item)] = statecodec.Rating{Rating: 1, TS: base.Add(time.Duration(i) * step).UnixNano()}
	}
	users := make([]int32, 0, len(hist))
	for u := range hist {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool {
		if li, lj := len(hist[users[i]]), len(hist[users[j]]); li != lj {
			return li > lj
		}
		return users[i] < users[j]
	})
	for _, u := range users[:min(len(users), probeStates)] {
		ps.histories = append(ps.histories, statecodec.EncodeHistory(hist[u]))
		for item := range hist[u] {
			ps.histItems = append(ps.histItems, item)
			break
		}
	}
	seen := make(map[int32]bool)
	for _, a := range actions {
		if len(ps.lists) >= probeStates {
			break
		}
		if seen[a.item] {
			continue
		}
		seen[a.item] = true
		if sim := cf.SimilarItems(itemName(a.item), 0); len(sim) > 0 {
			ps.scored = append(ps.scored, sim)
			ps.lists = append(ps.lists, statecodec.EncodeList(statecodec.List(sim)))
		}
	}
	if len(ps.lists) == 0 {
		one := []core.ScoredItem{{Item: "i0", Score: 1}}
		ps.scored, ps.lists = [][]core.ScoredItem{one}, [][]byte{statecodec.EncodeList(statecodec.List(one))}
	}
	for i := 0; i < stream.DefaultMaxBatch; i++ {
		a := actions[i%len(actions)]
		ps.wire = append(ps.wire, cluster.WireTuple{
			Root: uint64(i + 1), ID: uint64(i + 1000),
			Values: stream.Values{userName(a.user), itemName(a.item), 1.0, int64(i)},
		})
	}
	return ps
}

// runProbes fills every probe_* metric. The probes that need files keep
// them in a new directory under parent, removed on return.
func runProbes(L map[string]float64, ps *probeSample, parent string, cf *tencentrec.Recommender) error {
	dir, err := os.MkdirTemp(parent, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := probeTDAccess(L, ps, filepath.Join(dir, "tdaccess")); err != nil {
		return fmt.Errorf("tdaccess probe: %w", err)
	}
	if err := probeStream(L, len(ps.payloads)); err != nil {
		return fmt.Errorf("stream probe: %w", err)
	}
	probeCore(L, ps, cf)
	probeSmallLayers(L, ps)
	probeStatecodec(L, ps)
	if err := probeTDStore(L, ps); err != nil {
		return fmt.Errorf("tdstore probe: %w", err)
	}
	if err := probeLDB(L, ps, filepath.Join(dir, "ldb")); err != nil {
		return fmt.Errorf("ldb probe: %w", err)
	}
	if err := probeWire(L, ps); err != nil {
		return fmt.Errorf("cluster probe: %w", err)
	}
	return nil
}

// probeTDAccess times Producer.Send and Consumer.Poll on a broker of
// its own.
func probeTDAccess(L map[string]float64, ps *probeSample, dir string) error {
	b, err := tdaccess.NewBroker(tdaccess.Options{Dir: dir, Partitions: 4})
	if err != nil {
		return err
	}
	defer b.Close()
	prod := b.NewProducer()
	var sendErr error
	send := perOp(len(ps.payloads), func(i int) {
		if _, _, err := prod.Send("probe", ps.users[i], ps.payloads[i]); err != nil {
			sendErr = err
		}
	})
	if sendErr != nil {
		return sendErr
	}
	cons := b.NewConsumer("probe")
	if err := cons.Subscribe("probe"); err != nil {
		return err
	}
	start := time.Now()
	got := 0
	for got < len(ps.payloads) {
		msgs, err := cons.Poll(256)
		if err != nil {
			return err
		}
		if len(msgs) == 0 {
			return fmt.Errorf("polled %d of %d messages", got, len(ps.payloads))
		}
		got += len(msgs)
	}
	L["tdaccess.probe_send_us"] = send / 1e3
	L["tdaccess.probe_poll_us"] = float64(time.Since(start)) / float64(got) / 1e3
	return nil
}

// countSpout emits n two-field tuples.
type countSpout struct {
	n, i int
	c    stream.SpoutCollector
}

func (s *countSpout) Open(_ stream.TopologyContext, c stream.SpoutCollector) error {
	s.c = c
	return nil
}
func (s *countSpout) NextTuple() bool {
	if s.i >= s.n {
		return false
	}
	s.c.Emit(stream.Values{"k", int64(s.i)})
	s.i++
	return true
}
func (s *countSpout) Close() {}
func (s *countSpout) DeclareOutputFields() map[string]stream.Fields {
	return map[string]stream.Fields{stream.DefaultStream: {"k", "v"}}
}

// probeStream runs spout → relay → sink and reports wall time per tuple
// per hop: queueing, batching and dispatch with empty Execute bodies.
func probeStream(L map[string]float64, n int) error {
	n *= 10
	tb := stream.NewTopologyBuilder("probe")
	tb.SetSpout("src", func() stream.Spout { return &countSpout{n: n} }, 1)
	tb.SetBolt("relay", func() stream.Bolt {
		return &stream.BoltFunc{Output: stream.Fields{"k", "v"}, Fn: func(t *stream.Tuple, c stream.Collector) error {
			c.Emit(stream.Values{t.Value("k"), t.Value("v")})
			return nil
		}}
	}, 1).Shuffle("src")
	tb.SetBolt("sink", func() stream.Bolt {
		return &stream.BoltFunc{Fn: func(*stream.Tuple, stream.Collector) error { return nil }}
	}, 1).Shuffle("relay")
	topo, err := tb.Build()
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := topo.Run(context.Background()); err != nil {
		return err
	}
	L["stream.probe_hop_ns"] = float64(time.Since(start)) / float64(2*n)
	return nil
}

// probeCore times the sequential library's query side.
func probeCore(L map[string]float64, ps *probeSample, cf *tencentrec.Recommender) {
	now := time.Now()
	L["core.probe_recommend_us"] = perOp(len(ps.users), func(i int) {
		cf.Recommend(ps.users[i], now, core.RecommendOptions{N: listN})
	}) / 1e3
	scratch := make([]core.ScoredItem, 0, 64)
	L["core.probe_topn_us"] = perOp(20*len(ps.scored), func(i int) {
		scratch = append(scratch[:0], ps.scored[i%len(ps.scored)]...)
		core.TopNScored(scratch, listN)
	}) / 1e3
}

type mapStore map[string][]byte

func (m mapStore) Get(k string) ([]byte, bool, error) { v, ok := m[k]; return v, ok, nil }

// probeSmallLayers covers the combiner, the per-task cache and the
// windowed counter codec.
func probeSmallLayers(L map[string]float64, ps *probeSample) {
	comb := combiner.New(combiner.Sum)
	L["combiner.probe_add_ns"] = perOp(len(ps.keys), func(i int) { comb.Add(ps.keys[i], 1) })
	keys := comb.Len()
	start := time.Now()
	comb.Flush(func(string, float64) {})
	L["combiner.probe_flush_us_per_key"] = float64(time.Since(start)) / float64(max(keys, 1)) / 1e3

	store := mapStore{}
	for _, k := range ps.keys {
		store[k] = []byte{1}
	}
	c := cache.New(store, 4096) // the topology's default CacheSize
	L["cache.probe_get_ns"] = perOp(len(ps.keys), func(i int) { c.Get(ps.keys[i]) })

	ctr := window.NewCounter(0)
	ctr.Add(0, 1)
	enc, _ := ctr.MarshalBinary()
	L["window.probe_add_encoded_ns"] = perOp(len(ps.keys), func(int) { window.AddEncoded(enc, 0, 1) })
}

// probeStatecodec times the delta paths and full decodes on the
// workload's own histories and lists.
func probeStatecodec(L map[string]float64, ps *probeSample) {
	const rounds = 40
	nh, nl := len(ps.histories), len(ps.lists)
	bufs := make([][]byte, nh)
	for i := range bufs {
		bufs[i] = append([]byte(nil), ps.histories[i]...)
	}
	L["statecodec.probe_history_upsert_ns"] = perOp(rounds*nh, func(i int) {
		k := i % nh
		if out, ok := statecodec.UpsertHistoryEntry(bufs[k], ps.histItems[k], statecodec.Rating{Rating: 1, TS: int64(i)}); ok {
			bufs[k] = out
		}
	})
	L["statecodec.probe_decode_history_ns"] = perOp(rounds*nh, func(i int) { statecodec.DecodeHistory(ps.histories[i%nh]) })
	lbufs := make([][]byte, nl)
	for i := range lbufs {
		lbufs[i] = append([]byte(nil), ps.lists[i]...)
	}
	L["statecodec.probe_list_merge_ns"] = perOp(rounds*nl, func(i int) {
		k := i % nl
		if out, _, ok := statecodec.MergeListEntry(lbufs[k], ps.scored[k][0].Item, float64(i%7)/7, 20); ok {
			lbufs[k] = out
		}
	})
	L["statecodec.probe_decode_list_ns"] = perOp(rounds*nl, func(i int) { statecodec.DecodeList(ps.lists[i%nl]) })
}

// probeTDStore times client Get and BatchPut against an MDB cluster of
// the System's default shape.
func probeTDStore(L map[string]float64, ps *probeSample) error {
	cl, err := tdstore.NewCluster(tdstore.Options{DataServers: 3, Instances: 16, Replicas: 1})
	if err != nil {
		return err
	}
	defer cl.Close()
	client, err := cl.NewClient()
	if err != nil {
		return err
	}
	const batch = 64
	vals := make([][]byte, batch)
	for i := range vals {
		vals[i] = ps.histories[i%len(ps.histories)]
	}
	var opErr error
	batches := len(ps.keys) / batch
	put := perOp(batches, func(i int) {
		if err := client.BatchPut(ps.keys[i*batch:(i+1)*batch], vals); err != nil {
			opErr = err
		}
	})
	L["tdstore.probe_batch_put_us_per_key"] = put / batch / 1e3
	L["tdstore.probe_get_ns"] = perOp(batches*batch, func(i int) {
		if _, _, err := client.Get(ps.keys[i]); err != nil {
			opErr = err
		}
	})
	return opErr
}

// probeLDB times Put and Get on one LDB engine instance, no fsync.
func probeLDB(L map[string]float64, ps *probeSample, dir string) error {
	st, err := ldb.Open(dir, ldb.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	var opErr error
	L["ldb.probe_put_ns"] = perOp(len(ps.keys), func(i int) {
		if err := st.Put(ps.keys[i], ps.histories[i%len(ps.histories)]); err != nil {
			opErr = err
		}
	})
	L["ldb.probe_get_ns"] = perOp(len(ps.keys), func(i int) {
		if _, _, err := st.Get(ps.keys[i]); err != nil {
			opErr = err
		}
	})
	return opErr
}

// probeWire times the cluster runtime's batch codec on a 64-tuple batch
// of the workload's tuples, and one framed batch over loopback TCP.
func probeWire(L map[string]float64, ps *probeSample) error {
	const rounds = 2000
	buf := cluster.EncodeBatch(nil, "userHistory", stream.DefaultStream, ps.wire)
	L["cluster.probe_wire_encode_us"] = perOp(rounds, func(int) {
		buf = cluster.EncodeBatch(buf[:0], "userHistory", stream.DefaultStream, ps.wire)
	}) / 1e3
	var decErr error
	dst := make([]cluster.WireTuple, 0, len(ps.wire))
	L["cluster.probe_wire_decode_us"] = perOp(rounds, func(int) {
		if _, _, _, err := cluster.DecodeBatch(buf, dst[:0]); err != nil {
			decErr = err
		}
	}) / 1e3
	if decErr != nil {
		return decErr
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	recvErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			recvErr <- err
			return
		}
		defer conn.Close()
		fr := cluster.NewFrameReader(bufio.NewReader(conn))
		for i := 0; i < rounds; i++ {
			payload, err := fr.Next()
			if err != nil {
				recvErr <- err
				return
			}
			if _, _, _, err := cluster.DecodeBatch(payload, dst[:0]); err != nil {
				recvErr <- err
				return
			}
		}
		recvErr <- nil
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	w := bufio.NewWriter(conn)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := cluster.WriteFrame(w, buf); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := <-recvErr; err != nil {
		return err
	}
	L["cluster.probe_loopback_us"] = float64(time.Since(start)) / rounds / 1e3
	return nil
}

// handlerOverhead is the median ServeHTTP time minus the median direct
// System call for the same hot-shaped queries, microseconds: routing,
// parameter parsing, JSON encoding and the request histogram.
func handlerOverhead(sys *tencentrec.System, qs []query) float64 {
	if len(qs) == 0 {
		return 0
	}
	qs = qs[:min(len(qs), 2000)]
	c := newClient(sys.Handler())
	reqs := buildRequests(qs)
	var viaHTTP, direct []int64
	for i, q := range qs {
		t0 := time.Now()
		t1 := c.do(reqs[i])
		switch q.kind {
		case qRecommend:
			sys.Recommend(userName(q.key), listN)
		case qSimilar:
			sys.SimilarItems(itemName(q.key), listN)
		default:
			sys.HotItems(userName(q.key), listN)
		}
		t2 := time.Now()
		// The HTTP call goes first, so the direct call is the one served
		// from the result cache: the difference leans towards overstating
		// the handler, never towards hiding it.
		viaHTTP = append(viaHTTP, int64(t1.Sub(t0)))
		direct = append(direct, int64(t2.Sub(t1)))
	}
	return (median(viaHTTP) - median(direct)) / 1e3
}

// prometheusExpose is the median time of one Prometheus-format /metrics
// request, microseconds.
func prometheusExpose(sys *tencentrec.System) float64 {
	h := sys.Handler()
	req := httptest.NewRequest(http.MethodGet, "/metrics?format=prometheus", nil)
	var lat []int64
	for i := 0; i < 50; i++ {
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		lat = append(lat, int64(time.Since(t0)))
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte("stream_executed_total")) {
			return 0
		}
	}
	return median(lat) / 1e3
}

// similarMismatch is the share of sampled similar-list entries whose
// stored score is more than 1 % away from the exact similarity of the
// final counts, which the sequential library holds. Reported, not gated:
// the pipeline recomputes a pair's similarity only when the pair is
// touched, so entries go stale as their items' counts grow; a lost pair
// or item delta would show here too.
func similarMismatch(sys *tencentrec.System, cf *tencentrec.Recommender, actions []action, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	now := time.Now()
	entries, off := 0, 0
	for i := 0; i < 200; i++ {
		item := itemName(actions[rng.Intn(len(actions))].item)
		list, err := sys.SimilarItems(item, listN)
		if err != nil {
			return 1
		}
		for _, s := range list {
			exact := cf.Similarity(item, s.Item, now)
			entries++
			if math.Abs(s.Score-exact) > 0.01*exact {
				off++
			}
		}
	}
	return ratio(float64(off), float64(entries))
}

// observeAll feeds every action to the single-threaded library
// recommender under the workload's parameters and reports how long
// Observe took in total: the baseline the pipeline's throughput is set
// against.
func observeAll(w workload, actions []action, base time.Time) (*tencentrec.Recommender, time.Duration) {
	cf := tencentrec.NewRecommender(tencentrec.RecommenderConfig{LinkedTime: w.shape.linked})
	obs := make([]tencentrec.Action, len(actions))
	for i, a := range actions {
		obs[i] = tencentrec.NewAction(userName(a.user), itemName(a.item), tencentrec.ActionClick,
			base.Add(time.Duration(i)*w.shape.step))
	}
	start := time.Now()
	for _, a := range obs {
		cf.Observe(a)
	}
	return cf, time.Since(start)
}
