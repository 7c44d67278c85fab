package tencentrec_test

// The benchmark harness behind EXPERIMENTS.md: one bench per paper
// table/figure (reporting the measured improvement as a custom metric)
// plus the ablation benches DESIGN.md §6 calls out, the pipeline
// throughput and scaling sweeps, and the serving mix, ingest edge,
// pairCount flush and cached query scripts/profile.sh profiles.
// Event-to-queryable latency and query latency are measured by the repo
// benchmark (benchmark/, `make bench`).
//
// Run everything:   go test -bench=. -benchmem
// One experiment:   go test -bench=BenchmarkFigure10News

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"tencentrec"
	"tencentrec/internal/core"
	"tencentrec/internal/obsv"
	"tencentrec/internal/sim"
	"tencentrec/internal/stream"
	"tencentrec/internal/tdaccess"
	"tencentrec/internal/topology"
)

var benchStart = time.Date(2015, 5, 31, 0, 0, 0, 0, time.UTC)

// genBenchActions produces a clustered action stream for pipeline benches.
func genBenchActions(n, users, items int) []topology.RawAction {
	rng := rand.New(rand.NewSource(42))
	types := []string{"browse", "click", "read", "share", "purchase"}
	out := make([]topology.RawAction, n)
	for i := range out {
		u := rng.Intn(users)
		var it int
		if rng.Float64() < 0.8 {
			it = (u%4)*(items/4) + rng.Intn(items/4)
		} else {
			it = rng.Intn(items)
		}
		out[i] = topology.RawAction{
			User:   fmt.Sprintf("u%d", u),
			Item:   fmt.Sprintf("i%d", it),
			Action: types[rng.Intn(len(types))],
			TS:     benchStart.Add(time.Duration(i) * 50 * time.Millisecond).UnixNano(),
		}
	}
	return out
}

// --- Table 1 and figure benches -------------------------------------------
//
// Each runs a reduced-scale scenario once per iteration and reports the
// measured average CTR improvement; the full-scale numbers are produced
// by cmd/recbench and recorded in EXPERIMENTS.md.

func reportImprovement(b *testing.B, s *sim.Series) {
	b.Helper()
	var sum float64
	for _, d := range s.Days {
		sum += d.ImprovementPct
	}
	b.ReportMetric(sum/float64(len(s.Days)), "improvement_%")
}

func BenchmarkTable1NewsRow(b *testing.B) {
	cfg := sim.DefaultNewsConfig()
	cfg.Users, cfg.Warmup, cfg.Days = 300, 1, 2
	var last *sim.Series
	for i := 0; i < b.N; i++ {
		last = sim.RunNews(cfg)
	}
	reportImprovement(b, last)
}

func BenchmarkTable1VideosRow(b *testing.B) {
	cfg := sim.DefaultVideoConfig()
	cfg.Users, cfg.Warmup, cfg.Days = 300, 4, 2
	var last *sim.Series
	for i := 0; i < b.N; i++ {
		last = sim.RunVideo(cfg)
	}
	reportImprovement(b, last)
}

func BenchmarkTable1YiXunRow(b *testing.B) {
	cfg := sim.DefaultEcomConfig(sim.SimilarPurchase)
	cfg.Users, cfg.Warmup, cfg.Days = 400, 6, 2
	var last *sim.Series
	for i := 0; i < b.N; i++ {
		last = sim.RunEcommerce(cfg)
	}
	reportImprovement(b, last)
}

func BenchmarkTable1QQRow(b *testing.B) {
	cfg := sim.DefaultAdsConfig()
	cfg.Users, cfg.Warmup, cfg.Days = 600, 2, 2
	var last *sim.Series
	for i := 0; i < b.N; i++ {
		last = sim.RunAds(cfg)
	}
	reportImprovement(b, last)
}

func BenchmarkFigure5Density(b *testing.B) {
	var r sim.Fig5Result
	for i := 0; i < b.N; i++ {
		r = sim.RunFig5(1, 600, 400, 10)
	}
	b.ReportMetric(r.GroupMeanDensity/r.GlobalDensity, "densification_x")
}

func BenchmarkFigure10News(b *testing.B) {
	cfg := sim.DefaultNewsConfig()
	cfg.Users, cfg.Warmup, cfg.Days = 300, 1, 3
	var last *sim.Series
	for i := 0; i < b.N; i++ {
		last = sim.RunNews(cfg)
	}
	reportImprovement(b, last)
}

func BenchmarkFigure11NewsReads(b *testing.B) {
	cfg := sim.DefaultNewsConfig()
	cfg.Users, cfg.Warmup, cfg.Days = 300, 1, 3
	var last *sim.Series
	for i := 0; i < b.N; i++ {
		last = sim.RunNews(cfg)
	}
	var r, o float64
	for _, d := range last.Days {
		r += d.ReadsReal
		o += d.ReadsOrig
	}
	b.ReportMetric(r/o, "reads_ratio")
}

func BenchmarkFigure13SimilarPrice(b *testing.B) {
	cfg := sim.DefaultEcomConfig(sim.SimilarPrice)
	cfg.Users, cfg.Warmup, cfg.Days = 400, 6, 2
	var last *sim.Series
	for i := 0; i < b.N; i++ {
		last = sim.RunEcommerce(cfg)
	}
	reportImprovement(b, last)
}

func BenchmarkFigure14SimilarPurchase(b *testing.B) {
	cfg := sim.DefaultEcomConfig(sim.SimilarPurchase)
	cfg.Users, cfg.Warmup, cfg.Days = 400, 6, 2
	var last *sim.Series
	for i := 0; i < b.N; i++ {
		last = sim.RunEcommerce(cfg)
	}
	reportImprovement(b, last)
}

// --- §6.1 system performance claims ----------------------------------------

// BenchmarkPipelineThroughput measures raw actions/sec through the full
// topology (pretreatment → user history → counts → similarity → storage).
// Observability is on at default sampling — the number this bench
// reports is the instrumented configuration production would run.
func BenchmarkPipelineThroughput(b *testing.B) {
	actions := genBenchActions(b.N, 200, 100)
	st := topology.NewMemState()
	p := topology.Params{FlushInterval: 50 * time.Millisecond}
	topo, err := topology.NewBuilder("bench", topology.NewSliceSpout(actions), st, p).
		WithParallelism(topology.Parallelism{UserHistory: 4, ItemCount: 2, PairCount: 4, Storage: 2}).
		WithObservability(obsv.NewRegistry(), obsv.NewTracer(0, 0)).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := topo.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "actions/s")
}

// BenchmarkIngestEdge measures one action's trip over the ingest edge and
// nothing behind it: what System.Publish does (EncodeAction, then
// Producer.Send), then Consumer.Poll(256) and DecodeAction, on a broker
// in a temp dir. Its allocs/op is gated in scripts/check.sh and it is the
// third profile of scripts/profile.sh.
func BenchmarkIngestEdge(b *testing.B) {
	broker, err := tdaccess.NewBroker(tdaccess.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer broker.Close()
	actions := genBenchActions(4096, 100000, 20000)
	prod := broker.NewProducer()
	cons := broker.NewConsumer("bench")
	if err := cons.Subscribe("actions"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	// Publish a poll's worth, then consume it: the log is read while it
	// is still in the page cache, as a spout that keeps up reads it.
	for done := 0; done < b.N; {
		n := min(256, b.N-done)
		for i := 0; i < n; i++ {
			a := actions[(done+i)%len(actions)]
			if _, _, err := prod.Send("actions", a.User, topology.EncodeAction(a)); err != nil {
				b.Fatal(err)
			}
		}
		for got := 0; got < n; {
			msgs, err := cons.Poll(256)
			if err != nil {
				b.Fatal(err)
			}
			for _, m := range msgs {
				a, err := topology.DecodeAction(m.Payload)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(a.User)
			}
			got += len(msgs)
		}
		done += n
	}
}

// benchSink keeps a benchmark's result alive.
var benchSink int

// discardCollector drops a bolt's emissions, counting their rows as the
// engine's Emitted does: a run's rows, one for a plain tuple.
type discardCollector struct{ n int }

func (c *discardCollector) Emit(v stream.Values) { c.EmitTo(stream.DefaultStream, v) }
func (c *discardCollector) EmitTo(_ string, v stream.Values) {
	for _, x := range v {
		if run, ok := x.(stream.Run); ok {
			c.n += len(run)
			return
		}
	}
	c.n++
}

// BenchmarkPairCountFlush measures one PairCountBolt flush of 4096
// combined pairs over MemState: the batched read of the pair counters and
// both items' counts, count and score per pair, one sim run, one batched
// write. The deltas (runs of up to 20 rows, an action's worth) are buffered
// off the clock. It is the fourth profile of
// scripts/profile.sh.
func BenchmarkPairCountFlush(b *testing.B) {
	const items, pairs = 128, 4096
	st := topology.NewMemState()
	itemDelta := stream.Fields{"item", "delta", "session"}
	ic := topology.NewItemCountBolt(st, topology.Params{})()
	if err := ic.Prepare(stream.TopologyContext{}, nil); err != nil {
		b.Fatal(err)
	}
	tick := &stream.Tuple{Stream: stream.TickStream}
	for i := 0; i < items; i++ {
		t := stream.NewTuple(topology.UnitUserHistory, topology.StreamItemDelta, itemDelta,
			stream.Values{fmt.Sprintf("i%03d", i), 50.0, int64(0)})
		if err := ic.Execute(t); err != nil {
			b.Fatal(err)
		}
	}
	if err := ic.Execute(tick); err != nil {
		b.Fatal(err)
	}
	var deltas []*stream.Tuple
	var rows stream.Run
	for i := 0; i < items && len(rows) < pairs; i++ {
		for j := i + 1; j < items && len(rows) < pairs; j++ {
			rows = append(rows, stream.Row{Key: fmt.Sprintf("i%03d\x1fi%03d", i, j), Num: 1})
		}
	}
	for ; len(rows) > 0; rows = rows[min(20, len(rows)):] {
		deltas = append(deltas, stream.NewTuple(topology.UnitUserHistory, topology.StreamPairDelta,
			stream.Fields{"pair", "session"}, stream.Values{rows[:min(20, len(rows))], int64(0)}))
	}
	col := &discardCollector{}
	pc := topology.NewPairCountBolt(st, topology.Params{})()
	if err := pc.Prepare(stream.TopologyContext{}, col); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		for _, d := range deltas {
			if err := pc.Execute(d); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := pc.Execute(tick); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(col.n)/float64(b.N)/pairs, "sims/pair")
}

// newMixSystem opens a System with cfg's serving settings, populated with
// enough users and items for a realistic read mix.
func newMixSystem(b *testing.B, cfg tencentrec.SystemConfig) *tencentrec.System {
	b.Helper()
	cfg.DataDir = b.TempDir()
	cfg.Params = tencentrec.Params{FlushInterval: 20 * time.Millisecond}
	sys, err := tencentrec.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sys.Close() })
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		u := rng.Intn(50)
		item := fmt.Sprintf("i%d", (u%5)*8+rng.Intn(8))
		ts := benchStart.Add(time.Duration(i) * time.Second)
		sys.Publish(tencentrec.RawAction{
			User: fmt.Sprintf("u%d", u), Item: item, Action: "click", TS: ts.UnixNano(),
		})
	}
	if err := sys.Drain(30 * time.Second); err != nil {
		b.Fatal(err)
	}
	return sys
}

// mixRequests pre-builds 1024 requests of the 60/30/10 /recommend,
// /similar, /hot mix over Zipf-1.2 keys of newMixSystem's users and items.
// A loop that cycles them measures the serving path rather than URL
// parsing and request construction.
func mixRequests(rng *rand.Rand) []*http.Request {
	userZ := rand.NewZipf(rng, 1.2, 1, 49)
	itemZ := rand.NewZipf(rng, 1.2, 1, 39)
	reqs := make([]*http.Request, 1024)
	for i := range reqs {
		var url string
		switch p := rng.Float64(); {
		case p < 0.6:
			url = fmt.Sprintf("/recommend?user=u%d&n=10", userZ.Uint64())
		case p < 0.9:
			url = fmt.Sprintf("/similar?item=i%d&n=10", itemZ.Uint64())
		default:
			url = fmt.Sprintf("/hot?user=u%d&n=10", userZ.Uint64())
		}
		reqs[i] = httptest.NewRequest("GET", url, nil)
	}
	return reqs
}

// BenchmarkHTTPServingMix drives a concurrent Zipf-skewed read mix
// (60% /recommend, 30% /similar, 10% /hot) through the front end
// in-process, with the serving tier's caches on and off. It reports QPS, latency
// quantiles and the ablation counters behind the tier's claim: store
// gets per request collapse when the hot head is cached.
func BenchmarkHTTPServingMix(b *testing.B) {
	for _, tier := range []bool{true, false} {
		name, cfg := "tier=on", tencentrec.SystemConfig{}
		if !tier {
			name, cfg.ServingCacheTTL = "tier=off", -1
		}
		b.Run(name, func(b *testing.B) {
			sys := newMixSystem(b, cfg)
			handler := sys.Handler()
			reg := sys.Registry()
			storeGets := func() int64 {
				s := reg.Histogram("tdstore_op_seconds", "", "op", "get").Snapshot()
				s.Merge(reg.Histogram("tdstore_op_seconds", "", "op", "batch_get").Snapshot())
				return s.Count
			}
			lat := obsv.NewHistogram()
			gets0 := storeGets()
			var seed int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				reqs := mixRequests(rand.New(rand.NewSource(100 + atomicAdd(&seed))))
				for i := 0; pb.Next(); i++ {
					req := reqs[i%len(reqs)]
					w := httptest.NewRecorder()
					t0 := obsv.Now()
					handler.ServeHTTP(w, req)
					lat.Observe(obsv.Now() - t0)
					if w.Code != http.StatusOK {
						b.Errorf("GET %s = %d", req.URL, w.Code)
						return
					}
				}
			})
			b.StopTimer()
			s := lat.Snapshot()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
			b.ReportMetric(float64(s.Quantile(0.50))/1e6, "p50_ms")
			b.ReportMetric(float64(s.Quantile(0.99))/1e6, "p99_ms")
			b.ReportMetric(float64(storeGets()-gets0)/float64(b.N), "store_gets/req")
			if tier {
				hits := reg.Counter("serving_cache_hits_total", "").Value()
				misses := reg.Counter("serving_cache_misses_total", "").Value()
				if hits+misses > 0 {
					b.ReportMetric(float64(hits)/float64(hits+misses), "cache_hit_rate")
				}
			}
		})
	}
}

// BenchmarkStatePathSparse is the per-action state path on the sparse
// shape: a default MDB System takes b.N actions of 200,000 users over
// 5,000 uniform items, so the task caches miss on almost every action,
// publishes them and drains. It reports ns/action and allocs/action, the
// whole pipeline's; scripts/check.sh holds the allocations and
// scripts/profile.sh profiles it.
func BenchmarkStatePathSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	actions := make([]tencentrec.RawAction, b.N)
	for i := range actions {
		actions[i] = tencentrec.RawAction{
			User:   "u" + strconv.Itoa(rng.Intn(200000)),
			Item:   "i" + strconv.Itoa(rng.Intn(5000)),
			Action: "click",
			TS:     benchStart.Add(time.Duration(i) * time.Millisecond).UnixNano(),
		}
	}
	sys, err := tencentrec.Open(tencentrec.SystemConfig{DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for _, a := range actions {
		if err := sys.Publish(a); err != nil {
			b.Fatal(err)
		}
	}
	if err := sys.Drain(5 * time.Minute); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/action")
}

// respWriter is a reusable in-process http.ResponseWriter, so a timed
// query costs the handler's work and not a recorder allocation.
type respWriter struct {
	hdr  http.Header
	code int
	body []byte
}

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) WriteHeader(c int)   { w.code = c }
func (w *respWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// BenchmarkHTTPCachedQuery times one query answered from the serving
// tier's cache: the 60/30/10 /recommend, /similar, /hot mix over Zipf-1.2
// keys, on one goroutine with one reused ResponseWriter, against a
// drained System whose hour-long TTLs keep every pre-warmed answer live.
// What it measures is the front end's own cost per hit (reading the query,
// encoding the list); scripts/check.sh holds its allocations to 3.
func BenchmarkHTTPCachedQuery(b *testing.B) {
	sys := newMixSystem(b, tencentrec.SystemConfig{ServingCacheTTL: time.Hour, ServingNegativeTTL: time.Hour})
	reqs := mixRequests(rand.New(rand.NewSource(100)))
	handler := sys.Handler()
	w := &respWriter{hdr: make(http.Header, 4)}
	serve := func(req *http.Request) {
		clear(w.hdr)
		w.code, w.body = http.StatusOK, w.body[:0]
		handler.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("GET %s = %d %s", req.URL, w.code, w.body)
		}
	}
	for _, req := range reqs { // warm the cache: every timed query is a hit
		serve(req)
	}
	misses := sys.Registry().Counter("serving_cache_misses_total", "")
	misses0 := misses.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(reqs[i%len(reqs)])
	}
	b.StopTimer()
	if n := misses.Value() - misses0; n != 0 {
		b.Fatalf("%d cache misses in the timed loop, want every query a hit", n)
	}
}

// atomicAdd is a tiny helper giving each RunParallel goroutine a
// distinct deterministic seed.
func atomicAdd(p *int64) int64 { return atomic.AddInt64(p, 1) }

// BenchmarkScalingParallelism sweeps the UserHistory/PairCount task
// counts, the §3.1 linear-scalability requirement. Note: tasks are
// goroutines, so throughput can only grow up to the machine's core
// count — on a single-core runner the sweep measures pure coordination
// overhead and higher task counts are expected to be slower.
func BenchmarkScalingParallelism(b *testing.B) {
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("tasks=%d", par), func(b *testing.B) {
			actions := genBenchActions(b.N, 200, 100)
			st := topology.NewMemState()
			p := topology.Params{FlushInterval: 50 * time.Millisecond}
			topo, err := topology.NewBuilder("bench", topology.NewSliceSpout(actions), st, p).
				WithParallelism(topology.Parallelism{
					Spout: 2, Pretreatment: 2,
					UserHistory: par, ItemCount: par, PairCount: par, Storage: 2,
				}).
				Build()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if _, err := topo.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "actions/s")
		})
	}
}

// coreActions is the unclustered action stream of the ablation benches.
func coreActions(n int) []core.Action {
	rng := rand.New(rand.NewSource(7))
	types := []core.ActionType{core.ActionBrowse, core.ActionClick, core.ActionRead, core.ActionPurchase}
	out := make([]core.Action, n)
	for i := range out {
		out[i] = core.Action{
			User: fmt.Sprintf("u%d", rng.Intn(500)),
			Item: fmt.Sprintf("i%d", rng.Intn(300)),
			Type: types[rng.Intn(len(types))],
			Time: benchStart.Add(time.Duration(i) * time.Second),
		}
	}
	return out
}

// --- Ablation benches (DESIGN.md §6) ----------------------------------------

// clusteredActions mixes strong same-cluster co-consumption with weak
// cross-cluster noise — the regime where the Hoeffding bound prunes.
func clusteredActions(n int) []core.Action {
	rng := rand.New(rand.NewSource(11))
	out := make([]core.Action, n)
	for i := range out {
		u := rng.Intn(200)
		cluster := u % 4
		var item int
		typ := core.ActionPurchase
		if rng.Float64() < 0.85 {
			item = cluster*25 + rng.Intn(25) // own cluster, strong signal
		} else {
			item = rng.Intn(100) // cross-cluster noise
			typ = core.ActionBrowse
		}
		out[i] = core.Action{
			User: fmt.Sprintf("u%d", u),
			Item: fmt.Sprintf("i%d", item),
			Type: typ,
			Time: benchStart.Add(time.Duration(i) * time.Second),
		}
	}
	return out
}

// BenchmarkAblationPruning compares per-action pair-update work with the
// Hoeffding pruning of §4.1.4 on and off, on clustered traffic where
// cross-cluster pairs are provably dissimilar.
func BenchmarkAblationPruning(b *testing.B) {
	for _, delta := range []float64{0, 0.05} {
		name := "off"
		if delta > 0 {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			actions := clusteredActions(b.N)
			cf := core.NewItemCF(core.Config{TopK: 5, PruningDelta: delta, MaxUserHistory: 60})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cf.Observe(actions[i])
			}
			b.StopTimer()
			st := cf.Stats()
			if st.Observations > 0 {
				b.ReportMetric(float64(st.PairUpdates)/float64(st.Observations), "pair_updates/action")
				b.ReportMetric(float64(st.PrunedPairs), "pruned_pairs")
			}
		})
	}
}

// BenchmarkAblationCombiner compares store writes per action with the
// interval-flush combiner of §5.3 on and off, under hot-item traffic.
func BenchmarkAblationCombiner(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			// Hot-item skew: one item absorbs most actions (§5.3).
			rng := rand.New(rand.NewSource(3))
			actions := make([]topology.RawAction, b.N)
			for i := range actions {
				item := "hot-news"
				if rng.Float64() > 0.8 {
					item = fmt.Sprintf("i%d", rng.Intn(50))
				}
				actions[i] = topology.RawAction{
					User:   fmt.Sprintf("u%d", rng.Intn(200)),
					Item:   item,
					Action: "read",
					TS:     benchStart.Add(time.Duration(i) * 20 * time.Millisecond).UnixNano(),
				}
			}
			st := topology.NewMemState()
			p := topology.Params{FlushInterval: 100 * time.Millisecond, DisableCombiner: disable, CacheSize: -1}
			topo, err := topology.NewBuilder("bench", topology.NewSliceSpout(actions), st, p).Build()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if _, err := topo.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			_, puts := st.Ops()
			b.ReportMetric(float64(puts)/float64(b.N), "store_puts/action")
		})
	}
}

// BenchmarkAblationCache compares store reads per action with the
// fine-grained cache of §5.2 on and off, under burst locality.
func BenchmarkAblationCache(b *testing.B) {
	for _, size := range []int{-1, 4096} {
		name := "on"
		if size < 0 {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			actions := genBenchActions(b.N, 50, 40) // few users: high key locality
			st := topology.NewMemState()
			p := topology.Params{FlushInterval: 100 * time.Millisecond, CacheSize: size}
			topo, err := topology.NewBuilder("bench", topology.NewSliceSpout(actions), st, p).Build()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if _, err := topo.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			gets, _ := st.Ops()
			b.ReportMetric(float64(gets)/float64(b.N), "store_gets/action")
		})
	}
}

// BenchmarkAblationWindow sweeps the sliding-window size W (Eq. 10).
func BenchmarkAblationWindow(b *testing.B) {
	for _, w := range []int{0, 8, 64} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			actions := coreActions(b.N)
			cf := core.NewItemCF(core.Config{WindowSessions: w, SessionDuration: time.Hour})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cf.Observe(actions[i])
			}
		})
	}
}

// BenchmarkAblationIncrementalVsBatch compares absorbing one new rating
// incrementally (Eq. 8) against a full batch retrain (§4.1.3's argument).
func BenchmarkAblationIncrementalVsBatch(b *testing.B) {
	prep := coreActions(20000)
	b.Run("incremental", func(b *testing.B) {
		cf := core.NewItemCF(core.Config{})
		for _, a := range prep {
			cf.Observe(a)
		}
		actions := coreActions(b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cf.Observe(actions[i])
		}
	})
	b.Run("batch-retrain", func(b *testing.B) {
		bc := core.NewBatchCF(20)
		for _, a := range prep {
			bc.Rate(a.User, a.Item, 1)
		}
		actions := coreActions(b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bc.Rate(actions[i].User, actions[i].Item, 1)
			bc.Train() // the cost a non-incremental system pays per refresh
		}
	})
}
