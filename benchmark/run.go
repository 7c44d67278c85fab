package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tencentrec"
	"tencentrec/internal/serving"
)

// runOpts selects one run of one workload.
type runOpts struct {
	w       workload
	seed    int64
	seconds float64
	// traced keeps harness spans, samples tuple traces (TraceEvery 64)
	// and fills the per-layer metrics that need them.
	traced bool
	// outDir holds the systems' data directories while the run lasts and
	// the trace file afterwards.
	outDir string
}

// runResult is everything one run measured.
type runResult struct {
	e2e   map[string]float64
	layer map[string]float64
	// attempted counts publishes, queries, probes and checked reference
	// entries; failed the ones that went wrong.
	attempted, failed int64
	// problems lists every failed output check in words.
	problems []string
	// actions is everything published into the measured system, in
	// publish order (probes excluded), for the sequential baseline.
	actions []action
}

func (res *runResult) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	res.failed += n
	res.problems = append(res.problems, fmt.Sprintf(format, args...))
}

// traceSampleEvery is SystemConfig.TraceEvery in the traced run.
const traceSampleEvery = 64

// setupRepeats is how many times set-up runs; setup_s is the median and
// the last system is the one measured. The driver's contract asks for
// several set-ups a run and their median, so that a later change is held
// to its set-up time by more than one sample.
const setupRepeats = 3

// lateLimit and the backlog rule are steady-mixed's sustainability
// checks: half of each generator lane's operations must be issued within
// lateLimit, one second of the lane's schedule, of their due time, and
// half of the broker backlog's samples over the tail must be under one
// second of offered load. A lane or a pipeline that cannot keep up falls
// behind for good: over the 12 s tail its median lag is seconds, and the
// checks are for that. They are not for a slow host. The reference VM
// stalls whole processes for 5-40 ms a few times a second, and in a bad
// quarter of an hour (CPU per action up by a half) five runs in a row had
// the querier 5-54 ms late at the median and the publisher 5-11 ms, so a
// limit of 5 ms failed them all; a failed check makes the driver refuse
// the benchmark, and lateness is reported for the reader as
// system.generator_late_p99_ms.
const lateLimit = time.Second

// runWorkload sets a system up, drives the workload's phases through
// it, checks the outputs and derives the metrics.
func runWorkload(o runOpts) (*runResult, error) {
	w := o.w
	res := &runResult{e2e: map[string]float64{}, layer: map[string]float64{}}
	in := generate(w, o.seed, o.seconds)
	traceEvery := -1
	var sp *spans
	if o.traced {
		traceEvery = traceSampleEvery
		sp = newSpans()
	}
	total := len(in.warmup) + len(in.bulk) + len(in.tail)
	span := time.Duration(total) * w.shape.step

	// Set-up: open a fresh system, ingest the paced warm-up slice, wait for
	// quiescence. Repeated on fresh systems so one slow open does not
	// decide setup_s; the last system carries on into the measured phases
	// warm (caches filled, queues allocated, heap grown).
	var r *rig
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		r, err = openRig(w, o.outDir, traceEvery, span)
		if err != nil {
			return nil, err
		}
		opened := time.Since(t0)
		warm, err := r.warm(in.warmup)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (opened + warm).Seconds())
	}
	defer r.close()
	sort.Float64s(setups)
	res.e2e["setup_s"] = setups[len(setups)/2]
	res.actions = append(res.actions, in.warmup...)

	// The measured phases, with every exported counter sampled at each
	// boundary so a layer metric can cover exactly one phase.
	var ph phases
	var err error
	ph.snaps[0] = takeSnapshot(r.sys)
	sp.phase("bulk", func() { ph.bulk, err = r.bulk(in.bulk, sp) })
	if err != nil {
		return nil, fmt.Errorf("bulk: %w", err)
	}
	res.actions = append(res.actions, in.bulk...)
	ph.snaps[1] = takeSnapshot(r.sys)
	if d := w.hotDur(o.seconds); d > 0 {
		sp.phase("hot", func() { ph.hot = r.hot(in.hot, d, sp) })
	}
	ph.snaps[2] = takeSnapshot(r.sys)
	sp.phase("cold", func() { ph.cold = r.cold(in.cold, sp) })
	ph.snaps[3] = takeSnapshot(r.sys)
	sp.phase("tail", func() { ph.tail, err = r.tail(in, w.tail, w.tailDur(o.seconds), sp) })
	if err != nil {
		return nil, fmt.Errorf("tail: %w", err)
	}
	res.actions = append(res.actions, in.tail...)
	ph.snaps[4] = takeSnapshot(r.sys)

	res.endToEnd(&ph)
	res.check(r, w, &ph)
	if o.traced {
		if err := res.layers(r, o, in, sp, &ph); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// phases is what the measured phases returned, and the counter snapshots
// around them: snaps[0] before bulk, then one after each of bulk, hot,
// cold and tail.
type phases struct {
	bulk  bulkResult
	hot   hotResult
	cold  coldResult
	tail  tailResult
	snaps [5]snapshot
}

// clients returns every query client of the run.
func (ph *phases) clients() []*client {
	return append([]*client{ph.tail.client, ph.cold.client}, ph.hot.clients...)
}

// endToEnd derives the end-to-end metrics. Each has one definition on
// every workload (README "End-to-end metrics").
func (res *runResult) endToEnd(ph *phases) {
	// Process CPU from the first bulk publish to quiescence per action,
	// harness included: the publisher's encode and append are part of an
	// action's cost. Nothing else runs in that window: no queries, no
	// probes, and the quiet window's polling comes after it.
	res.e2e["ingest_cpu_us_per_action"] = ph.bulk.cpuPerAction()
	res.e2e["query_p50_us"] = median(ph.tail.client.all()) / 1e3
	res.e2e["freshness_p50_ms"] = median(ph.tail.fresh) / 1e6
	res.e2e["heap_live_mb"] = heapLiveMB()
}

// check runs the output checks and fills attempted and failed.
func (res *runResult) check(r *rig, w workload, ph *phases) {
	tail := &ph.tail
	var queries, bad int
	for _, c := range ph.clients() {
		queries += c.issued
		bad += c.bad
	}
	res.attempted = r.published.Load() + r.pubErrs.Load() + int64(queries) + int64(tail.probes)
	res.fail(r.pubErrs.Load(), "%d publishes failed", r.pubErrs.Load())
	res.fail(int64(bad), "%d of %d queries were not 200 with a well-formed list", bad, queries)
	res.fail(int64(tail.timedOut), "%d of %d freshness probes not visible after %v", tail.timedOut, tail.probes, probeTimeout)
	res.fail(int64(tail.probes-tail.timedOut-len(tail.fresh)), "freshness probes unaccounted for")
	for name, c := range ph.snaps[4].stream.Components {
		res.fail(c.Errors, "component %s reported %d errors", name, c.Errors)
		res.fail(c.Dropped, "component %s dropped %d tuples", name, c.Dropped)
	}
	for item, n := range tail.probeRef {
		r.ref[item] += n
	}
	checked, missing := checkHotItems(r.sys, r.ref)
	res.attempted += checked
	res.fail(missing, "hot list disagrees with the sequential reference by %d actions", missing)
	if w.name == wSteadyMixed && !raceEnabled {
		if b, limit := int64(median(tail.backlog)), int64(w.tail.actions); b > limit {
			res.fail(b-limit, "median broker backlog %d exceeds one second of offered load", b)
		}
		for lane, p := range map[string]*pacer{"publisher": tail.pubPacer, "querier": tail.qryPacer} {
			if late := time.Duration(median(p.late)); late > lateLimit {
				res.fail(1, "%s ran %v late at the median (limit %v)", lane, late, lateLimit)
			}
		}
	}
}

// layers fills the per-layer metrics of a traced run, runs the layer
// probes and writes the trace file.
func (res *runResult) layers(r *rig, o runOpts, in *inputs, sp *spans, ph *phases) error {
	L, s, tail := res.layer, &ph.snaps, &ph.tail
	ingestLayers(L, s[0], s[1], float64(ph.bulk.n), ph.bulk.elapsed)
	L["system.bulk_actions_per_s"] = float64(ph.bulk.n) / ph.bulk.elapsed.Seconds()
	L["system.bulk_cores"] = ph.bulk.cpu.Seconds() / ph.bulk.elapsed.Seconds()
	L["system.bulk_cpu_us_per_action"] = ph.bulk.cpuPerAction()
	L["http.query_hot_per_s"] = ph.hot.perSec
	L["topology.pairs_per_action"] = pairsPerAction(L["topology.fanout_per_action"], in)
	L["tdaccess.publish_p50_us"] = median(sp.durations("publish")) / 1e3
	if n := len(tail.backlog); n > 0 {
		L["tdaccess.backlog_end"] = float64(tail.backlog[n-1])
	} else {
		L["tdaccess.backlog_end"] = 0
	}
	L["stream.queue_wait_p50_us"] = queueWaitP50(r.sys.Traces())

	var queries int
	var byKind [3][]int64
	for _, c := range ph.clients() {
		queries += c.issued
		for k := range byKind {
			byKind[k] = append(byKind[k], c.lat[k]...)
		}
	}
	whole := servingDelta(s[1], s[4])
	L["serving.cache_hit_share"] = whole.hitShare
	L["serving.hot_cache_hit_share"] = servingDelta(s[1], s[2]).hitShare
	L["serving.cold_cache_hit_share"] = servingDelta(s[2], s[3]).hitShare
	L["serving.tail_cache_hit_share"] = servingDelta(s[3], s[4]).hitShare
	L["serving.negative_hits"] = whole.negHits
	L["serving.coalesced_per_query"] = ratio(whole.coalesced, float64(queries))
	// Store reads per query are taken over the read-only phases when the
	// workload has them: in the tail the pipeline reads the store too.
	if len(ph.hot.clients) > 0 {
		L["serving.store_gets_per_query"] = ratio(servingDelta(s[1], s[3]).storeGets, float64(queries-tail.client.issued))
	} else {
		L["serving.store_gets_per_query"] = ratio(whole.storeGets, float64(queries))
	}
	L["serving.batch_keys_per_batch"] = ratio(whole.batchKeys, whole.batches)
	L["serving.hedges"] = whole.hedges
	L["serving.hedge_wins"] = whole.hedgeWins
	L["serving.evictions"] = whole.evictions

	var hotLat []int64
	for _, c := range ph.hot.clients {
		hotLat = append(hotLat, c.all()...)
	}
	late := append(append(append([]int64(nil), tail.pubPacer.late...), tail.qryPacer.late...), ph.cold.pacer.late...)
	L["http.recommend_p50_us"] = median(byKind[qRecommend]) / 1e3
	L["http.similar_p50_us"] = median(byKind[qSimilar]) / 1e3
	L["http.hot_p50_us"] = median(byKind[qHot]) / 1e3
	L["http.query_hot_p50_us"] = median(hotLat) / 1e3
	L["http.query_hot_p99_us"] = quantile(hotLat, 0.99) / 1e3
	// The cold sweep's /recommend queries alone. Its /similar queries cost a
	// quarter as much (one store read against a history and its lists), so
	// the median of the two together sits on the step between them and
	// jumps with the mix (README "Calibration").
	L["http.query_cold_p50_us"] = median(ph.cold.client.lat[qRecommend]) / 1e3
	L["http.query_cold_p99_us"] = quantile(ph.cold.client.lat[qRecommend], 0.99) / 1e3
	L["http.similar_cold_p50_us"] = median(ph.cold.client.lat[qSimilar]) / 1e3
	L["http.query_p99_us"] = quantile(tail.client.all(), 0.99) / 1e3
	L["http.handler_overhead_us"] = handlerOverhead(r.sys, in.tq)
	L["obsv.prometheus_expose_us"] = prometheusExpose(r.sys)

	L["system.freshness_p95_ms"] = quantile(tail.fresh, 0.95) / 1e6
	L["system.freshness_samples"] = float64(len(tail.fresh))
	L["system.query_samples"] = float64(queries)
	L["system.generator_late_p99_ms"] = quantile(late, 0.99) / 1e6
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	L["system.gc_pause_total_ms"] = float64(ms.PauseTotalNs) / 1e6
	L["system.peak_rss_mb"] = peakRSSMB()

	cf, seqTime := observeAll(o.w, res.actions, r.base)
	seqRate := float64(len(res.actions)) / seqTime.Seconds()
	L["core.sequential_actions_per_s"] = seqRate
	L["topology.sequential_ratio"] = ratio(L["system.bulk_actions_per_s"], seqRate)
	L["topology.similar_mismatch_share"] = similarMismatch(r.sys, cf, res.actions, o.seed)
	ps := buildProbeSample(res.actions, r.base, o.w.shape.step, cf)
	if err := runProbes(L, ps, o.outDir, cf); err != nil {
		return err
	}
	return sp.write(o.outDir, o.w.name, o.seed, r.sys.Traces())
}

// pairsPerAction turns userHistory's emissions per bulk action into pair
// deltas per action. Each action emits one group delta, one item delta
// if the (user, item) rating is new, and one pair delta per co-rated
// item; the middle term is a property of the inputs (every action is a
// click and nothing is evicted below MaxUserHistory), counted here.
func pairsPerAction(fanout float64, in *inputs) float64 {
	type ui struct{ u, i int32 }
	seen := make(map[ui]bool, len(in.warmup)+len(in.bulk))
	for _, a := range in.warmup {
		seen[ui{a.user, a.item}] = true
	}
	var fresh float64
	for _, a := range in.bulk {
		if k := (ui{a.user, a.item}); !seen[k] {
			seen[k] = true
			fresh++
		}
	}
	return fanout - 1 - fresh/float64(len(in.bulk))
}

// hotListReads is how many times checkHotItems reads the list before it
// believes a disagreement. The check is about the final state, and a read
// may lawfully be behind it by the serving tier's staleness contract
// (result TTL plus replica lag, when a hedged read is answered by a
// replica); a lost update stays lost however often the list is read.
const hotListReads = 4

// checkHotItems compares the global hot list with the sequential
// reference: after quiescence the list's scores must be exactly the K
// largest per-item popularity sums (ties may pick different items, the
// multiset of scores may not differ). It returns how many entries were
// checked and by how many actions the two disagree.
func checkHotItems(sys *tencentrec.System, ref map[string]float64) (checked, missing int64) {
	const k = 20 // topology default TopK
	want := make([]float64, 0, len(ref))
	for _, n := range ref {
		want = append(want, n)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(want)))
	want = want[:min(k, len(want))]
	checked = int64(len(want))
	for i := 0; i < hotListReads; i++ {
		// A /hot query of the tail phase may have cached the list just
		// before the last flush; let that entry expire.
		time.Sleep(serving.DefaultCacheTTL)
		if missing = hotListDiff(sys, ref, want); missing == 0 {
			break
		}
	}
	return checked, missing
}

// hotListDiff reads the hot list once and returns by how many actions it
// disagrees with want, the reference's largest sums in descending order.
func hotListDiff(sys *tencentrec.System, ref map[string]float64, want []float64) (missing int64) {
	got, err := sys.HotItems("nobody", len(want))
	if err != nil || len(got) != len(want) {
		return int64(len(want))
	}
	for i, s := range got {
		// The entry must carry its own item's true sum, and the i-th
		// largest listed sum must equal the i-th largest true sum.
		if d := ref[s.Item] - s.Score; d != 0 {
			missing += int64(max(d, -d))
		} else if d := want[i] - s.Score; d != 0 {
			missing += int64(max(d, -d))
		}
	}
	return missing
}

// heapLiveMB is the heap that survives a collection with the system
// still open: its state, caches and queues, plus the harness's own
// inputs and samples (a fixed size per workload).
func heapLiveMB() float64 {
	// Twice: a sync.Pool's contents survive one collection.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
