package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"tencentrec"
	"tencentrec/internal/serving"
)

// Every size below is a frozen constant, calibrated once on the 2-core
// reference box (README "Calibration") and never derived at run time: a
// faster program finishes the same inputs sooner, it is not handed more.
// Counts are per second of -seconds so the driver's run_seconds, -smoke
// and a longer -selfcheck all use one table; -seed selects the generated
// inputs and nothing else.

// shape is one traffic shape: who acts on what, and how far apart.
type shape struct {
	users, items int
	// itemZipf > 1 draws items Zipf(itemZipf); 0 draws them uniformly.
	itemZipf float64
	// step is the event-time distance between consecutive actions.
	step time.Duration
	// linked is Params.LinkedTime (0 = unbounded co-rating window).
	linked time.Duration
}

var (
	// News-like: few actions per user inside the 1 h linked time, so an
	// action forms ≈0.02 pairs and the per-action path dominates.
	sparseShape = shape{users: 200000, items: 5000, step: time.Second, linked: time.Hour}
	// Heavy users on a skewed catalogue with no linked time: histories
	// fill towards MaxUserHistory and an action fans out into tens of
	// pairs, so the pair path dominates.
	denseShape = shape{users: 500, items: 2000, itemZipf: 1.1, step: time.Second}
	// The serving data set: ≈6 actions per user, all inside the linked
	// time of the wall clock, so /recommend reads real similar lists.
	serveShape = shape{users: 6000, items: 12000, step: 100 * time.Millisecond, linked: 6 * time.Hour}
)

// lane rates of the open-loop tail phase, per second. The third lane,
// queries, runs at tailQueries in every workload.
type tailRates struct {
	actions, probes int
}

// workload is one row of the benchmark: a traffic shape, a store engine
// and how the measured seconds are split over the phases. Phase
// fractions sum to 1.
type workload struct {
	name string
	// why is BENCHMARK.json's one-line reason for the workload.
	why string
	// headline is the end-to-end metric the workload exists for; the traced
	// run reports tracing's cost as its relative worsening.
	headline string
	shape    shape
	engine   string // "mdb" or "ldb"
	// warmup actions are ingested to quiescence during set-up, paced over
	// warmupSpread, three times on fresh systems; setup_s is the median.
	warmup int
	// bulkPerSec × (bulkFrac × seconds) actions are bulk-published in the
	// ingest phase, clocked first publish → quiescence. Every workload has
	// one, because every workload reports ingest_cpu_us_per_action.
	bulkPerSec int
	bulkFrac   float64
	// hotFrac: closed loop, 2 clients, Zipf-1.2 keys (result cache hit).
	// coldFrac: open loop at coldPerSec sweeping a permutation of every
	// key (result cache bypassed), each workload on the state it built.
	hotFrac, coldFrac float64
	// tailFrac: open loop of actions, hot-shaped queries and freshness
	// probes side by side.
	tailFrac float64
	tail     tailRates
}

const (
	wIngestSparse = "ingest-sparse"
	wIngestDense  = "ingest-dense"
	wServeMix     = "serve-mix"
	wSteadyMixed  = "steady-mixed"
)

// coldPerSec is the cold sweep's rate. The smallest key space (dense:
// 2 500 keys) is revisited every 1.25 s, well past the 500 ms result TTL.
const coldPerSec = 2000

// tailQueries is the tail's query rate. With Zipf-1.2 keys and the 500 ms
// result TTL it puts the cache hit share near 0.65, so the median is a
// cached answer. At 1 000-1 500 queries/s the share is 0.50-0.55 and the
// median sits on the step between a hit (6-9 µs) and a miss (15-100 µs).
const tailQueries = 4000

var workloads = []workload{
	{
		name:     wIngestSparse,
		why:      "0.02 pairs per action: broker, spout, JSON decode, transport hops and the history codec do the work, the pair stages little",
		headline: "ingest_cpu_us_per_action",
		shape:    sparseShape, engine: "mdb",
		warmup: 20000, bulkPerSec: 90000, bulkFrac: 0.6,
		coldFrac: 0.15,
		tailFrac: 0.25, tail: tailRates{actions: 4000, probes: 100},
	},
	{
		name:     wIngestDense,
		why:      "tens of pairs per action: userHistory fan-out, pairCount, combiner, list merge and resultStorage do the work, the broker little",
		headline: "ingest_cpu_us_per_action",
		shape:    denseShape, engine: "mdb",
		// 27 600 bulk actions: the store's maps grow by doubling, and with
		// 21 600 the run ended on such a step (heap 61 MB at 22 000 actions,
		// 92 MB at 26 000, 103 MB at 36 000), which made heap_live_mb jump
		// between runs.
		warmup: 600, bulkPerSec: 2300, bulkFrac: 0.6,
		coldFrac: 0.15,
		tailFrac: 0.25, tail: tailRates{actions: 100, probes: 100},
	},
	{
		name:     wServeMix,
		why:      "read-mostly: a hot phase served by the result cache and a long cold sweep that bypasses it and reads and decodes from the store",
		headline: "query_p50_us",
		shape:    serveShape, engine: "mdb",
		warmup: 3000, bulkPerSec: 4000, bulkFrac: 0.3,
		hotFrac: 0.15, coldFrac: 0.3,
		tailFrac: 0.25, tail: tailRates{actions: 500, probes: 100},
	},
	{
		name:     wSteadyMixed,
		why:      "writes beside reads on the durable LDB engine below the knee: event-to-queryable latency, where batching harder or caching longer shows as worse freshness",
		headline: "freshness_p50_ms",
		shape:    sparseShape, engine: "ldb",
		warmup: 12000, bulkPerSec: 30000, bulkFrac: 0.25,
		coldFrac: 0.15,
		tailFrac: 0.6, tail: tailRates{actions: 4000, probes: 40},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// phase lengths for a run of the given measured seconds.
func (w workload) hotDur(seconds float64) time.Duration  { return secs(w.hotFrac * seconds) }
func (w workload) coldDur(seconds float64) time.Duration { return secs(w.coldFrac * seconds) }
func (w workload) tailDur(seconds float64) time.Duration { return secs(w.tailFrac * seconds) }
func (w workload) bulkN(seconds float64) int {
	return int(float64(w.bulkPerSec) * w.bulkFrac * seconds)
}

// warmupN is the warm-up size: the frozen constant at the benchmark's
// run length, scaled down with shorter (smoke) runs so set-up does not
// outlast what it sets up.
func (w workload) warmupN(seconds float64) int {
	return int(float64(w.warmup) * min(seconds/runSeconds, 1))
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// action is one generated input: indices into the shape's user and item
// spaces. Event times are assigned at publish (base + i×step, ending at
// the wall clock) so the linked-time filter of the serving path sees
// recent histories; the generated bytes do not depend on the clock.
type action struct {
	user, item int32
}

func userName(u int32) string { return fmt.Sprintf("u%d", u) }
func itemName(i int32) string { return fmt.Sprintf("i%d", i) }

// inputs is everything a run feeds the system, generated from the seed
// before the clock starts.
type inputs struct {
	warmup []action
	bulk   []action
	tail   []action
	// hot and cold are query streams: kind (0 recommend, 1 similar,
	// 2 hot) and the key index.
	hot  []query
	cold []query
	tq   []query
	// stagger is each freshness probe's first-poll delay, uniform over
	// one negative-cache TTL (serving.DefaultNegativeTTL).
	stagger []time.Duration
}

type query struct {
	kind uint8
	key  int32
}

const (
	qRecommend = iota
	qSimilar
	qHot
)

// hotPool is how many pre-drawn hot-shaped queries a closed-loop client
// cycles through.
const hotPool = 8192

func genActions(rng *rand.Rand, sh shape, n int) []action {
	var z *rand.Zipf
	if sh.itemZipf > 1 {
		z = rand.NewZipf(rng, sh.itemZipf, 1, uint64(sh.items-1))
	}
	out := make([]action, n)
	for i := range out {
		out[i].user = int32(rng.Intn(sh.users))
		if z != nil {
			out[i].item = int32(z.Uint64())
		} else {
			out[i].item = int32(rng.Intn(sh.items))
		}
	}
	return out
}

// genHotQueries draws the 60/30/10 recommend/similar/hot mix with
// Zipf-1.2 keys.
func genHotQueries(rng *rand.Rand, sh shape, n int) []query {
	uz := rand.NewZipf(rng, 1.2, 1, uint64(sh.users-1))
	iz := rand.NewZipf(rng, 1.2, 1, uint64(sh.items-1))
	out := make([]query, n)
	for i := range out {
		switch p := rng.Float64(); {
		case p < 0.6:
			out[i] = query{qRecommend, int32(uz.Uint64())}
		case p < 0.9:
			out[i] = query{qSimilar, int32(iz.Uint64())}
		default:
			out[i] = query{qHot, int32(uz.Uint64())}
		}
	}
	return out
}

// genColdQueries sweeps a seeded permutation of every user (recommend)
// and every item (similar), repeating the permutation as needed, so a
// key is revisited only after all the others.
func genColdQueries(rng *rand.Rand, sh shape, n int) []query {
	all := make([]query, 0, sh.users+sh.items)
	for u := 0; u < sh.users; u++ {
		all = append(all, query{qRecommend, int32(u)})
	}
	for i := 0; i < sh.items; i++ {
		all = append(all, query{qSimilar, int32(i)})
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	out := make([]query, n)
	for i := range out {
		out[i] = all[i%len(all)]
	}
	return out
}

func generate(w workload, seed int64, seconds float64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		warmup: genActions(rng, w.shape, w.warmupN(seconds)),
		bulk:   genActions(rng, w.shape, w.bulkN(seconds)),
	}
	tail := w.tailDur(seconds).Seconds()
	in.tail = genActions(rng, w.shape, int(float64(w.tail.actions)*tail))
	in.tq = genHotQueries(rng, w.shape, int(tailQueries*tail))
	if w.hotFrac > 0 {
		in.hot = genHotQueries(rng, w.shape, hotPool)
	}
	in.cold = genColdQueries(rng, w.shape, int(coldPerSec*w.coldDur(seconds).Seconds()))
	in.stagger = make([]time.Duration, int(float64(w.tail.probes)*tail))
	for i := range in.stagger {
		in.stagger[i] = time.Duration(rng.Int63n(int64(serving.DefaultNegativeTTL)))
	}
	return in
}

// digest hashes the generated inputs; the determinism test compares it
// across seeds.
func (in *inputs) digest() [32]byte {
	h := sha256.New()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, as := range [][]action{in.warmup, in.bulk, in.tail} {
		put(int64(len(as)))
		for _, a := range as {
			put(int64(a.user)<<32 | int64(a.item))
		}
	}
	for _, qs := range [][]query{in.hot, in.cold, in.tq} {
		put(int64(len(qs)))
		for _, q := range qs {
			put(int64(q.kind)<<32 | int64(q.key))
		}
	}
	for _, d := range in.stagger {
		put(int64(d))
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// params returns the topology parameters of a shape; everything else is
// the system default.
func (sh shape) params() tencentrec.Params {
	return tencentrec.Params{LinkedTime: sh.linked}
}
