package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"tencentrec"
)

// Phase implementations. Load comes from at most three goroutines: one
// publisher, one querier (two in the closed-loop hot phase, where
// nothing is published) and one prober.

// respWriter is a reusable in-process http.ResponseWriter, so a query
// costs the handler's work and not a recorder allocation.
type respWriter struct {
	hdr  http.Header
	code int
	body []byte
}

func newRespWriter() *respWriter { return &respWriter{hdr: make(http.Header, 4)} }

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) WriteHeader(c int)   { w.code = c }
func (w *respWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}
func (w *respWriter) reset() {
	clear(w.hdr)
	w.code = http.StatusOK
	w.body = w.body[:0]
}

// listN is the n every query asks for.
const listN = 10

func queryURL(q query) string {
	switch q.kind {
	case qRecommend:
		return fmt.Sprintf("/recommend?user=%s&n=%d", userName(q.key), listN)
	case qSimilar:
		return fmt.Sprintf("/similar?item=%s&n=%d", itemName(q.key), listN)
	default:
		return fmt.Sprintf("/hot?user=%s&n=%d", userName(q.key), listN)
	}
}

// buildRequests pre-builds one request per query, outside any clock.
// Requests are not shared between goroutines: ServeMux records the
// matched pattern on the request it routes.
func buildRequests(qs []query) []*http.Request {
	out := make([]*http.Request, len(qs))
	for i, q := range qs {
		out[i] = httptest.NewRequest(http.MethodGet, queryURL(q), nil)
	}
	return out
}

// client issues queries through System.Handler in-process.
type client struct {
	h  http.Handler
	rw *respWriter
	// decodeEvery is how often an answer's body is decoded and checked
	// (the status is checked every time): 1 in the open loops, more in
	// the closed loop, where decoding a list costs about as much as the
	// cached query that produced it and would be timed as part of it.
	decodeEvery int
	// lat holds one latency per query, by kind, in nanoseconds.
	lat    [3][]int64
	issued int
	bad    int
}

func newClient(h http.Handler) *client {
	return &client{h: h, rw: newRespWriter(), decodeEvery: 1}
}

// do serves one request and returns when the handler finished.
func (c *client) do(req *http.Request) time.Time {
	c.rw.reset()
	c.h.ServeHTTP(c.rw, req)
	return time.Now()
}

// record files the query's latency and checks the answer: status 200
// and a JSON list of at most listN well-formed scored items.
func (c *client) record(kind uint8, lat time.Duration) {
	c.lat[kind] = append(c.lat[kind], int64(lat))
	if c.rw.code != http.StatusOK || (c.issued%c.decodeEvery == 0 && !validList(c.rw.body)) {
		c.bad++
	}
	c.issued++
}

func validList(body []byte) bool {
	var list []tencentrec.ScoredItem
	if err := json.Unmarshal(body, &list); err != nil || len(list) > listN {
		return false
	}
	for _, s := range list {
		if s.Item == "" || math.IsNaN(s.Score) || math.IsInf(s.Score, 0) {
			return false
		}
	}
	return true
}

// all returns every latency the client recorded.
func (c *client) all() []int64 {
	var out []int64
	for _, l := range c.lat {
		out = append(out, l...)
	}
	return out
}

// pacer is an open-loop schedule: operation i is due at start+i/rate,
// whatever the system does. late records how far behind its due time the
// generator issued each operation.
//
// Latencies are timed from the issue time wait returns, not from the due
// time: on the reference VM a sleep of any length under a millisecond
// takes 1.1 ms (time.Sleep) or overshoots by 0.07-1 ms (nanosleep), so
// a 30 µs query timed from its due time would measure the timer. What
// the due-time rule guards against, a stalled system hiding behind a
// generator that politely waits, is covered by reporting late and
// failing steady-mixed when its median passes lateLimit.
type pacer struct {
	start    time.Time
	interval time.Duration
	// burst operations fall due together, every burst×interval.
	burst int
	late  []int64
}

func newPacer(start time.Time, interval time.Duration, burst, n int) *pacer {
	return &pacer{start: start, interval: interval, burst: burst, late: make([]int64, 0, n)}
}

// every is the interval of perSec evenly spaced operations a second.
func every(perSec int) time.Duration { return time.Second / time.Duration(max(perSec, 1)) }

// wait sleeps until operation i is due and returns the issue time.
func (p *pacer) wait(i int) time.Time {
	due := p.start.Add(time.Duration(i-i%p.burst) * p.interval)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	now := time.Now()
	p.late = append(p.late, int64(now.Sub(due)))
	return now
}

// bulkResult is the closed-loop ingest phase's outcome.
type bulkResult struct {
	n       int
	elapsed time.Duration // first publish → quiescence
	cpu     time.Duration // process CPU time used over elapsed
}

// cpuPerAction is the phase's process CPU time per action, microseconds.
func (b bulkResult) cpuPerAction() float64 {
	return ratio(float64(b.cpu.Microseconds()), float64(b.n))
}

// bulk publishes every action as fast as the broker takes them and
// clocks first publish → quiescence.
func (r *rig) bulk(actions []action, sp *spans) (bulkResult, error) {
	res := bulkResult{n: len(actions)}
	if len(actions) == 0 {
		return res, nil
	}
	start, cpu0 := time.Now(), processCPU()
	for i, a := range actions {
		if sp != nil && i%spanEvery == 0 {
			t0 := time.Now()
			r.publish(a)
			sp.add("publish", "action", int64(i), t0, time.Now())
			continue
		}
		r.publish(a)
	}
	q, err := r.q.wait(r.published.Load(), 5*time.Minute)
	if err != nil {
		return res, err
	}
	res.elapsed, res.cpu = q.at.Sub(start), q.cpu-cpu0
	return res, nil
}

// warmupSpread is how long the warm-up slice of a set-up takes to
// publish. Set-up paces it instead of publishing flat out so setup_s does
// not time a phase that keeps both cores busy, the noisiest kind on the
// reference VM.
const warmupSpread = 800 * time.Millisecond

// warm publishes the warm-up slice evenly over warmupSpread and returns
// first publish → quiescence.
func (r *rig) warm(actions []action) (time.Duration, error) {
	if len(actions) == 0 {
		return 0, nil
	}
	start := time.Now()
	p := newPacer(start, warmupSpread/time.Duration(len(actions)), 1, len(actions))
	for i, a := range actions {
		p.wait(i)
		r.publish(a)
	}
	q, err := r.q.wait(r.published.Load(), time.Minute)
	return q.at.Sub(start), err
}

// hotResult is the closed-loop serving phase's outcome.
type hotResult struct {
	clients []*client
	// perSec is the closed loop's rate taken from the median iteration:
	// clients ÷ the median time from one answer to the client's next. The
	// median leaves out the iterations a stall of the reference VM falls
	// into (5-40 ms, a few a second); completed ÷ phase length keeps them
	// and varied twice as much between identical runs.
	perSec float64
}

// hotClients is the closed loop's client count: one per core of the
// reference box. hotDecodeEvery is how often a closed-loop client decodes
// the answer's body.
const (
	hotClients     = 2
	hotDecodeEvery = 16
)

// hot runs hotClients closed-loop clients over the pre-drawn hot-shaped
// queries for d.
func (r *rig) hot(qs []query, d time.Duration, sp *spans) hotResult {
	h := r.sys.Handler()
	res := hotResult{}
	reqs := make([][]*http.Request, hotClients)
	for i := range reqs {
		c := newClient(h)
		c.decodeEvery = hotDecodeEvery
		res.clients = append(res.clients, c)
		reqs[i] = buildRequests(qs)
	}
	iters := make([][]int64, hotClients) // answer-to-answer times per client
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for ci, c := range res.clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			// Clients start at different offsets of the same pool so they
			// do not ask for the same key at the same instant.
			off := ci * len(qs) / hotClients
			t0 := time.Now()
			prev := t0
			for i := 0; t0.Before(deadline); i++ {
				k := (off + i) % len(qs)
				t1 := c.do(reqs[ci][k])
				c.record(qs[k].kind, t1.Sub(t0))
				iters[ci] = append(iters[ci], int64(t1.Sub(prev)))
				prev = t1
				if sp != nil && i%spanEvery == 0 {
					sp.add("query.hot", "query", int64(ci)<<32|int64(i), t0, t1)
				}
				// A fresh reading, so the harness's own bookkeeping is in
				// the loop's rate but in no query's latency.
				t0 = time.Now()
			}
		}(ci, c)
	}
	wg.Wait()
	var all []int64
	for _, it := range iters {
		all = append(all, it...)
	}
	res.perSec = hotClients / (median(all) / 1e9)
	return res
}

// openQueries issues qs on an open-loop schedule from one goroutine.
func (r *rig) openQueries(c *client, qs []query, reqs []*http.Request, p *pacer, name string, sp *spans) {
	for i, q := range qs {
		issued := p.wait(i)
		end := c.do(reqs[i])
		c.record(q.kind, end.Sub(issued))
		if sp != nil && i%spanEvery == 0 {
			sp.add(name, "query", int64(i), issued, end)
		}
	}
}

// queryBurst is how many open-loop queries fall due together, in the cold
// sweep and in the tail. Arrivals in bursts of 16 keep the average rate
// and the revisit distance of evenly spaced ones, but only the first
// query of a burst pays for waking a parked thread on an idle vCPU. On the
// reference VM that costs 10-20 µs, more than a cached query itself, and
// varies from run to run: evenly spaced, the tail's median read 16-26 µs
// over eight tails of one process; in bursts 8.7-9.4 µs (README
// "Calibration"). So the median times the read path, not the scheduler.
const queryBurst = 16

// coldResult is the open-loop cache-bypassing phase's outcome.
type coldResult struct {
	client *client
	pacer  *pacer
}

func (r *rig) cold(qs []query, sp *spans) coldResult {
	res := coldResult{client: newClient(r.sys.Handler())}
	reqs := buildRequests(qs)
	res.pacer = newPacer(time.Now(), every(coldPerSec), queryBurst, len(qs))
	r.openQueries(res.client, qs, reqs, res.pacer, "query.cold", sp)
	return res
}

// probe is one freshness measurement in flight.
type probe struct {
	id       int
	a, b     string
	start    time.Time
	nextPoll time.Time
}

// probeTimeout is how long a probe may stay invisible before it counts
// as failed. The check is that no action is lost: a probe that shows late
// is a slow sample of freshness_p50_ms and of system.freshness_p95_ms, not
// a wrong output. The limit is therefore far above anything a working
// system shows, a stalled host included (the driver makes 46 000 probes
// over its runs and one over the limit refuses them all; 1 s stalls of
// the whole VM were seen on the reference box, README "Calibration"),
// and short enough that a run which does lose an action still ends well
// inside the driver's 180 s.
const probeTimeout = 20 * time.Second

// tailResult is the open-loop mixed phase's outcome.
type tailResult struct {
	client   *client
	pubPacer *pacer
	qryPacer *pacer
	fresh    []int64 // publish → visible, nanoseconds, per resolved probe
	probes   int
	timedOut int
	probeRef map[string]float64
	// backlog is the broker backlog sampled by the publisher four times a
	// second of its schedule; the last sample is taken as it issues its
	// last action.
	backlog []int64
}

// tail runs the three open-loop lanes side by side for d: the publisher
// at rates.actions/s, the querier at tailQueries/s, and the prober
// starting rates.probes/s freshness probes.
//
// A probe publishes (U,A),(U,B) for a user and two items nobody else
// touches and polls SimilarItems(A) every millisecond until B shows.
// The first poll is staggered uniformly over one negative-cache TTL, so
// the TTL staircase (a miss is remembered for 100 ms) averages out
// instead of quantising every probe to a multiple of it.
func (r *rig) tail(in *inputs, rates tailRates, d time.Duration, sp *spans) (tailResult, error) {
	res := tailResult{
		client:   newClient(r.sys.Handler()),
		probes:   len(in.stagger),
		probeRef: make(map[string]float64),
	}
	if d <= 0 {
		return res, nil
	}
	reqs := buildRequests(in.tq)
	start := time.Now()
	res.pubPacer = newPacer(start, every(rates.actions), 1, len(in.tail))
	res.qryPacer = newPacer(start, every(tailQueries), queryBurst, len(in.tq))
	// runTag keeps probe ids distinct from anything generated.
	runTag := r.seq
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		sampleEvery := max(rates.actions/4, 1)
		for i, a := range in.tail {
			t0 := res.pubPacer.wait(i)
			r.publish(a)
			if sp != nil && i%spanEvery == 0 {
				sp.add("publish", "action", int64(i), t0, time.Now())
			}
			if (i+1)%sampleEvery == 0 || i == len(in.tail)-1 {
				res.backlog = append(res.backlog, r.backlog())
			}
		}
	}()
	go func() {
		defer wg.Done()
		r.openQueries(res.client, in.tq, reqs, res.qryPacer, "query.tail", sp)
	}()
	go func() {
		defer wg.Done()
		r.probeLoop(&res, in.stagger, start, every(rates.probes), runTag, sp)
	}()
	wg.Wait()
	// The phase ends at quiescence, so the checks see every action applied.
	_, err := r.q.wait(r.published.Load(), time.Minute)
	return res, err
}

// probeLoop starts probe i at start+i×interval and polls the outstanding
// ones once a millisecond until all have resolved or timed out.
func (r *rig) probeLoop(res *tailResult, stagger []time.Duration, start time.Time, interval time.Duration, runTag int64, sp *spans) {
	var active []probe
	next := 0
	for next < len(stagger) || len(active) > 0 {
		now := time.Now()
		for next < len(stagger) && !now.Before(start.Add(time.Duration(next)*interval)) {
			p := probe{
				id: next,
				a:  fmt.Sprintf("pa%d-%d", runTag, next),
				b:  fmt.Sprintf("pb%d-%d", runTag, next),
			}
			user := fmt.Sprintf("pu%d-%d", runTag, next)
			p.start = time.Now()
			okA := r.publishRaw(user, p.a, p.start)
			okB := r.publishRaw(user, p.b, p.start.Add(time.Millisecond))
			if okA {
				res.probeRef[p.a]++
			}
			if okB {
				res.probeRef[p.b]++
			}
			p.nextPoll = p.start.Add(stagger[next])
			active = append(active, p)
			next++
		}
		kept := active[:0]
		for _, p := range active {
			now = time.Now()
			if now.Before(p.nextPoll) {
				kept = append(kept, p)
				continue
			}
			list, err := r.sys.SimilarItems(p.a, listN)
			seen := false
			if err == nil {
				for _, s := range list {
					seen = seen || s.Item == p.b
				}
			}
			done := time.Now()
			switch {
			case seen:
				res.fresh = append(res.fresh, int64(done.Sub(p.start)))
				if sp != nil {
					sp.add("probe", "probe", int64(p.id), p.start, done)
				}
			case done.Sub(p.start) > probeTimeout:
				res.timedOut++
			default:
				p.nextPoll = now.Add(time.Millisecond)
				kept = append(kept, p)
			}
		}
		active = kept
		time.Sleep(time.Millisecond)
	}
}

// backlog sums the broker's per-partition backlog gauges.
func (r *rig) backlog() int64 {
	return int64(readRegistry(r.sys.Registry())["tdaccess_backlog_messages"])
}

// median returns the middle of xs (nanoseconds or any unit), sorting a
// copy. Zero when empty.
func median(xs []int64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by nearest rank on a sorted
// copy. Zero when empty.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[min(max(i, 0), len(s)-1)])
}
