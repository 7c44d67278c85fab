package topology

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"tencentrec/internal/core"
	"tencentrec/internal/keyhash"
	"tencentrec/internal/obsv"
	"tencentrec/internal/stream"
)

// failBatchGetState fails the next `fail` BatchGetHashed calls.
type failBatchGetState struct {
	*MemState
	fail atomic.Int64
}

func (s *failBatchGetState) BatchGetHashed(keys []string, hs []uint64) ([][]byte, []bool, error) {
	if s.fail.Add(-1) >= 0 {
		return nil, nil, errors.New("store unavailable")
	}
	return s.MemState.BatchGetHashed(keys, hs)
}

var tickTuple = &stream.Tuple{Component: UnitPairCount, Stream: stream.TickStream}

func pairDelta(pair string, delta float64) *stream.Tuple {
	return pairDeltaAt(pair, delta, 0)
}

func pairDeltaAt(pair string, delta float64, session int64) *stream.Tuple {
	return pairDeltaRun(stream.Run{{Key: pair, Num: delta}}, session)
}

// pairDeltaRun is a pair_delta tuple: a run of {pair, "", delta} rows that
// share a session.
func pairDeltaRun(rows stream.Run, session int64) *stream.Tuple {
	return stream.NewTuple(UnitUserHistory, StreamPairDelta,
		stream.Fields{"pair", "session"}, stream.Values{rows, session})
}

// simRows flattens the sim runs a bolt emitted into their rows.
func simRows(out []stream.Values) stream.Run {
	var rows stream.Run
	for _, v := range out {
		rows = append(rows, v[0].(stream.Run)...)
	}
	return rows
}

// putItemCounts stores an itemCount of n for every item.
func putItemCounts(t *testing.T, st State, p Params, n float64, items ...string) {
	t.Helper()
	for _, item := range items {
		raw, _, err := addToCounter(nil, false, p.WindowSessions, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		key := prefixItemCount + item
		if err := st.PutHashed(key, keyhash.String(key), raw); err != nil {
			t.Fatal(err)
		}
	}
}

func preparedPairCount(t *testing.T, st State, p Params, out *[]stream.Values) *PairCountBolt {
	t.Helper()
	b := NewPairCountBolt(st, p)().(*PairCountBolt)
	if err := b.Prepare(stream.TopologyContext{}, &stubCollector{out: out}); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPairCountPrunedFlagReadError: a pair's durable pl: flag is read with
// the flush's batched prefetch, never on the tuple path. A failed read is
// the flush's error and settles nothing: the interval's deltas are kept,
// the flag is asked for again on the next tick, the durably pruned pair is
// never counted and never emitted, and its live neighbour is counted once.
func TestPairCountPrunedFlagReadError(t *testing.T) {
	p := Params{}.withDefaults()
	st := &failBatchGetState{MemState: NewMemState()}
	pruned, live := pairID("a", "b"), pairID("a", "c")
	if err := st.Put(prefixPruned+pruned, []byte{1}); err != nil {
		t.Fatal(err)
	}
	putItemCounts(t, st, p, 3, "a", "b", "c")
	var out []stream.Values
	b := preparedPairCount(t, st, p, &out)
	gets0, _ := st.Ops()
	for _, pair := range []string{pruned, live} {
		if err := b.Execute(pairDelta(pair, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if gets, _ := st.Ops(); gets != gets0 {
		t.Fatalf("the tuple path read the store %d times", gets-gets0)
	}
	st.fail.Store(1)
	if err := b.Execute(tickTuple); err == nil {
		t.Fatal("flush swallowed the failed batched read")
	}
	if len(out) != 0 {
		t.Fatalf("a flush that read nothing emitted %v", out)
	}
	if err := b.Execute(tickTuple); err != nil {
		t.Fatalf("flush after the store recovered: %v", err)
	}
	for _, r := range simRows(out) {
		if r.Key == "b" || r.Str == "b" {
			t.Fatalf("durably pruned pair emitted %v", r)
		}
	}
	if len(out) != 1 || len(simRows(out)) != 2 {
		t.Fatalf("live pair emitted %d sim rows in %d tuples, want 2 in one run: %v", len(simRows(out)), len(out), out)
	}
	if _, counted, _ := st.MemState.Get(prefixPairCount + pruned); counted {
		t.Fatal("durably pruned pair was counted")
	}
	if got := readStateCounter(t, st, prefixPairCount+live, 0, 0); got != 1 {
		t.Fatalf("live pair counted %v across the failed flush, want 1", got)
	}
	// The pruned pair is now known: its next delta is dropped unread.
	gets1, _ := st.Ops()
	if err := b.Execute(pairDelta(pruned, 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Execute(tickTuple); err != nil {
		t.Fatal(err)
	}
	if gets, _ := st.Ops(); gets != gets1 {
		t.Fatalf("a known-pruned pair cost %d store reads", gets-gets1)
	}
}

// TestPairCountJobListMatchesReference: the interval's job list is the pair
// stage's combiner. A seeded interleaving of deltas over a few hundred pairs
// and three sessions, offered in runs of one to six rows — a session change
// in the middle of an interval, late deltas of the session before it, one
// failing batched read followed by a good tick — leaves every pc: counter
// equal, session by session, to the plain sums of what was offered, every
// pn: total equal to the number of deltas offered, and two sim rows per
// applied job: nothing is lost or counted twice across the failed read, and
// sessions never merge. With the combiner off a run is an interval of its
// rows: one batched read and one batched write per run, and a failed read
// fails the tuple, whose replay counts every row once. A pair
// whose durable pl: flag is set is never counted or emitted; with pruning
// on, a pair the Hoeffding test prunes on its first job of an interval is
// withdrawn there and its second job of that interval is dropped.
func TestPairCountJobListMatchesReference(t *testing.T) {
	for _, combine := range []bool{true, false} {
		for _, pruning := range []bool{false, true} {
			t.Run(fmt.Sprintf("combiner=%v/pruning=%v", combine, pruning), func(t *testing.T) {
				testPairCountJobList(t, combine, pruning)
			})
		}
	}
}

func testPairCountJobList(t *testing.T, combine, pruning bool) {
	const window = 4 // holds all three sessions
	p := Params{WindowSessions: window, DisableCombiner: !combine}
	if pruning {
		p.PruningDelta = 0.5
	}
	p = p.withDefaults()
	st := &failBatchGetState{MemState: NewMemState()}
	var items []string
	for i := 0; i < 24; i++ {
		items = append(items, fmt.Sprintf("i%02d", i))
	}
	var pairs []string
	for i := range items {
		for j := i + 1; j < len(items); j++ {
			pairs = append(pairs, pairID(items[i], items[j]))
		}
	}
	putItemCounts(t, st, p, 50, items...)
	// dead is pruned durably before the bolt ever sees it. doomed has items
	// so popular, and list thresholds so high, that with pruning on its first
	// score fails the Hoeffding test.
	dead, doomed := pairID("dx", "dy"), pairID("hx", "hy")
	putItemCounts(t, st, p, 1e6, "dx", "dy", "hx", "hy")
	if err := st.Put(prefixPruned+dead, []byte{1}); err != nil {
		t.Fatal(err)
	}
	for _, item := range []string{"hx", "hy"} {
		if err := st.Put(prefixThreshold+item, encodeFloat(0.9)); err != nil {
			t.Fatal(err)
		}
	}
	var out []stream.Values
	b := preparedPairCount(t, st, p, &out)

	ref := make(map[string]map[int64]float64) // pair -> session -> sum of deltas
	offered := make(map[string]float64)       // pair -> deltas offered
	open := make(map[string]int64)            // pair -> session of its latest job this interval
	jobs := 0
	failNext := false
	offerRun := func(rows stream.Run, session int64) {
		t.Helper()
		tup := pairDeltaRun(rows, session)
		if failNext {
			failNext = false
			st.fail.Store(1)
			if err := b.Execute(tup); err == nil {
				t.Fatal("the tuple path swallowed the failed batched read")
			}
			// The failed tuple is replayed, as the spout would.
		}
		gets0, puts0 := st.Ops()
		if err := b.Execute(tup); err != nil {
			t.Fatal(err)
		}
		if gets, puts := st.Ops(); combine && (gets != gets0 || puts != puts0) {
			t.Fatalf("a buffered run cost %d reads and %d writes", gets-gets0, puts-puts0)
		}
		for _, row := range rows {
			pair := row.Key
			if pair == dead || (pruning && pair == doomed) {
				continue
			}
			if ref[pair] == nil {
				ref[pair] = make(map[int64]float64)
			}
			ref[pair][session] += row.Num
			offered[pair]++
			if s, ok := open[pair]; !ok || s != session {
				jobs++
				open[pair] = session
			}
		}
		if !combine {
			clear(open) // the run was its own interval
		}
	}
	offer := func(pair string, delta float64, session int64) {
		t.Helper()
		offerRun(stream.Run{{Key: pair, Num: delta}}, session)
	}
	tick := func() {
		t.Helper()
		if err := b.Execute(tickTuple); err != nil {
			t.Fatal(err)
		}
		clear(open)
	}
	rng := rand.New(rand.NewSource(25))
	random := func(n int, sessions ...int64) {
		for n > 0 {
			rows := make(stream.Run, min(n, 1+rng.Intn(6)))
			for i := range rows {
				rows[i] = stream.Row{Key: pairs[rng.Intn(len(pairs))], Num: float64(1+rng.Intn(8)) / 4}
			}
			offerRun(rows, sessions[rng.Intn(len(sessions))])
			n -= len(rows)
		}
	}

	// Interval 1: every pair's first delta is in session 0, so the late
	// session-0 deltas below land in their own session.
	for _, i := range rng.Perm(len(pairs)) {
		offer(pairs[i], 0.5, 0)
	}
	offer(dead, 1, 0)
	random(300, 0)
	tick()
	// Interval 2: the session changes in the middle of it, with stragglers.
	random(200, 0)
	offer(doomed, 0.5, 0)
	offer(doomed, 0.5, 0)
	offer(doomed, 0.5, 1)
	random(600, 0, 1)
	if combine {
		// Its flush cannot read: the jobs stay and interval 3 merges into them.
		st.fail.Store(1)
		before := len(out)
		if err := b.Execute(tickTuple); err == nil {
			t.Fatal("flush swallowed the failed batched read")
		}
		if len(out) != before {
			t.Fatalf("a flush that read nothing emitted %v", out[before:])
		}
	} else {
		failNext = true
	}
	random(400, 1)
	tick()
	// Interval 4.
	offer(dead, 1, 2)
	offer(doomed, 0.5, 2)
	random(500, 1, 2)
	tick()

	for _, pair := range pairs {
		key := prefixPairCount + pair
		var below float64
		for s := int64(0); s <= 2; s++ {
			upTo := readStateCounter(t, st, key, window, s)
			if got, want := upTo-below, ref[pair][s]; math.Abs(got-want) > 1e-9 {
				t.Fatalf("%q session %d counted %v, offered %v", pair, s, got, want)
			}
			below = upTo
		}
		if pruning {
			if got := readStateCounter(t, st, prefixPairN+pair, 0, 0); got != offered[pair] {
				t.Fatalf("%q: pn %v, %v deltas offered", pair, got, offered[pair])
			}
		}
	}
	if _, counted, _ := st.MemState.Get(prefixPairCount + dead); counted {
		t.Fatal("durably pruned pair was counted")
	}
	var live, doomedOut stream.Run
	for _, r := range simRows(out) {
		switch r.Key {
		case "dx", "dy":
			t.Fatalf("durably pruned pair emitted %v", r)
		case "hx", "hy":
			if pruning {
				doomedOut = append(doomedOut, r)
				continue
			}
		}
		live = append(live, r)
	}
	if len(live) != 2*jobs {
		t.Fatalf("%d sim rows for %d applied jobs, want two each", len(live), jobs)
	}
	if !pruning {
		return
	}
	// doomed's first job is two deltas combined, one uncombined; the rest of
	// what it was offered is dropped.
	first := 1.0
	if !combine {
		first = 0.5
	}
	if got := readStateCounter(t, st, prefixPairCount+doomed, window, 2); got != first {
		t.Fatalf("pruned pair counted %v, want its first job's %v", got, first)
	}
	if got := readStateCounter(t, st, prefixPairN+doomed, 0, 0); got != first/0.5 {
		t.Fatalf("pruned pair's pn %v, want its first job's %v", got, first/0.5)
	}
	if _, flagged, _ := st.MemState.Get(prefixPruned + doomed); !flagged {
		t.Fatal("pruned pair has no pl: flag")
	}
	if len(doomedOut) != 4 || doomedOut[0].Num <= 0 || doomedOut[2].Num != 0 || doomedOut[3].Num != 0 {
		t.Fatalf("pruned pair emitted %v, want one score and its withdrawal", doomedOut)
	}
}

// TestPairCountSeenPairExecuteAllocatesNothing: a delta for a pair the task
// has an entry for is one map probe and an add into the pair's job.
func TestPairCountSeenPairExecuteAllocatesNothing(t *testing.T) {
	var out []stream.Values
	b := preparedPairCount(t, NewMemState(), Params{}.withDefaults(), &out)
	tup := pairDelta(pairID("a", "b"), 1)
	if err := b.Execute(tup); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := b.Execute(tup); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Execute of a delta for a seen pair: %v allocs/op, want 0", allocs)
	}
}

// TestPairCountWritesOncePerPair: N combined pairs in one flush are N
// pair-counter writes and one sim run of 2N rows; nothing is rescored on the next
// tick, and the final tick's rescore of the same pairs reads the counters
// and writes none of them.
func TestPairCountWritesOncePerPair(t *testing.T) {
	p := Params{}.withDefaults()
	st := NewMemState()
	const n = 50
	items := []string{"hub"}
	for i := 0; i < n; i++ {
		items = append(items, fmt.Sprintf("i%d", i))
	}
	putItemCounts(t, st, p, 4, items...)
	var out []stream.Values
	b := preparedPairCount(t, st, p, &out)
	for round := 0; round < 3; round++ { // three deltas per pair, combined
		for _, item := range items[1:] {
			if err := b.Execute(pairDelta(pairID("hub", item), 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, puts0 := st.Ops()
	if err := b.Execute(tickTuple); err != nil {
		t.Fatal(err)
	}
	_, puts1 := st.Ops()
	if puts1-puts0 != n || len(out) != 1 || len(simRows(out)) != 2*n {
		t.Fatalf("flush of %d combined pairs: %d writes, %d sim rows in %d tuples; want %d and %d in one run",
			n, puts1-puts0, len(simRows(out)), len(out), n, 2*n)
	}
	if err := b.Execute(tickTuple); err != nil {
		t.Fatal(err)
	}
	if _, puts := st.Ops(); puts != puts1 || len(out) != 1 {
		t.Fatalf("idle tick: %d writes, %d more sim tuples; want none", puts-puts1, len(out)-1)
	}
	final := &stream.Tuple{Component: UnitPairCount, Stream: stream.TickStream, Values: stream.Values{"final"}}
	if err := b.Execute(final); err != nil {
		t.Fatal(err)
	}
	if _, puts := st.Ops(); puts != puts1 {
		t.Fatalf("final tick over unchanged pairs wrote %d counters", puts-puts1)
	}
	if rows := simRows(out); len(out) != 2 || len(rows) != 4*n {
		t.Fatalf("final tick rescored %d pairs in %d tuples, want %d in one run", (len(rows)-2*n)/2, len(out)-1, n)
	}
	want := 3.0 / 4.0 // pc 3 over sqrt(4·4)
	for _, r := range simRows(out) {
		if math.Abs(r.Num-want) > 1e-12 {
			t.Fatalf("sim %v, want %v", r, want)
		}
	}
}

// TestPairCountZeroCountGuardWritesNothing: a pair whose item count has
// not landed is counted once, published never, and retried by a rescore
// that leaves the store alone until the count is there.
func TestPairCountZeroCountGuardWritesNothing(t *testing.T) {
	p := Params{}.withDefaults()
	st := NewMemState()
	putItemCounts(t, st, p, 2, "a")
	var out []stream.Values
	b := preparedPairCount(t, st, p, &out)
	pair := pairID("a", "b")
	if err := b.Execute(pairDelta(pair, 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Execute(tickTuple); err != nil {
		t.Fatal(err)
	}
	_, puts := st.Ops()
	for i := 0; i < 3; i++ {
		if err := b.Execute(tickTuple); err != nil {
			t.Fatal(err)
		}
	}
	if _, again := st.Ops(); again != puts || len(out) != 0 {
		t.Fatalf("guard retries wrote %d values and emitted %v", again-puts, out)
	}
	putItemCounts(t, st, p, 2, "b")
	if err := b.Execute(tickTuple); err != nil {
		t.Fatal(err)
	}
	_, after := st.Ops()
	if rows := simRows(out); len(rows) != 2 || math.Abs(rows[0].Num-0.5) > 1e-12 || after != puts+1 { // +1: the test's own put of ic:b
		t.Fatalf("retry after the count landed: emitted %v, %d bolt writes", out, after-puts-1)
	}
	if err := b.Execute(tickTuple); err != nil {
		t.Fatal(err)
	}
	if len(simRows(out)) != 2 {
		t.Fatalf("a scored pair stayed in the retry set: %v", out)
	}
}

// TestItemCountFlushReadError: one failing BatchGet costs an error, not an
// interval of counts. The deltas the failed flush drained go back into the
// combiner and land with the next tick, so the final counts are the
// library's.
func TestItemCountFlushReadError(t *testing.T) {
	actions := genActions(71, 800, 20, 16)
	p := Params{}
	st := &failBatchGetState{MemState: NewMemState()}
	b := NewItemCountBolt(st, p)().(*ItemCountBolt)
	if err := b.Prepare(stream.TopologyContext{}, nil); err != nil {
		t.Fatal(err)
	}
	cf := libEngine(p.withDefaults(), actions)
	now := time.Unix(0, actions[len(actions)-1].TS)
	// Feed the item deltas the library implies: one per first (user, item)
	// rating and per weight increase, which is what userHistory emits.
	best := make(map[string]float64)
	weights := p.withDefaults().Weights
	feed := func(as []RawAction) {
		for _, a := range as {
			k := a.User + "\x00" + a.Item
			w := weights[core.ActionType(a.Action)]
			if d := w - best[k]; d > 0 {
				best[k] = w
				tup := stream.NewTuple(UnitUserHistory, StreamItemDelta,
					stream.Fields{"item", "delta", "session"}, stream.Values{a.Item, d, int64(0)})
				if err := b.Execute(tup); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	feed(actions[:400])
	st.fail.Store(1)
	if err := b.Execute(tickTuple); err == nil {
		t.Fatal("flush swallowed the failed batched read")
	}
	feed(actions[400:])
	if err := b.Execute(tickTuple); err != nil {
		t.Fatalf("flush after the store recovered: %v", err)
	}
	for i := 0; i < 16; i++ {
		item := fmt.Sprintf("i%d", i)
		want := cf.ItemCount(item, now)
		if got := readStateCounter(t, st, prefixItemCount+item, 0, 0); math.Abs(got-want) > 1e-9 {
			t.Fatalf("itemCount(%s) = %v after a failed flush, library %v", item, got, want)
		}
	}
}

// tickRounds is stream_tick_rounds_total summed over its causes.
func tickRounds(t *testing.T, reg *obsv.Registry) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var families map[string][]struct {
		Value *int64 `json:"value"`
	}
	if err := json.Unmarshal(buf.Bytes(), &families); err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, row := range families["stream_tick_rounds_total"] {
		n += *row.Value
	}
	return n
}

// TestFirstTickRoundScoresExactly: one wave of actions through a
// long-running topology, all of it buffered in the combiners before the
// first tick round, the idle round that follows the wave. The engine ticks
// itemCount before pairCount and waits for the first to have executed, so
// after that one live round —
// no Quiesce, no final tick — every stored similarity is the library's.
// (With free-running per-bolt tickers a score could read item counts that
// were half flushed or not flushed at all, and was only repaired one
// interval later.)
func TestFirstTickRoundScoresExactly(t *testing.T) {
	actions := genActions(59, 400, 15, 12)
	cf := libEngine(Params{}.withDefaults(), actions)
	now := time.Unix(0, actions[len(actions)-1].TS)
	const interval = 250 * time.Millisecond
	par := Parallelism{ItemCount: 2, PairCount: 2}
	for run := 0; run < 4; run++ {
		st := NewMemState()
		p := Params{FlushInterval: interval}
		release := make(chan struct{}, 1)
		var emitted atomic.Int64
		// One action more than is ever released keeps the spout idling.
		spout := func() stream.Spout {
			return &roundSpout{actions: append(actions[:len(actions):len(actions)], RawAction{}), round: len(actions), release: release, emitted: &emitted}
		}
		reg := obsv.NewRegistry()
		topo, err := NewBuilder("firstround", spout, st, p).WithParallelism(par).WithObservability(reg, nil).Build()
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		h := topo.SubmitWithErrorHandler(func(c string, err error) { t.Errorf("component %s: %v", c, err) })
		release <- struct{}{}
		for emitted.Load() < int64(len(actions)) || h.InFlight() != 0 {
			time.Sleep(100 * time.Microsecond)
		}
		// The round is over when it has been counted (its last ticks are sent
		// by then) and what they emitted has been executed and written.
		for tickRounds(t, reg) == 0 || h.InFlight() != 0 {
			time.Sleep(100 * time.Microsecond)
		}
		// It scored the whole wave if it began after the wave was in: had any
		// of it entered later, the pipeline going idle again would have brought
		// a second round a sixteenth of the interval after the first (and a
		// wave that outlasts the interval is cut by a period round).
		time.Sleep(interval / 8)
		if n := tickRounds(t, reg); n != 1 {
			h.Stop()
			h.Wait()
			t.Skipf("%d tick rounds %v after the start: the first began before the whole wave was in", n, time.Since(start))
		}
		srv := NewServing(st, p)
		checked := 0
		for i := 0; i < 12; i++ {
			item := fmt.Sprintf("i%d", i)
			list, err := srv.SimilarItems(item, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[string]float64, len(list))
			for _, s := range list {
				got[s.Item] = s.Score
			}
			for j := 0; j < 12; j++ {
				other := fmt.Sprintf("i%d", j)
				want := cf.Similarity(item, other, now)
				if i == j || want == 0 {
					continue
				}
				checked++
				if math.Abs(got[other]-want) > 1e-9 {
					t.Errorf("run %d: sim(%s,%s) = %v after the first round, library %v", run, item, other, got[other], want)
				}
			}
		}
		h.Stop()
		h.Wait()
		if t.Failed() {
			return
		}
		if checked < 60 {
			t.Fatalf("only %d similarities checked; workload too thin", checked)
		}
	}
}

// pairCountIntervalEmpty fails unless the bolt holds nothing of an interval:
// no job, no touched pair, no entry in the touched pairs' index.
func pairCountIntervalEmpty(t *testing.T, b *PairCountBolt) {
	t.Helper()
	if len(b.jobs) != 0 || len(b.touched) != 0 || len(b.touchOf) != 0 {
		t.Fatalf("after the tick: %d jobs, %d touched pairs, %d index entries; want none",
			len(b.jobs), len(b.touched), len(b.touchOf))
	}
}

// TestPairCountTickLeavesOneRecordPerPair: a pair's state past its interval
// is one 16-byte record, found again by its id however many times the index
// grew; everything else about an interval is gone when its tick returns.
func TestPairCountTickLeavesOneRecordPerPair(t *testing.T) {
	if size := unsafe.Sizeof(pairRec{}); size != 16 {
		t.Fatalf("pairRec is %d bytes, want 16", size)
	}
	p := Params{}.withDefaults()
	st := NewMemState()
	var items []string
	for i := 0; i < 30; i++ {
		items = append(items, fmt.Sprintf("i%02d", i))
	}
	putItemCounts(t, st, p, 50, items...)
	var out []stream.Values
	b := preparedPairCount(t, st, p, &out)
	var pairs []string
	for i := range items {
		for j := i + 1; j < len(items); j++ {
			pairs = append(pairs, pairID(items[i], items[j]))
		}
	}
	for round := 0; round < 3; round++ {
		// Each round touches a different two thirds of the pairs, twice each.
		var touched []string
		for i, pair := range pairs {
			if i%3 != round {
				touched = append(touched, pair, pair)
			}
		}
		for i := 0; i < len(touched); i += 7 {
			rows := make(stream.Run, 0, 7)
			for _, pair := range touched[i:min(i+7, len(touched))] {
				rows = append(rows, stream.Row{Key: pair, Num: 1})
			}
			if err := b.Execute(pairDeltaRun(rows, 0)); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Execute(tickTuple); err != nil {
			t.Fatal(err)
		}
		pairCountIntervalEmpty(t, b)
	}
	if len(b.recs) != len(pairs) {
		t.Fatalf("%d records for %d pairs", len(b.recs), len(pairs))
	}
	seen := make(map[uint32]bool)
	for _, pair := range pairs {
		r, ok := b.pair(pair)
		if !ok || seen[r] || !b.isPair(r, pair) {
			t.Fatalf("pair %q: record %d (ok %v, seen %v)", pair, r, ok, seen[r])
		}
		seen[r] = true
		if rec := &b.recs[r]; !rec.is(recCounted) || rec.is(recPruned|recRetry) {
			t.Fatalf("pair %q: record flags %04b, want counted only", pair, rec.state&(1<<recFlagBits-1))
		}
		if got := readStateCounter(t, st, prefixPairCount+pair, 0, 0); got != 4 {
			t.Fatalf("pair %q counted %v, want 4", pair, got)
		}
	}
	if len(b.recs) != len(pairs) {
		t.Fatalf("looking the pairs up again entered %d records", len(b.recs)-len(pairs))
	}
}

// TestPairCountSlotHashHalfIsNotThePair: a slot whose hash half matches an
// id holds that pair only if its record's item ids say so.
func TestPairCountSlotHashHalfIsNotThePair(t *testing.T) {
	var out []stream.Values
	b := preparedPairCount(t, NewMemState(), Params{}.withDefaults(), &out)
	x, y := pairID("a", "b"), pairID("c", "d")
	rx, _ := b.pair(x)
	// Move x's slot to y's first probe, under y's hash half.
	for i, s := range b.slots {
		if uint32(s) == rx+1 {
			b.slots[i] = 0
		}
	}
	hy := maphash.String(b.seed, y)
	b.slots[hy&uint64(len(b.slots)-1)] = hy>>32<<32 | uint64(rx+1)
	if ry, ok := b.pair(y); !ok || ry == rx || len(b.recs) != 2 || !b.isPair(ry, y) {
		t.Fatalf("looking up %q under %q's hash half gave record %d of %d (ok %v)", y, x, ry, len(b.recs), ok)
	}
}

// TestPairCountRejectsRowsItCannotKeep: a pair id that joins no two items,
// and a session too large to pack beside a record's flags, fail their tuple
// and enter no record; the run's other rows are counted.
func TestPairCountRejectsRowsItCannotKeep(t *testing.T) {
	var out []stream.Values
	b := preparedPairCount(t, NewMemState(), Params{}.withDefaults(), &out)
	good := pairID("a", "b")
	if err := b.Execute(pairDeltaRun(stream.Run{{Key: "ab", Num: 1}, {Key: good, Num: 1}}, 0)); err == nil {
		t.Fatal("a pair id with no separator was taken")
	}
	if err := b.Execute(pairDeltaAt(pairID("c", "d"), 1, 1<<59)); err == nil {
		t.Fatal("a session of 2^59 was taken")
	}
	if len(b.recs) != 1 || !b.isPair(0, good) || len(b.jobs) != 1 {
		t.Fatalf("%d records, %d jobs; want the good row's one each", len(b.recs), len(b.jobs))
	}
}

// TestPairCountPairTouchedAgainScoresAsReference: a pair counted in interval
// 1, left alone in interval 2 and touched again in interval 3 carries
// nothing of interval 1 but its record, and interval 3 counts on from the
// stored counter: each session's count is the plain sum of what was offered
// in it (the reference of TestPairCountJobListMatchesReference), and the
// score is Eq. 7 over that count.
func TestPairCountPairTouchedAgainScoresAsReference(t *testing.T) {
	const window = 4
	// No cache: every key the flush stages is a store read.
	p := Params{WindowSessions: window, CacheSize: -1}.withDefaults()
	st := NewMemState()
	putItemCounts(t, st, p, 4, "a", "b", "c")
	var out []stream.Values
	b := preparedPairCount(t, st, p, &out)
	x, y := pairID("a", "b"), pairID("b", "c")
	ref := map[int64]float64{}
	offer := func(pair string, delta float64, session int64) {
		t.Helper()
		if err := b.Execute(pairDeltaAt(pair, delta, session)); err != nil {
			t.Fatal(err)
		}
		if pair == x {
			ref[session] += delta
		}
	}
	tick := func() stream.Run {
		t.Helper()
		out = out[:0]
		if err := b.Execute(tickTuple); err != nil {
			t.Fatal(err)
		}
		pairCountIntervalEmpty(t, b)
		return simRows(out)
	}
	offer(x, 0.5, 0)
	offer(x, 0.25, 0)
	tick()
	offer(y, 1, 0)
	if rows := tick(); len(rows) != 2 || rows[0].Key != "b" || rows[0].Str != "c" {
		t.Fatalf("interval 2 emitted %v, want y's two rows", rows)
	}
	gets0, _ := st.Ops()
	offer(x, 1, 1)
	rows := tick()
	gets, _ := st.Ops()
	// The batched read of x's counter and both item counts, no pl: flag: it
	// was read in interval 1.
	if gets-gets0 != 3 {
		t.Fatalf("interval 3 read %d keys, want 3", gets-gets0)
	}
	var below float64
	for s := int64(0); s <= 1; s++ {
		upTo := readStateCounter(t, st, prefixPairCount+x, window, s)
		if got := upTo - below; math.Abs(got-ref[s]) > 1e-12 {
			t.Fatalf("session %d counted %v, offered %v", s, got, ref[s])
		}
		below = upTo
	}
	want := core.Similarity(ref[0]+ref[1], 4, 4)
	if len(rows) != 2 || rows[0].Num != want || rows[1].Num != want {
		t.Fatalf("interval 3 emitted %v, want sim(a,b) = %v both ways", rows, want)
	}
}

// TestPairCountFinalTickRescoresEarlierPairsInIDOrder: the final tick
// rescores every counted, unpruned pair, however many intervals ago it was
// last touched, in pair-id order: the order of the ids as strings, not of
// their first items, where one first item is a prefix of another.
func TestPairCountFinalTickRescoresEarlierPairsInIDOrder(t *testing.T) {
	p := Params{}.withDefaults()
	st := NewMemState()
	items := []string{"z", "a", "ab", "a\x01", "m", "b"}
	putItemCounts(t, st, p, 2, items...)
	var out []stream.Values
	b := preparedPairCount(t, st, p, &out)
	var want []string
	for round, pairs := range [][]string{
		{pairID("z", "m"), pairID("a", "z")},
		{pairID("ab", "z"), pairID("a\x01", "z")},
		{pairID("a", "b")},
		{},
	} {
		for _, pair := range pairs {
			if err := b.Execute(pairDeltaAt(pair, 1, int64(round))); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Execute(tickTuple); err != nil {
			t.Fatal(err)
		}
		want = append(want, pairs...)
	}
	slices.Sort(want)
	out = out[:0]
	final := &stream.Tuple{Component: UnitPairCount, Stream: stream.TickStream, Values: stream.Values{"final"}}
	if err := b.Execute(final); err != nil {
		t.Fatal(err)
	}
	var got []string
	for i, r := range simRows(out) {
		if i%2 == 0 {
			got = append(got, pairID(r.Key, r.Str))
		}
	}
	if len(out) != 1 || !slices.Equal(got, want) {
		t.Fatalf("final tick rescored %q in %d runs, want %q in one", got, len(out), want)
	}
}

// TestPairCountSeenPairNewIntervalAllocatesNothing: a delta for a pair seen
// in an earlier interval is a probe of the record table and an entry in the
// interval's lists, which keep their capacity from one interval to the next.
func TestPairCountSeenPairNewIntervalAllocatesNothing(t *testing.T) {
	const n = 500
	var out []stream.Values
	b := preparedPairCount(t, NewMemState(), Params{}.withDefaults(), &out)
	tuples := make([]*stream.Tuple, n)
	for i := range tuples {
		tuples[i] = pairDelta(pairID("a", fmt.Sprintf("i%03d", i)), 1)
		if err := b.Execute(tuples[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Execute(tickTuple); err != nil {
		t.Fatal(err)
	}
	next := 0
	allocs := testing.AllocsPerRun(n-1, func() {
		if err := b.Execute(tuples[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("first delta of an interval for a seen pair: %v allocs/op, want 0", allocs)
	}
	if len(b.touched) != n {
		t.Fatalf("%d pairs touched, want %d", len(b.touched), n)
	}
}

// TestPairCountIntervalListsShrinkAfterBurst: the interval's lists follow
// the load down: a burst's job list, touched list and index are dropped by
// the first quiet interval after it, not kept for the life of the task.
func TestPairCountIntervalListsShrinkAfterBurst(t *testing.T) {
	p := Params{}.withDefaults()
	var out []stream.Values
	st := NewMemState()
	b := preparedPairCount(t, st, p, &out)
	tick := func() {
		t.Helper()
		if err := b.Execute(tickTuple); err != nil {
			t.Fatal(err)
		}
		out = nil
	}
	rows := make(stream.Run, 0, 5000)
	putItemCounts(t, st, p, 1, "a")
	for i := 0; i < 5000; i++ {
		item := fmt.Sprintf("i%04d", i)
		putItemCounts(t, st, p, 1, item)
		rows = append(rows, stream.Row{Key: pairID("a", item), Num: 1})
	}
	if err := b.Execute(pairDeltaRun(rows, 0)); err != nil {
		t.Fatal(err)
	}
	tick()
	if cap(b.jobs) < 5000 || cap(b.touched) < 5000 || b.touchPeak != 5000 {
		t.Fatalf("after the burst: jobs cap %d, touched cap %d, index peak %d", cap(b.jobs), cap(b.touched), b.touchPeak)
	}
	if err := b.Execute(pairDeltaRun(rows[:10], 0)); err != nil {
		t.Fatal(err)
	}
	tick()
	if cap(b.jobs) > 1024 || cap(b.touched) > 1024 || b.touchPeak != 0 {
		t.Fatalf("after a quiet interval: jobs cap %d, touched cap %d, index peak %d; want the burst's dropped",
			cap(b.jobs), cap(b.touched), b.touchPeak)
	}
}

// TestEmptyFlushDropsBurstSlabs: a tick with nothing staged applies the
// quarter rule too. A burst of 5,000 keys grows each flushing bolt's pooled
// batch (and pairCount's interval lists) past 4,096 entries; the next tick,
// whose interval staged nothing, leaves none of them over 1,024 entries
// instead of keeping them for the life of the task.
func TestEmptyFlushDropsBurstSlabs(t *testing.T) {
	const burst = 5000
	p := Params{}.withDefaults()
	pool := func(ts *taskState) int {
		if ts.pool == nil {
			return 0
		}
		return cap(ts.pool.ents)
	}
	tick := func(t *testing.T, b stream.Bolt) {
		t.Helper()
		if err := b.Execute(tickTuple); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("pairCount", func(t *testing.T) {
		st := NewMemState()
		var out []stream.Values
		b := preparedPairCount(t, st, p, &out)
		rows := make(stream.Run, 0, burst)
		putItemCounts(t, st, p, 1, "a")
		for i := 0; i < burst; i++ {
			item := fmt.Sprintf("i%04d", i)
			putItemCounts(t, st, p, 1, item)
			rows = append(rows, stream.Row{Key: pairID("a", item), Num: 1})
		}
		if err := b.Execute(pairDeltaRun(rows, 0)); err != nil {
			t.Fatal(err)
		}
		tick(t, b)
		if pool(b.st) <= 4096 || cap(b.jobs) <= 4096 || cap(b.touched) <= 4096 || b.touchPeak <= 4096 {
			t.Fatalf("after the burst: pool %d, jobs %d, touched %d, index peak %d; want each past 4,096",
				pool(b.st), cap(b.jobs), cap(b.touched), b.touchPeak)
		}
		tick(t, b)
		if pool(b.st) > 1024 || cap(b.jobs) > 1024 || cap(b.touched) > 1024 || b.touchPeak > 1024 {
			t.Fatalf("after an empty interval: pool %d, jobs %d, touched %d, index peak %d; want each at most 1,024",
				pool(b.st), cap(b.jobs), cap(b.touched), b.touchPeak)
		}
	})
	itemCount := NewItemCountBolt(NewMemState(), p)().(*ItemCountBolt)
	db := NewDBBolt(NewMemState(), p)().(*DBBolt)
	for _, tc := range []struct {
		name string
		bolt stream.Bolt
		st   func() *taskState
		tup  func(item string) *stream.Tuple
	}{
		{"itemCount", itemCount, func() *taskState { return itemCount.st }, func(item string) *stream.Tuple {
			return stream.NewTuple(UnitUserHistory, StreamItemDelta,
				stream.Fields{"item", "delta", "session"}, stream.Values{item, 1.0, int64(0)})
		}},
		{"db", db, func() *taskState { return db.st }, func(item string) *stream.Tuple {
			return stream.NewTuple(UnitUserHistory, StreamGroupDelta,
				stream.Fields{"group", "item", "weight", "session"}, stream.Values{"g", item, 1.0, int64(0)})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.bolt.Prepare(stream.TopologyContext{}, nil); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < burst; i++ {
				if err := tc.bolt.Execute(tc.tup(fmt.Sprintf("i%04d", i))); err != nil {
					t.Fatal(err)
				}
			}
			tick(t, tc.bolt)
			if pool(tc.st()) <= 4096 {
				t.Fatalf("after the burst: pool %d, want past 4,096", pool(tc.st()))
			}
			tick(t, tc.bolt)
			if pool(tc.st()) > 1024 {
				t.Fatalf("after an empty interval: pool %d, want at most 1,024", pool(tc.st()))
			}
		})
	}
}

// BenchmarkPairCountResidentBytes: what a pairCount task keeps per pair it
// has seen. It is the live heap of a task fed 150,000 distinct pairs of 600
// items less that of one fed the first 50,000, over the 100,000 pairs
// between: both have long filled what is bounded (the cache, the interner,
// the pooled batch). Each runs over its own MemState in 4,096-pair
// intervals, and a task's heap is the live heap with it less the live heap
// once it is dropped, its store kept.
func BenchmarkPairCountResidentBytes(b *testing.B) {
	const items, small, large, interval = 600, 50000, 150000, 4096
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var runs []stream.Run
	for i, n := 0, 0; i < items && n < large; i++ {
		for j := i + 1; j < items && n < large; j, n = j+1, n+1 {
			if n%20 == 0 {
				runs = append(runs, make(stream.Run, 0, 20))
			}
			runs[len(runs)-1] = append(runs[len(runs)-1], stream.Row{Key: pairID(fmt.Sprintf("i%03d", i), fmt.Sprintf("i%03d", j)), Num: 1})
		}
	}
	feed := func(pairs int) (*PairCountBolt, *MemState) {
		st := NewMemState()
		for i := 0; i < items; i++ {
			raw, _, _ := addToCounter(nil, false, 0, 0, 5)
			if err := st.Put(prefixItemCount+fmt.Sprintf("i%03d", i), raw); err != nil {
				b.Fatal(err)
			}
		}
		var out []stream.Values
		bolt := NewPairCountBolt(st, Params{})().(*PairCountBolt)
		if err := bolt.Prepare(stream.TopologyContext{}, &stubCollector{out: &out}); err != nil {
			b.Fatal(err)
		}
		runs := runs[:pairs/20]
		for i, rows := range runs {
			if err := bolt.Execute(pairDeltaRun(rows, 0)); err != nil {
				b.Fatal(err)
			}
			if (i+1)%(interval/20) == 0 || i == len(runs)-1 {
				if err := bolt.Execute(tickTuple); err != nil {
					b.Fatal(err)
				}
				out = nil
			}
		}
		return bolt, st
	}
	var perPair float64
	for range b.N {
		few, st1 := feed(small)
		many, st2 := feed(large)
		both := liveHeap()
		runtime.KeepAlive(few)
		one := liveHeap()
		runtime.KeepAlive(many)
		none := liveHeap()
		perPair = (float64(one-none) - float64(both-one)) / (large - small)
		runtime.KeepAlive(st1)
		runtime.KeepAlive(st2)
	}
	b.ReportMetric(perPair, "B/pair")
}
