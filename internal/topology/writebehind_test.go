package topology

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tencentrec/internal/core"
	"tencentrec/internal/statecodec"
	"tencentrec/internal/stream"
)

// simRun is one similarity as the sim stream carries it: a run of one row.
func simRun(item, other string, sim float64) stream.Values {
	return stream.Values{stream.Run{{Key: item, Str: other, Num: sim}}}
}

func simTuple(item, other string, sim float64) *stream.Tuple {
	return stream.NewTuple(UnitPairCount, StreamSim, simFields, simRun(item, other, sim))
}

// pruningOn is a PruningDelta under which ResultStorage publishes the
// lists' thresholds: with pruning off nothing reads them and none is
// written.
const pruningOn = 0.05

// prepared returns a list-storage bolt from factory, prepared over st.
func prepared(t *testing.T, factory stream.BoltFactory, st State) *ResultStorageBolt {
	t.Helper()
	b := factory().(*ResultStorageBolt)
	if err := b.Prepare(stream.TopologyContext{}, nil); err != nil {
		t.Fatal(err)
	}
	return b
}

// updateStoredList is the reference for MergeListEntry and every list
// writer built on it: one (item, score) update applied to a decoded
// bounded descending list, returning the new list and its threshold (the
// k-th score when full, else 0).
func updateStoredList(l storedList, item string, score float64, k int) (storedList, float64) {
	// Remove any existing entry.
	for i := range l {
		if l[i].Item == item {
			l = append(l[:i], l[i+1:]...)
			break
		}
	}
	if score > 0 {
		// Insert in descending order.
		pos := len(l)
		for i := range l {
			if score > l[i].Score {
				pos = i
				break
			}
		}
		l = append(l, core.ScoredItem{})
		copy(l[pos+1:], l[pos:])
		l[pos] = core.ScoredItem{Item: item, Score: score}
		if len(l) > k {
			l = l[:k]
		}
	}
	if len(l) >= k && k > 0 {
		return l, l[len(l)-1].Score
	}
	return l, 0
}

// perTupleRef is the write path ResultStorage had before write-behind,
// spelled with the plain codec: every sim tuple reads the list, applies
// the update and writes the list (and, for similar-items lists under
// pruning, the threshold) back.
type perTupleRef struct {
	prefix  string
	topK    int
	pruning bool
	kv      map[string][]byte
}

func (r *perTupleRef) apply(t *testing.T, item, other string, sim float64) {
	t.Helper()
	var list storedList
	if raw, ok := r.kv[r.prefix+item]; ok {
		var err error
		if list, err = decodeList(raw); err != nil {
			t.Fatal(err)
		}
	}
	list, thr := updateStoredList(list, other, sim, r.topK)
	r.kv[r.prefix+item] = statecodec.EncodeList(list)
	if r.prefix == prefixSimilar && r.pruning {
		r.kv[prefixThreshold+item] = encodeFloat(thr)
	}
}

// sameAs fails unless st holds exactly the reference's keys and bytes.
func (r *perTupleRef) sameAs(t *testing.T, st *MemState, when string) {
	t.Helper()
	if n := storedKeys(st); n != len(r.kv) {
		t.Fatalf("%s: store holds %d keys, reference %d", when, n, len(r.kv))
	}
	for k, want := range r.kv {
		got, ok, _ := st.Get(k)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("%s: %s = %d bytes %.48x… (present %v), per-tuple reference %d bytes %.48x…", when, k, len(got), got, ok, len(want), want)
		}
	}
}

// TestWriteBehindMatchesPerTupleReference: wherever the flush points
// fall in a stream of sim tuples, the store's list and threshold bytes
// after a flush are the ones the per-tuple write path would have left —
// through withdrawals (sim 0), top-K truncation, the cache-full clear and
// with the cache off, for similar-items lists (pruning on, so thresholds
// are written, and off) and AR rule lists alike.
func TestWriteBehindMatchesPerTupleReference(t *testing.T) {
	variants := []struct {
		name    string
		factory func(State, Params) stream.BoltFactory
		prefix  string
		cache   int
		pruning float64
	}{
		{"similar", NewResultStorageBolt, prefixSimilar, 0, pruningOn},
		{"similar/cache-full-clear", NewResultStorageBolt, prefixSimilar, 3, pruningOn},
		{"similar/cache-off", NewResultStorageBolt, prefixSimilar, -1, pruningOn},
		{"similar/pruning-off", NewResultStorageBolt, prefixSimilar, 0, 0},
		{"ar-rules", NewARListBolt, prefixARList, 0, pruningOn},
		{"ar-rules/cache-full-clear", NewARListBolt, prefixARList, 3, pruningOn},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				rng := rand.New(rand.NewSource(seed))
				p := Params{TopK: 5, CacheSize: v.cache, PruningDelta: v.pruning}
				st := NewMemState()
				b := prepared(t, v.factory(st, p), st)
				ref := &perTupleRef{prefix: v.prefix, topK: p.TopK, pruning: v.pruning > 0, kv: make(map[string][]byte)}
				for i := 0; i < 3000; i++ {
					item := fmt.Sprintf("i%d", rng.Intn(8))
					other := fmt.Sprintf("o%d", rng.Intn(12))
					sim := 0.0 // a withdrawal, one time in five
					if rng.Intn(5) > 0 {
						sim = float64(1+rng.Intn(40)) / 40 // ties included
					}
					if err := b.Execute(simTuple(item, other, sim)); err != nil {
						t.Fatal(err)
					}
					ref.apply(t, item, other, sim)
					if rng.Intn(10) == 0 {
						if err := b.FlushBatch(); err != nil {
							t.Fatal(err)
						}
						ref.sameAs(t, st, fmt.Sprintf("seed %d, flush after tuple %d", seed, i))
					}
				}
				// What the engine does when it retires an instance.
				if err := b.FlushBatch(); err != nil {
					t.Fatal(err)
				}
				b.Cleanup()
				ref.sameAs(t, st, fmt.Sprintf("seed %d, after the retirement flush", seed))
			}
		})
	}
}

// batchCountingState counts BatchPutHashed calls on top of MemState's
// per-key accounting.
type batchCountingState struct {
	*MemState
	batchPuts atomic.Int64
	putDelay  time.Duration
}

func (s *batchCountingState) BatchPutHashed(keys []string, hs []uint64, values [][]byte) error {
	s.batchPuts.Add(1)
	time.Sleep(s.putDelay)
	return s.MemState.BatchPutHashed(keys, hs, values)
}

// TestWriteBehindOneWritePerDrainedRun is the §5.3 cost claim for the
// last hop: N updates to one item's list between two flush points cost
// one BatchPut of two keys (list and threshold), not N.
func TestWriteBehindOneWritePerDrainedRun(t *testing.T) {
	st := &batchCountingState{MemState: NewMemState()}
	b := prepared(t, NewResultStorageBolt(st, Params{PruningDelta: pruningOn}), st)
	const n = 500
	for i := 0; i < n; i++ {
		if err := b.Execute(simTuple("hot", fmt.Sprintf("o%d", i%30), float64(1+i%7)/8)); err != nil {
			t.Fatal(err)
		}
	}
	if _, puts := st.Ops(); puts != 0 {
		t.Fatalf("%d keys written before the flush point", puts)
	}
	if err := b.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if _, puts := st.Ops(); st.batchPuts.Load() != 1 || puts != 2 {
		t.Fatalf("%d updates to one item cost %d BatchPut calls of %d keys, want 1 call of 2 keys", n, st.batchPuts.Load(), puts)
	}
	if err := b.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if st.batchPuts.Load() != 1 {
		t.Fatal("a flush with nothing staged wrote to the store")
	}
}

// simSpout emits sims[i] on StreamSim, one per NextTuple, and then
// exhausts — or, with idle set, keeps the topology running.
type simSpout struct {
	sims []stream.Values
	idle bool
	next int
	c    stream.SpoutCollector
}

func (s *simSpout) Open(_ stream.TopologyContext, c stream.SpoutCollector) error {
	s.c = c
	return nil
}

func (s *simSpout) NextTuple() bool {
	if s.next == len(s.sims) {
		if s.idle {
			time.Sleep(100 * time.Microsecond)
		}
		return s.idle
	}
	s.c.EmitTo(StreamSim, s.sims[s.next])
	s.next++
	return true
}

func (s *simSpout) Close() {}

func (s *simSpout) DeclareOutputFields() map[string]stream.Fields {
	return map[string]stream.Fields{StreamSim: simFields}
}

// TestWriteBehindFlushErrorKeepsListsDirty: a failed flush loses nothing —
// the staged lists stay dirty and the next flush lands them.
func TestWriteBehindFlushErrorKeepsListsDirty(t *testing.T) {
	st := &failingPutState{MemState: NewMemState()}
	b := prepared(t, NewResultStorageBolt(st, Params{CacheSize: -1, PruningDelta: pruningOn}), st)
	ref := &perTupleRef{prefix: prefixSimilar, topK: Params{}.withDefaults().TopK, pruning: true, kv: make(map[string][]byte)}
	for i := 0; i < 10; i++ {
		item, other, sim := fmt.Sprintf("i%d", i%3), fmt.Sprintf("o%d", i), float64(i+1)/16
		if err := b.Execute(simTuple(item, other, sim)); err != nil {
			t.Fatal(err)
		}
		ref.apply(t, item, other, sim)
	}
	st.fail = true
	if err := b.FlushBatch(); err == nil {
		t.Fatal("flush over a failing store reported success")
	}
	st.fail = false
	// More input for a list that is still staged merges into it.
	if err := b.Execute(simTuple("i0", "late", 0.99)); err != nil {
		t.Fatal(err)
	}
	ref.apply(t, "i0", "late", 0.99)
	if err := b.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	ref.sameAs(t, st.MemState, "after the retried flush")
}

type failingPutState struct {
	*MemState
	fail bool
}

func (s *failingPutState) BatchPutHashed(keys []string, hs []uint64, values [][]byte) error {
	if s.fail {
		return fmt.Errorf("store unavailable")
	}
	return s.MemState.BatchPutHashed(keys, hs, values)
}

// TestWriteBehindVisibleAtQuiesce ties the bolt to the engine's ordering
// contract end to end: inside Quiesce (in-flight count zero) the store
// holds what the per-tuple path would, with the topology still running —
// the spout idles instead of exhausting, so no shutdown flush helps.
func TestWriteBehindVisibleAtQuiesce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	st := NewMemState()
	p := Params{TopK: 5, PruningDelta: pruningOn}
	ref := &perTupleRef{prefix: prefixSimilar, topK: p.TopK, pruning: true, kv: make(map[string][]byte)}
	var sims []stream.Values
	for i := 0; i < 20000; i++ {
		item, other, sim := fmt.Sprintf("i%d", rng.Intn(50)), fmt.Sprintf("o%d", rng.Intn(30)), float64(rng.Intn(40))/40
		sims = append(sims, simRun(item, other, sim))
		ref.apply(t, item, other, sim)
	}
	tb := stream.NewTopologyBuilder("quiesce-lists")
	tb.SetSpout(UnitPairCount, func() stream.Spout { return &simSpout{sims: sims, idle: true} }, 1)
	tb.SetBolt(UnitResultStorage, NewResultStorageBolt(st, p), 2).On(UnitPairCount, StreamSim, stream.Grouping{Kind: stream.FieldsGrouping, Fields: stream.Fields{"item"}})
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := topo.SubmitWithErrorHandler(func(c string, err error) { t.Errorf("component %s: %v", c, err) })
	defer func() { h.Stop(); h.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for h.Metrics().Components[UnitPairCount].Emitted < int64(len(sims)) {
		if time.Now().After(deadline) {
			t.Fatal("spout did not emit the fixture")
		}
		time.Sleep(time.Millisecond)
	}
	if err := h.Quiesce(func() error {
		ref.sameAs(t, st, "inside Quiesce")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// keyCountingState counts the keys written, by their three-byte prefix.
type keyCountingState struct {
	*MemState
	mu       sync.Mutex
	byPrefix map[string]int
}

func (s *keyCountingState) count(keys ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		s.byPrefix[k[:3]]++
	}
}

func (s *keyCountingState) written(prefix string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byPrefix[prefix]
}

func (s *keyCountingState) PutHashed(key string, h uint64, value []byte) error {
	s.count(key)
	return s.MemState.PutHashed(key, h, value)
}

func (s *keyCountingState) BatchPutHashed(keys []string, hs []uint64, values [][]byte) error {
	s.count(keys...)
	return s.MemState.BatchPutHashed(keys, hs, values)
}

// TestThresholdsWrittenOnlyForPruning: a list's th: key has one reader,
// pairCount's pruning test. With pruning off no flush writes one; with it
// on, a flush writes a list's threshold when it is not the one this
// instance last wrote, and the bytes in the store are the list's current
// threshold all the same.
func TestThresholdsWrittenOnlyForPruning(t *testing.T) {
	merge := func(t *testing.T, b *ResultStorageBolt, other string, sim float64) {
		t.Helper()
		if err := b.Execute(simTuple("a", other, sim)); err != nil {
			t.Fatal(err)
		}
		if err := b.FlushBatch(); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("off", func(t *testing.T) {
		st := &keyCountingState{MemState: NewMemState(), byPrefix: make(map[string]int)}
		b := prepared(t, NewResultStorageBolt(st, Params{TopK: 2}), st)
		for i := 0; i < 6; i++ {
			merge(t, b, fmt.Sprintf("o%d", i), float64(i+1)/8)
		}
		if sl, th := st.written(prefixSimilar), st.written(prefixThreshold); sl != 6 || th != 0 {
			t.Fatalf("pruning off: %d sl: and %d th: keys written, want 6 and 0", sl, th)
		}
	})
	t.Run("on", func(t *testing.T) {
		st := &keyCountingState{MemState: NewMemState(), byPrefix: make(map[string]int)}
		b := prepared(t, NewResultStorageBolt(st, Params{TopK: 2, PruningDelta: pruningOn}), st)
		threshold := func() float64 {
			raw, ok, _ := st.Get(prefixThreshold + "a")
			if !ok {
				t.Fatal("no th: key")
			}
			thr, err := decodeFloat(raw)
			if err != nil {
				t.Fatal(err)
			}
			return thr
		}
		merge(t, b, "o1", 0.5) // list not full: threshold 0, written because never written
		merge(t, b, "o2", 0.7) // full: threshold 0.5
		if th := st.written(prefixThreshold); th != 2 || threshold() != 0.5 {
			t.Fatalf("%d th: writes, threshold %v; want 2 and 0.5", th, threshold())
		}
		merge(t, b, "o2", 0.9) // reorders the list above its tail: threshold unchanged
		merge(t, b, "o3", 0.1) // below the tail: list and threshold unchanged
		if sl, th := st.written(prefixSimilar), st.written(prefixThreshold); sl != 4 || th != 2 {
			t.Fatalf("%d sl: and %d th: writes after two merges that kept the threshold, want 4 and 2", sl, th)
		}
		merge(t, b, "o4", 0.6) // pushes o1 out: threshold 0.6
		if th := st.written(prefixThreshold); th != 3 || threshold() != 0.6 {
			t.Fatalf("%d th: writes, threshold %v; want 3 and 0.6", th, threshold())
		}
	})
}

// TestResultListsLandOncePerRound: a tick round's similarities reach
// resultStorage as one run, so the round writes each touched list once: N
// actions over M items cost at most M sl: writes (and no th:, pruning being
// off), where a sim tuple per row and a flush per drained batch of them
// wrote a hot item's list many times over.
func TestResultListsLandOncePerRound(t *testing.T) {
	const items = 12
	actions := genActions(59, 400, 15, items)
	st := &keyCountingState{MemState: NewMemState(), byPrefix: make(map[string]int)}
	release := make(chan struct{}, 1)
	var emitted atomic.Int64
	// One action more than is ever released keeps the spout idling; no
	// interval tick fires: the round is Quiesce's.
	spout := func() stream.Spout {
		return &roundSpout{actions: append(actions[:len(actions):len(actions)], RawAction{}), round: len(actions), release: release, emitted: &emitted}
	}
	topo, err := NewBuilder("once-per-round", spout, st, Params{FlushInterval: time.Hour}).Build()
	if err != nil {
		t.Fatal(err)
	}
	h := topo.SubmitWithErrorHandler(func(c string, err error) { t.Errorf("component %s: %v", c, err) })
	defer func() { h.Stop(); h.Wait() }()
	release <- struct{}{}
	for emitted.Load() < int64(len(actions)) || h.InFlight() != 0 {
		time.Sleep(100 * time.Microsecond)
	}
	if sl := st.written(prefixSimilar); sl != 0 {
		t.Fatalf("%d lists written before any tick", sl)
	}
	if err := h.Quiesce(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	m := h.Metrics()
	sims := m.Components[UnitPairCount].Emitted
	if sims < 8*items {
		t.Fatalf("the round scored %d similarities; workload too thin", sims)
	}
	if sl, th := st.written(prefixSimilar), st.written(prefixThreshold); sl == 0 || sl > items || th != 0 {
		t.Fatalf("one round of %d similarities over %d items wrote %d sl: and %d th: keys, want at most %d and 0", sims, items, sl, th, items)
	}
	if got := m.Components[UnitResultStorage].Executed; got != 1 {
		t.Fatalf("resultStorage executed %d tuples for one pairCount flush, want 1", got)
	}
}
