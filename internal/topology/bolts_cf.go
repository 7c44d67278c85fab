package topology

import (
	"cmp"
	"math"
	"slices"
	"strconv"

	"tencentrec/internal/combiner"
	"tencentrec/internal/core"
	"tencentrec/internal/demographic"
	"tencentrec/internal/obsv"
	"tencentrec/internal/statecodec"
	"tencentrec/internal/stream"
)

// Stream ids and field names flowing between the units of Fig. 6.
const (
	StreamUserAction = "user_action"
	StreamAdEvent    = "ad_event"
	StreamItemDelta  = "item_delta"
	StreamPairDelta  = "pair_delta"
	StreamGroupDelta = "group_delta"
	StreamARItem     = "ar_item"
	StreamARPair     = "ar_pair"
	StreamSim        = "sim"
	StreamItemInfo   = "item_info"
)

// combKey packs a counter key with its session for combiner buffering;
// deltas from different sessions must not merge. It runs on every
// counter delta, so it formats without fmt's reflection.
func combKey(key string, session int64) string {
	var buf [20]byte
	return key + "@" + string(strconv.AppendInt(buf[:0], session, 10))
}

// flushedDelta is one combiner output entry, ungrouped for ordered apply.
type flushedDelta struct {
	key     string
	session int64
	value   float64
}

// drainCombinerInto empties a combiner into session-ordered deltas:
// windowed counters fold too-old sessions into the window edge, so
// deltas must be applied oldest-first for results independent of map
// iteration order. The result reuses buf's backing array; callers keep
// the returned slice as next tick's buf so a steady-state flush
// allocates nothing.
func drainCombinerInto(c *combiner.Combiner, buf []flushedDelta) []flushedDelta {
	out := buf[:0]
	c.Flush(func(ck string, v float64) {
		key, session := splitCombKey(ck)
		out = append(out, flushedDelta{key: key, session: session, value: v})
	})
	slices.SortFunc(out, func(a, b flushedDelta) int {
		if c := cmp.Compare(a.session, b.session); c != 0 {
			return c
		}
		return cmp.Compare(a.key, b.key)
	})
	return out
}

// putBack returns drained deltas to the combiner they came from. A flush
// whose batched read failed has applied nothing, and the tuples behind the
// deltas left the in-flight count when they were buffered; back in the
// combiner, the interval is flushed by the next tick together with that
// tick's own.
func putBack(c *combiner.Combiner, keys *interner, deltas []flushedDelta) {
	for i := range deltas {
		c.Add(keys.comb(deltas[i].key, deltas[i].session), deltas[i].value)
	}
}

func splitCombKey(ck string) (string, int64) {
	for i := len(ck) - 1; i >= 0; i-- {
		if ck[i] == '@' {
			session, _ := strconv.ParseInt(ck[i+1:], 10, 64)
			return ck[:i], session
		}
	}
	return ck, 0
}

// PretreatmentBolt is the preprocessing layer: it parses raw TDAccess
// payloads, filters unqualified tuples and routes behaviour tuples to the
// algorithm layer ("gets data from TDAccess, parses the raw message,
// filters the unqualified data tuples", §5.1).
type PretreatmentBolt struct {
	p Params
	c stream.Collector
	// malformed counts payloads parseAction rejected; shared across tasks.
	malformed *obsv.Counter
	// vals chunk-allocates emission payloads; acts memoizes the boxing
	// of the behaviour names Params.Weights knows.
	vals valArena
	acts map[string]any
}

// newPretreatmentBolt returns the bolt factory; malformed is where it
// counts the payloads it drops (Builder's is in its metrics registry).
func newPretreatmentBolt(p Params, malformed *obsv.Counter) stream.BoltFactory {
	p = p.withDefaults()
	return func() stream.Bolt { return &PretreatmentBolt{p: p, malformed: malformed} }
}

// Prepare implements stream.Bolt.
func (b *PretreatmentBolt) Prepare(_ stream.TopologyContext, c stream.Collector) error {
	b.c = c
	b.acts = make(map[string]any, len(b.p.Weights))
	for a := range b.p.Weights {
		b.acts[string(a)] = string(a)
	}
	return nil
}

// Execute implements stream.Bolt.
func (b *PretreatmentBolt) Execute(t *stream.Tuple) error {
	if t.IsTick() {
		return nil
	}
	raw, _ := t.Value("raw").([]byte)
	a, err := parseAction(raw)
	if err != nil {
		// Bytes that are not an action frame are an unqualified tuple like
		// any other: dropped, and counted so the drop is visible, not
		// reported as a component error.
		b.malformed.Inc()
		return nil
	}
	if len(a.user) == 0 || len(a.item) == 0 || len(a.action) == 0 {
		return nil // unqualified tuple: dropped, not an error
	}
	switch string(a.action) {
	case "impression", "ad_click":
		b.c.EmitTo(StreamAdEvent, stream.Values{string(a.item), string(a.action), string(a.region),
			string(a.gender), string(a.age), string(a.position), a.ts})
	default:
		action, ok := b.acts[string(a.action)]
		if !ok {
			return nil // unknown behaviour type
		}
		b.c.EmitTo(StreamUserAction, b.vals.v4(string(a.user), string(a.item), action, a.ts))
	}
	return nil
}

// Cleanup implements stream.Bolt.
func (b *PretreatmentBolt) Cleanup() {}

// DeclareOutputFields implements stream.OutputDeclarer.
func (b *PretreatmentBolt) DeclareOutputFields() map[string]stream.Fields {
	return map[string]stream.Fields{
		StreamUserAction: {"user", "item", "action", "ts"},
		StreamAdEvent:    {"item", "etype", "region", "gender", "age", "position", "ts"},
	}
}

// UserHistoryBolt is Fig. 4's first layer: grouped by user id, it keeps
// each user's behavior history in TDStore, derives the rating delta and
// co-rating deltas of Eq. 8 from each action, and re-hashes them
// downstream — item deltas by item id, pair deltas by pair key, and
// demographic deltas by group id (the multi-hash of §5.4).
type UserHistoryBolt struct {
	p     Params
	store State
	c     stream.Collector
	st    *taskState
	// ar emits the AR chain's transaction streams.
	ar bool
	// keys interns the uh: state keys and downstream pair ids, so an
	// action builds no key strings.
	keys *interner
	// vals chunk-allocates emission payloads; sessVal/weightVal memoize
	// the interface boxings of the slow-moving session and the small
	// fixed set of action weights.
	vals      valArena
	lastSess  int64
	sessVal   any
	weightVal map[float64]any
	// emits buffers one action's derived deltas until the history write
	// lands: emitting only after a successful Put means a store failure
	// leaves nothing behind (nothing was emitted, the history is
	// unchanged) instead of deltas in flight for an action whose history
	// was never written. The slice is reused across Execute calls.
	emits []pendingEmit
}

// pendingEmit is one buffered downstream emission.
type pendingEmit struct {
	stream string
	values stream.Values
}

// newUserHistoryBolt returns the bolt factory over the shared store; its
// bolts also emit the AR chain's transaction streams when ar is set.
func newUserHistoryBolt(store State, p Params, ar bool) stream.BoltFactory {
	p = p.withDefaults()
	return func() stream.Bolt { return &UserHistoryBolt{p: p, store: store, ar: ar} }
}

// Prepare implements stream.Bolt. The taskState (and its cache) is
// rebuilt from the durable store on every (re)start — the §3.3 recovery
// story.
func (b *UserHistoryBolt) Prepare(_ stream.TopologyContext, c stream.Collector) error {
	b.c = c
	b.st = newTaskState(b.store, b.p.CacheSize)
	b.keys = newInterner(b.p.CacheSize)
	b.weightVal = make(map[float64]any, 8)
	return nil
}

// session returns the memoized boxing of session.
func (b *UserHistoryBolt) session(session int64) any {
	if b.sessVal == nil || session != b.lastSess {
		b.lastSess, b.sessVal = session, any(session)
	}
	return b.sessVal
}

// weight returns the memoized boxing of one of the Params.Weights.
func (b *UserHistoryBolt) weight(w float64) any {
	if v, ok := b.weightVal[w]; ok {
		return v
	}
	if len(b.weightVal) >= 64 {
		clear(b.weightVal)
	}
	v := any(w)
	b.weightVal[w] = v
	return v
}

// effective returns the stored rating if still inside the sliding window.
func (b *UserHistoryBolt) effective(r storedRating, session int64) float64 {
	if b.p.WindowSessions > 0 && r.Session <= session-int64(b.p.WindowSessions) {
		return 0
	}
	return r.Rating
}

// Execute implements stream.Bolt: Algorithm 1's rating, co-rating and
// history steps against the encoded frame. The rating lookup, co-rating
// scan and upsert all work on the stored bytes through the statecodec
// edits — no map is materialized and nothing is re-encoded. The lookup
// validates the whole frame before the first emission is buffered or the
// first byte changes.
func (b *UserHistoryBolt) Execute(t *stream.Tuple) error {
	if t.IsTick() {
		return nil
	}
	user := t.Value("user").(string)
	item := t.Value("item").(string)
	action := core.ActionType(t.Value("action").(string))
	ts := t.Value("ts").(int64)
	weight := b.p.Weights[action]
	if weight <= 0 {
		return nil
	}
	session := b.p.clock().SessionOf(RawAction{TS: ts}.Time())

	ukey := b.keys.key2(prefixUserHistory, user)
	raw, ok, err := b.st.Get(ukey)
	if err != nil {
		return err
	}
	if !ok {
		raw = statecodec.EncodeHistory(nil)
	}
	prev, had, ok := statecodec.FindHistoryEntry(raw, item)
	if !ok {
		return errBadFrame(ukey, raw)
	}
	oldR := 0.0
	if had {
		oldR = b.effective(prev, session)
	}
	newR := math.Max(oldR, weight)

	// Box the values shared by many emissions once per action; the
	// session and item boxings are memoized across actions.
	sessVal := b.session(session)
	itemVal := b.keys.box(item)
	if d := newR - oldR; d > 0 {
		b.emit(StreamItemDelta, b.vals.v3(itemVal, d, sessVal))
	}
	// AR transaction bookkeeping uses the pre-update timestamps.
	newTouch := !had || (b.p.LinkedTime > 0 && ts-prev.TS > int64(b.p.LinkedTime))
	if b.ar && newTouch {
		b.emit(StreamARItem, b.vals.v2(itemVal, sessVal))
	}

	// The action's co-rating deltas leave as one run (a row per co-rated
	// history entry: pair id, delta), which the engine owns once emitted.
	var pairs stream.Run
	it, _ := statecodec.IterHistory(raw)
	for {
		j, rj, more := it.Next()
		if !more {
			break
		}
		if string(j) == item {
			continue
		}
		if b.p.LinkedTime > 0 && ts-rj.TS > int64(b.p.LinkedTime) {
			continue
		}
		rJ := b.effective(rj, session)
		if rJ <= 0 {
			continue
		}
		if pairs == nil {
			n, _ := statecodec.HistoryLen(raw)
			pairs = make(stream.Run, 0, n)
		}
		pairs = append(pairs, stream.Row{Key: b.keys.pairBytes(item, j), Num: math.Min(newR, rJ) - math.Min(oldR, rJ)})
	}
	if len(pairs) > 0 {
		run := any(pairs)
		b.emit(StreamPairDelta, b.vals.v2(run, sessVal))
		if b.ar && newTouch {
			// The same rows: ARBolt counts a transaction per pair and
			// ignores the deltas.
			b.emit(StreamARPair, b.vals.v2(run, sessVal))
		}
	}

	// Demographic popularity deltas, re-hashed by group id (§5.4). The
	// global group always accumulates too: it backs recommendations for
	// users with no profile (§6.4).
	group := b.p.groupOf(user)
	weightVal := b.weight(weight)
	b.emit(StreamGroupDelta, b.vals.v4(b.keys.box(group), itemVal, weightVal, sessVal))
	if group != demographic.GlobalGroup {
		b.emit(StreamGroupDelta, b.vals.v4(b.keys.box(demographic.GlobalGroup), itemVal, weightVal, sessVal))
	}

	// The frame was validated above, so the edits cannot decline.
	out, _ := statecodec.UpsertHistoryEntry(raw, item, storedRating{Rating: newR, TS: ts, Session: session})
	if n, _ := statecodec.HistoryLen(out); n > b.p.MaxUserHistory {
		out, _ = statecodec.EvictOldestHistoryEntry(out, item)
	}
	err = b.st.Put(ukey, out)
	if err == nil {
		for _, e := range b.emits {
			b.c.EmitTo(e.stream, e.values)
		}
	}
	b.emits = b.emits[:0]
	return err
}

// emit buffers an emission until the history write succeeds.
func (b *UserHistoryBolt) emit(sid string, values stream.Values) {
	b.emits = append(b.emits, pendingEmit{stream: sid, values: values})
}

// Cleanup implements stream.Bolt.
func (b *UserHistoryBolt) Cleanup() {}

// DeclareOutputFields implements stream.OutputDeclarer.
func (b *UserHistoryBolt) DeclareOutputFields() map[string]stream.Fields {
	return map[string]stream.Fields{
		StreamItemDelta:  {"item", "delta", "session"},
		StreamPairDelta:  {"pair", "session"}, // pair: a stream.Run of {pair id, "", co-rating delta}
		StreamGroupDelta: {"group", "item", "weight", "session"},
		StreamARItem:     {"item", "session"},
		StreamARPair:     {"pair", "session"}, // pair: a stream.Run keyed by pair id
	}
}

// ItemCountBolt maintains the windowed itemCounts of Eq. 6: grouped by
// item id, buffered through a combiner, flushed to TDStore on ticks.
type ItemCountBolt struct {
	p     Params
	store State
	st    *taskState
	comb  *combiner.Combiner
	keys  *interner
	// deltas/keyBuf are flush scratch, reused across ticks.
	deltas []flushedDelta
	keyBuf []string
}

// NewItemCountBolt returns the bolt factory.
func NewItemCountBolt(store State, p Params) stream.BoltFactory {
	p = p.withDefaults()
	return func() stream.Bolt { return &ItemCountBolt{p: p, store: store} }
}

// Prepare implements stream.Bolt.
func (b *ItemCountBolt) Prepare(_ stream.TopologyContext, _ stream.Collector) error {
	b.st = newTaskState(b.store, b.p.CacheSize)
	b.keys = newInterner(b.p.CacheSize)
	if !b.p.DisableCombiner {
		b.comb = combiner.New(combiner.Sum)
	}
	return nil
}

// Execute implements stream.Bolt.
func (b *ItemCountBolt) Execute(t *stream.Tuple) error {
	if t.IsTick() {
		return b.flush()
	}
	item := t.Value("item").(string)
	delta := t.Value("delta").(float64)
	session := t.Value("session").(int64)
	if b.comb != nil {
		b.comb.Add(b.keys.comb(item, session), delta)
		return nil
	}
	_, err := b.st.addCounter(b.keys.key2(prefixItemCount, item), b.p.WindowSessions, session, delta)
	return err
}

func (b *ItemCountBolt) flush() error {
	if b.comb == nil {
		return nil
	}
	b.deltas = drainCombinerInto(b.comb, b.deltas)
	deltas := b.deltas
	if len(deltas) == 0 {
		return nil
	}
	// One batched read of every touched counter, the merged deltas
	// applied in session order against the staged view, one batched
	// write back — the tick costs two store round-trips, not 2N.
	keys := b.keyBuf[:0]
	for i := range deltas {
		keys = append(keys, b.keys.key2(prefixItemCount, deltas[i].key))
	}
	b.keyBuf = keys
	sb := b.st.batch()
	if err := sb.prefetch(keys, nil); err != nil {
		putBack(b.comb, b.keys, deltas)
		return err
	}
	var firstErr error
	for i := range deltas {
		d := &deltas[i]
		if _, err := sb.addCounter(keys[i], b.p.WindowSessions, d.session, d.value); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := sb.flush(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Cleanup implements stream.Bolt.
func (b *ItemCountBolt) Cleanup() {}

// PairCountBolt is the pairCount layer of Fig. 4 plus the similarity
// computation and real-time pruning of Algorithm 1. Grouped by pair key,
// it is the single writer of each pair's counters — "only a single worker
// node should operate over a specific item pair at some point. Therefore,
// the calculation can be safely scaled" (§4.1.3).
//
// A combined pair is counted, scored, emitted and written once per flush
// interval. The score reads itemCount's keys through the store, so it
// depends on the engine's tick order (DESIGN.md §10): itemCount's tasks
// have executed this round's tick before pairCount's tick is delivered.
//
// A pair is looked up by string once per delta, in pairs; everything else
// about it — its open job, its state keys, its items, where a flush staged
// them — hangs off the entry that probe returns.
type PairCountBolt struct {
	p     Params
	store State
	c     stream.Collector
	st    *taskState
	// pairs holds what this task knows about every pair it has seen, keyed
	// by pair id (the suffix of the entry's own pc: key); arena
	// chunk-allocates the entries.
	pairs map[string]*pairState
	arena []pairState
	// items is the member items of those pairs, pairState.a/b indexing it;
	// itemIdx finds a row by item id when a new pair is entered.
	items   []pairItem
	itemIdx map[string]uint32
	// jobs is the interval's combiner (§5.3): one job per pair and session
	// with a delta since the last flush, in first-touch order, each pair's
	// entry remembering where its latest one is. A flush appends its
	// rescores and applies the list.
	jobs []pairJob
	// recheck lists the pairs the zero-count guard deferred (pairState.retry
	// set): their score is retried on the next tick.
	recheck []*pairState
	// epoch numbers the staged batches; an entry stamped with it has its
	// keys staged in the current one.
	epoch uint32
	// sims collects the rows applyJobs' applies produce (item, other,
	// similarity), emitted as one run when the list has been applied.
	sims stream.Run
	// keys interns the pl:, pn: and th: keys: read once in a pair's life,
	// or only with pruning on.
	keys *interner
}

// pairState is one pair's in-memory state on the task that owns it. It is
// rebuilt lazily after a restart: the pl: flag is durable, and a pair is
// counted again with its next delta. A task holds one for every pair it
// ever saw, so it stays within 64 bytes.
type pairState struct {
	// pcKey is the pair's counter key, "pc:"+pair id.
	pcKey string
	// session is the latest session the pair was counted in, where the
	// guard's retry and the final tick read its windowed sums.
	session int64
	// job is the index in PairCountBolt.jobs of the pair's latest job of
	// this interval, noJob when it has none.
	job int32
	// pos is where the batch numbered epoch staged pcKey.
	pos   int32
	epoch uint32
	// a, b index PairCountBolt.items.
	a, b uint32
	// counted marks a live pair this task has applied: on the engine's
	// final shutdown tick every such pair is rescored against the
	// fully-settled counters, so a drained topology stores exact
	// similarities.
	counted bool
	// pruned is Algorithm 1's Li membership. It is known once flagRead is
	// set: the durable pl: flag is read with the load of the first flush
	// that applies the pair, not on the tuple path.
	pruned, flagRead bool
	// retry marks a pair listed in recheck.
	retry bool
}

const noJob = -1

// pair returns the pair id.
func (ps *pairState) pair() string { return ps.pcKey[len(prefixPairCount):] }

// pairItem is one member item of the pairs a task owns.
type pairItem struct {
	// icKey is the item's itemCount key, "ic:"+item id.
	icKey string
	// icPos, and thPos with pruning on, are where the batch numbered epoch
	// staged the item's count and top-K threshold.
	icPos, thPos int32
	epoch        uint32
}

// id returns the item id.
func (it *pairItem) id() string { return it.icKey[len(prefixItemCount):] }

// NewPairCountBolt returns the bolt factory.
func NewPairCountBolt(store State, p Params) stream.BoltFactory {
	p = p.withDefaults()
	return func() stream.Bolt { return &PairCountBolt{p: p, store: store} }
}

// Prepare implements stream.Bolt.
func (b *PairCountBolt) Prepare(_ stream.TopologyContext, c stream.Collector) error {
	b.c = c
	b.st = newTaskState(b.store, b.p.CacheSize)
	b.pairs = make(map[string]*pairState)
	b.itemIdx = make(map[string]uint32)
	b.keys = newInterner(b.p.CacheSize)
	return nil
}

// state returns the pair's entry, creating it on first sight. The entry's
// pc: key is the one string a pair costs: the map key is its suffix.
func (b *PairCountBolt) state(pair string) *pairState {
	if ps := b.pairs[pair]; ps != nil {
		return ps
	}
	if len(b.arena) == cap(b.arena) {
		b.arena = make([]pairState, 0, 256)
	}
	b.arena = b.arena[:len(b.arena)+1]
	ps := &b.arena[len(b.arena)-1]
	ps.pcKey, ps.job = prefixPairCount+pair, noJob
	itemA, itemB := splitPair(ps.pair())
	ps.a, ps.b = b.item(itemA), b.item(itemB)
	b.pairs[ps.pair()] = ps
	return ps
}

// item returns the row of b.items for an item id, adding it on first sight.
func (b *PairCountBolt) item(id string) uint32 {
	if i, ok := b.itemIdx[id]; ok {
		return i
	}
	it := pairItem{icKey: prefixItemCount + id}
	i := uint32(len(b.items))
	b.items = append(b.items, it)
	b.itemIdx[it.id()] = i
	return i
}

// Execute implements stream.Bolt: it adds a run's rows to the interval's
// job list.
func (b *PairCountBolt) Execute(t *stream.Tuple) error {
	if t.IsTick() {
		return b.flush(t.IsFinalTick())
	}
	session := t.Value("session").(int64)
	for _, row := range t.Run("pair") {
		b.add(row.Key, session, row.Num)
	}
	if !b.p.DisableCombiner || len(b.jobs) == 0 {
		return nil
	}
	// Every run is an interval of its rows. A failed read fails the tuple,
	// counted as a component error: nothing of it is kept for a tick.
	sb, err := b.newPairBatch()
	if err != nil {
		for i := range b.jobs {
			b.jobs[i].ps.job = noJob
		}
		b.jobs = b.jobs[:0]
		return err
	}
	return b.applyJobs(sb)
}

// add merges one pair delta into the interval's job list.
func (b *PairCountBolt) add(pair string, session int64, delta float64) {
	ps := b.state(pair)
	if ps.pruned {
		return // Algorithm 1 line 3-5: skip items in Li
	}
	if ps.job != noJob {
		if j := &b.jobs[ps.job]; j.session == session {
			j.delta += delta
			j.n++
			return
		}
		// Another session: deltas of different sessions never merge.
	}
	ps.job = int32(len(b.jobs))
	b.jobs = append(b.jobs, pairJob{ps: ps, session: session, delta: delta, n: 1})
}

// pairJob is one pending apply of a flush interval: the merged deltas of
// one pair in one session. A zero delta with zero n is a rescore: it reads
// the counters and writes nothing.
type pairJob struct {
	ps      *pairState
	session int64
	delta   float64
	n       float64
}

func (b *PairCountBolt) flush(final bool) error {
	// b.jobs holds the interval's deltas in first-touch order, which per
	// pair is arrival order: the order internal/core applies them in.
	deltas := len(b.jobs)
	for _, ps := range b.recheck {
		// Scores the zero-count guard deferred last tick. The final tick
		// rescores every counted pair below, these among them.
		ps.retry = false
		if !final {
			b.jobs = append(b.jobs, pairJob{ps: ps, session: ps.session})
		}
	}
	b.recheck = b.recheck[:0]
	if final {
		// Shutdown flush: every counter upstream has settled (the engine
		// ticks components in topological order), so rescoring every
		// counted pair leaves exact similarities in the store. Sorted,
		// because emission order downstream is otherwise at the mercy of
		// map iteration.
		for _, ps := range b.pairs {
			if ps.counted && !ps.pruned {
				b.jobs = append(b.jobs, pairJob{ps: ps, session: ps.session})
			}
		}
		rescored := b.jobs[deltas:]
		slices.SortFunc(rescored, func(a, b pairJob) int { return cmp.Compare(a.ps.pair(), b.ps.pair()) })
	}
	if len(b.jobs) == 0 {
		return nil
	}
	sb, err := b.newPairBatch()
	if err != nil {
		// Nothing was applied, and the deltas' source tuples left the
		// in-flight count when they were buffered: their jobs stay where
		// they are and the next tick applies them with its own. The
		// deferred scores go back on their list.
		if !final {
			for _, j := range b.jobs[deltas:] {
				b.retry(j.ps)
			}
		}
		b.jobs = b.jobs[:deltas]
		return err
	}
	return b.applyJobs(sb)
}

// retry lists a pair for one more score on the next tick.
func (b *PairCountBolt) retry(ps *pairState) {
	if !ps.retry {
		ps.retry = true
		b.recheck = append(b.recheck, ps)
	}
}

// applyJobs runs b.jobs against the staged view, lands the results in one
// batched write and leaves the list empty for the next interval.
func (b *PairCountBolt) applyJobs(sb *stateBatch) error {
	var firstErr error
	b.sims = make(stream.Run, 0, 2*len(b.jobs))
	for i := range b.jobs {
		j := &b.jobs[i]
		j.ps.job = noJob
		if err := b.apply(sb, j); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	b.jobs = b.jobs[:0]
	if len(b.sims) > 0 {
		// One run per flush, bounded by the job list that produced it (two
		// rows per job, four for one that prunes). The engine owns it now.
		b.c.EmitTo(StreamSim, stream.Values{b.sims})
	}
	b.sims = nil
	if err := sb.flush(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// newPairBatch stages the state b.jobs touch and loads it in one batched
// read: each pair's counter and unread pl: flag (owned), each member item's
// itemCount and top-K threshold (foreign). A pair is staged once however
// many sessions it has jobs in, an item once however many pairs it is in;
// the positions are left in their entries for apply.
func (b *PairCountBolt) newPairBatch() (*stateBatch, error) {
	pruning := b.p.PruningDelta > 0 && b.p.PruningDelta < 1
	sb := b.st.batch()
	b.epoch++
	if b.epoch == 0 {
		// Wrapped: no stamp of 2^32 batches ago may pass for this batch's.
		for _, ps := range b.pairs {
			ps.epoch = 0
		}
		for i := range b.items {
			b.items[i].epoch = 0
		}
		b.epoch = 1
	}
	for i := range b.jobs {
		ps := b.jobs[i].ps
		if ps.pruned || ps.epoch == b.epoch {
			continue // apply skips a pruned pair; don't fetch its state
		}
		ps.epoch = b.epoch
		if !ps.flagRead {
			sb.stage(b.keys.key2(prefixPruned, ps.pair()), false)
		}
		ps.pos = int32(sb.stageAt(ps.pcKey, false))
		if pruning {
			sb.stage(b.keys.key2(prefixPairN, ps.pair()), false)
		}
		b.stageItem(sb, &b.items[ps.a], pruning)
		b.stageItem(sb, &b.items[ps.b], pruning)
	}
	if err := sb.load(); err != nil {
		return nil, err
	}
	return sb, nil
}

// stageItem stages an item's count, and with pruning on its threshold,
// unless an earlier pair of this batch already has.
func (b *PairCountBolt) stageItem(sb *stateBatch, it *pairItem, pruning bool) {
	if it.epoch == b.epoch {
		return
	}
	it.epoch = b.epoch
	it.icPos = int32(sb.stageAt(it.icKey, true))
	if pruning {
		it.thPos = int32(sb.stage(b.keys.key2(prefixThreshold, it.id()), true))
	}
}

// apply performs Algorithm 1's lines 6-17 for one merged pair update,
// reading and writing through the interval's staged batch.
func (b *PairCountBolt) apply(sb *stateBatch, j *pairJob) error {
	ps, session := j.ps, j.session
	if !ps.flagRead {
		_, pruned, err := sb.get(b.keys.key2(prefixPruned, ps.pair()))
		if err != nil {
			return err
		}
		ps.flagRead, ps.pruned = true, pruned
	}
	if ps.pruned {
		return nil // pruned before this instance saw it, or since the delta was buffered
	}
	if !ps.counted || session > ps.session {
		ps.counted, ps.session = true, session
	}
	pcSum, err := sb.addCounterAt(int(ps.pos), b.p.WindowSessions, session, j.delta)
	if err != nil {
		return err
	}
	itemA, itemB := &b.items[ps.a], &b.items[ps.b]
	icA, err := sb.counterSumAt(int(itemA.icPos), session)
	if err != nil {
		return err
	}
	icB, err := sb.counterSumAt(int(itemB.icPos), session)
	if err != nil {
		return err
	}
	if pcSum > 0 && (icA <= 0 || icB <= 0) {
		// An item delta of this pair's co-ratings has not reached the store
		// (still in transit when itemCount ticked, or itemCount's tick was
		// skipped on a full queue); retry on the next tick rather than
		// publish a meaningless zero.
		b.retry(ps)
		return nil
	}
	sim := core.Similarity(pcSum, icA, icB)
	b.sims = append(b.sims,
		stream.Row{Key: itemA.id(), Str: itemB.id(), Num: sim},
		stream.Row{Key: itemB.id(), Str: itemA.id(), Num: sim})

	// Hoeffding pruning.
	if b.p.PruningDelta <= 0 || b.p.PruningDelta >= 1 {
		return nil
	}
	nTotal, err := sb.addCounter(b.keys.key2(prefixPairN, ps.pair()), 0, 0, j.n)
	if err != nil {
		return err
	}
	t1, err := itemA.threshold(sb)
	if err != nil {
		return err
	}
	t2, err := itemB.threshold(sb)
	if err != nil {
		return err
	}
	thr := math.Min(t1, t2)
	eps := core.HoeffdingEpsilon(1, b.p.PruningDelta, int(nTotal))
	if eps < thr-sim {
		ps.pruned = true
		sb.put(b.keys.key2(prefixPruned, ps.pair()), []byte{1})
		// Withdraw the pair from both lists.
		b.sims = append(b.sims,
			stream.Row{Key: itemA.id(), Str: itemB.id()},
			stream.Row{Key: itemB.id(), Str: itemA.id()})
	}
	return nil
}

// threshold reads the item's staged top-K list threshold, maintained by
// ResultStorage (a foreign key: never cached here).
func (it *pairItem) threshold(sb *stateBatch) (float64, error) {
	raw, ok := sb.valAt(int(it.thPos))
	if !ok {
		return 0, nil
	}
	return decodeFloat(raw)
}

// Cleanup implements stream.Bolt.
func (b *PairCountBolt) Cleanup() {}

// DeclareOutputFields implements stream.OutputDeclarer.
func (b *PairCountBolt) DeclareOutputFields() map[string]stream.Fields {
	return map[string]stream.Fields{
		StreamSim: simFields,
	}
}

// simFields declares the sim stream: one field, a stream.Run whose rows are
// {item, other, similarity}, keyed (and grouped downstream) by item.
var simFields = stream.Fields{"item"}

// FilterBolt is the storage layer's application-specific filter: results
// whose candidate item fails the predicate never reach storage
// ("the recommended items should be of one specific category or of price
// within a certain range", §5.1). It passes sim runs through on the same
// stream id, without the rows it rejects.
type FilterBolt struct {
	p Params
	c stream.Collector
}

// NewFilterBolt returns the bolt factory.
func NewFilterBolt(p Params) stream.BoltFactory {
	p = p.withDefaults()
	return func() stream.Bolt { return &FilterBolt{p: p} }
}

// Prepare implements stream.Bolt.
func (b *FilterBolt) Prepare(_ stream.TopologyContext, c stream.Collector) error {
	b.c = c
	return nil
}

// Execute implements stream.Bolt.
func (b *FilterBolt) Execute(t *stream.Tuple) error {
	if t.IsTick() {
		return nil
	}
	if b.p.Filter == nil {
		b.c.EmitTo(StreamSim, stream.Values{t.Value("item")})
		return nil
	}
	in := t.Run("item")
	// The received run is read-only: the rows that pass are copied.
	out := make(stream.Run, 0, len(in))
	for _, row := range in {
		if row.Num <= 0 || b.p.Filter(row.Str) { // withdrawals (sim 0) always pass
			out = append(out, row)
		}
	}
	b.c.EmitTo(StreamSim, stream.Values{out})
	return nil
}

// Cleanup implements stream.Bolt.
func (b *FilterBolt) Cleanup() {}

// DeclareOutputFields implements stream.OutputDeclarer.
func (b *FilterBolt) DeclareOutputFields() map[string]stream.Fields {
	return map[string]stream.Fields{
		StreamSim: simFields,
	}
}

// ResultStorageBolt persists computation results for the query path:
// grouped by item, it owns the item's similar-items list in TDStore and
// publishes the list's threshold for the pruning test.
//
// Writes are write-behind (stream.BatchFlusher): Execute merges a sim
// run's rows into the items' encoded frames in memory and marks them dirty;
// FlushBatch, which the engine calls whenever the task's input queue
// empties (and at least every 16 batches), lands every dirty list in one
// BatchPut. A pairCount flush reaches this task as one tuple, so the N
// updates a tick round makes to one item cost one store write, the §5.3
// combiner argument applied to the last hop of Fig. 4. The engine flushes
// before it counts the tuples as done, so a drained topology still implies
// "written".
type ResultStorageBolt struct {
	p      Params
	store  State
	st     *taskState
	prefix string // list key prefix (similar items or AR rules)
	// thresholds is set when something reads the lists' th: keys: pairCount's
	// pruning test, so similar-items lists with PruningDelta in (0,1).
	thresholds bool
	keys       *interner
	// lists holds the encoded list frames of the items this task owns
	// (fields grouping makes it the only writer): it is both the cache
	// that lets a sim update merge into the stored bytes in place instead
	// of decode → sort → encode per tuple, and the staging area between
	// flushes. A frame is the same slice handed to the task cache and the
	// store at flush; State.BatchPut must not retain it, so patching it in
	// place afterwards cannot reach a reader. Bounded by flushing and
	// clearing when full (with CacheSize <= 0, after every flush); restart
	// safety comes from the store, not the cache.
	lists    map[string]*stagedList
	listsCap int
	// dirty lists the frames merged since the last flush, in first-write
	// order; fkeys/fvals are the putBatch argument scratch.
	dirty []*stagedList
	fkeys []string
	fvals [][]byte
}

// stagedList is one item's cached list frame and top-K threshold.
type stagedList struct {
	item  string
	frame []byte
	thr   float64
	// thrEnc is the threshold's encoded scalar, patched in place at flush;
	// thrPut is the value the list's th: key holds, once thrKnown says this
	// instance has written it (thresholds only).
	thrEnc   []byte
	thrPut   float64
	thrKnown bool
	dirty    bool
}

// NewResultStorageBolt returns the bolt factory for similar-items lists.
func NewResultStorageBolt(store State, p Params) stream.BoltFactory {
	p = p.withDefaults()
	return func() stream.Bolt { return &ResultStorageBolt{p: p, store: store, prefix: prefixSimilar} }
}

// Prepare implements stream.Bolt.
func (b *ResultStorageBolt) Prepare(_ stream.TopologyContext, _ stream.Collector) error {
	b.st = newTaskState(b.store, b.p.CacheSize)
	b.keys = newInterner(b.p.CacheSize)
	b.listsCap = max(b.p.CacheSize, 0)
	b.lists = make(map[string]*stagedList)
	b.thresholds = b.prefix == prefixSimilar && b.p.PruningDelta > 0 && b.p.PruningDelta < 1
	return nil
}

// Execute implements stream.Bolt: it merges a sim run's rows into the
// items' staged frames. Nothing reaches the store before FlushBatch. A row
// that cannot be merged fails the tuple and the rows after it still merge.
func (b *ResultStorageBolt) Execute(t *stream.Tuple) error {
	if t.IsTick() {
		return nil
	}
	var firstErr error
	for _, row := range t.Run("item") {
		if err := b.merge(row.Key, row.Str, row.Num); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// merge stages one (item, other, sim) update.
func (b *ResultStorageBolt) merge(item, other string, sim float64) error {
	e := b.lists[item]
	if e == nil {
		if b.listsCap > 0 && len(b.lists) >= b.listsCap {
			// Full: land what is staged, then start over.
			if err := b.FlushBatch(); err != nil {
				return err
			}
			clear(b.lists)
		}
		raw, ok, err := b.st.Get(b.keys.key2(b.prefix, item))
		if err != nil {
			return err
		}
		if !ok {
			raw = statecodec.EncodeList(nil)
		}
		e = &stagedList{item: item, frame: raw}
		b.lists[item] = e
	}
	out, thr, ok := statecodec.MergeListEntry(e.frame, other, sim, b.p.TopK)
	if !ok {
		return errBadFrame(b.keys.key2(b.prefix, item), e.frame)
	}
	e.frame, e.thr = out, thr
	if !e.dirty {
		e.dirty = true
		b.dirty = append(b.dirty, e)
	}
	return nil
}

// FlushBatch implements stream.BatchFlusher: every list merged since the
// last flush lands in one batched write, and with thresholds on its th: key
// beside it whenever the threshold is not the one last written, so the th:
// key the pruning test reads is always the threshold of the list stored
// beside it. On an error the lists stay dirty and the next flush retries
// them.
func (b *ResultStorageBolt) FlushBatch() error {
	if len(b.dirty) == 0 {
		return nil
	}
	keys, vals := b.fkeys[:0], b.fvals[:0]
	for _, e := range b.dirty {
		keys = append(keys, b.keys.key2(b.prefix, e.item))
		vals = append(vals, e.frame)
		if b.thresholds && (!e.thrKnown || e.thr != e.thrPut) {
			if !statecodec.PatchFloat(e.thrEnc, e.thr) {
				e.thrEnc = encodeFloat(e.thr)
			}
			keys = append(keys, b.keys.key2(prefixThreshold, e.item))
			vals = append(vals, e.thrEnc)
		}
	}
	b.fkeys, b.fvals = keys, vals
	err := b.st.putBatch(keys, vals)
	clear(b.fvals) // drop value references; capacity stays
	if err != nil {
		return err
	}
	for _, e := range b.dirty {
		e.dirty, e.thrPut, e.thrKnown = false, e.thr, true
	}
	clear(b.dirty)
	b.dirty = b.dirty[:0]
	if b.listsCap == 0 {
		clear(b.lists) // cache disabled: frames live only until the flush
	}
	return nil
}

// Cleanup implements stream.Bolt. Nothing is staged by now: the engine
// calls FlushBatch before it retires an instance (restart, rebalance,
// shutdown), and reports a failure there.
func (b *ResultStorageBolt) Cleanup() {}
