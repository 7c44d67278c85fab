package topology

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"strings"

	"tencentrec/internal/combiner"
	"tencentrec/internal/core"
	"tencentrec/internal/demographic"
	"tencentrec/internal/keyhash"
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

// flushedDelta is one combiner output entry, ungrouped for ordered apply:
// a state key with its keyhash, and the merged delta of one session.
type flushedDelta struct {
	key     string
	h       uint64
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
	c.FlushHashed(func(key string, h uint64, session int64, v float64) {
		out = append(out, flushedDelta{key: key, h: h, session: session, value: v})
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
func putBack(c *combiner.Combiner, deltas []flushedDelta) {
	for i := range deltas {
		d := &deltas[i]
		c.AddHashed(d.key, d.h, d.session, d.value)
	}
}

// stageDeltas stages the owned keys of drained deltas in sb and loads
// them: the read of one flush interval.
func stageDeltas(sb *stateBatch, deltas []flushedDelta) error {
	for i := range deltas {
		sb.stage(deltas[i].key, deltas[i].h, false)
	}
	return sb.load()
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
	// keys interns and hashes the uh: state keys, and interns the
	// downstream pair ids, so an action builds no key strings.
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
// The entry's session is its timestamp's under the bolt's clock, the
// session the write that stored it computed.
func (b *UserHistoryBolt) effective(r storedRating, session int64) float64 {
	if b.p.WindowSessions > 0 && b.p.clock().SessionOf(RawAction{TS: r.TS}.Time()) <= session-int64(b.p.WindowSessions) {
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

	ukey, uh := b.keys.key2(prefixUserHistory, user)
	raw, ok, err := b.st.Get(ukey, uh)
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

	// Box the values shared by many emissions once per action: the session
	// boxing is memoized across actions, and the item's is the tuple's.
	sessVal := b.session(session)
	itemVal := t.Value("item")
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
	if group != demographic.GlobalGroup {
		b.emit(StreamGroupDelta, b.vals.v4(group, itemVal, weightVal, sessVal))
	}
	b.emit(StreamGroupDelta, b.vals.v4(globalGroup, itemVal, weightVal, sessVal))

	// The frame was validated above, so the edits cannot decline.
	out, _ := statecodec.UpsertHistoryEntry(raw, item, storedRating{Rating: newR, TS: ts})
	if n, _ := statecodec.HistoryLen(out); n > b.p.MaxUserHistory {
		out, _ = statecodec.EvictOldestHistoryEntry(out, item)
	}
	err = b.st.Put(ukey, uh, out)
	if err == nil {
		for _, e := range b.emits {
			b.c.EmitTo(e.stream, e.values)
		}
	}
	b.emits = b.emits[:0]
	return err
}

// globalGroup is the global group's id boxed once: every action's group
// deltas include it.
var globalGroup any = demographic.GlobalGroup

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
	// deltas is flush scratch, reused across ticks.
	deltas []flushedDelta
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
	b.comb = combiner.New(combiner.Sum)
	return nil
}

// Execute implements stream.Bolt. With DisableCombiner set, every tuple is
// flushed as it comes, as a tick flushes an interval.
func (b *ItemCountBolt) Execute(t *stream.Tuple) error {
	if t.IsTick() {
		return b.flush()
	}
	item := t.Value("item").(string)
	delta := t.Value("delta").(float64)
	session := t.Value("session").(int64)
	key, h := b.keys.key2(prefixItemCount, item)
	b.comb.AddHashed(key, h, session, delta)
	if b.p.DisableCombiner {
		return b.flush()
	}
	return nil
}

func (b *ItemCountBolt) flush() error {
	b.deltas = drainCombinerInto(b.comb, b.deltas)
	deltas := b.deltas
	if len(deltas) == 0 {
		b.st.idle()
		return nil
	}
	// One batched read of every touched counter, the merged deltas
	// applied in session order against the staged view, one batched
	// write back — the tick costs two store round-trips, not 2N.
	sb := b.st.batch()
	if err := stageDeltas(sb, deltas); err != nil {
		putBack(b.comb, deltas)
		return err
	}
	var firstErr error
	for i := range deltas {
		d := &deltas[i]
		if _, err := sb.addCounter(d.key, d.h, b.p.WindowSessions, d.session, d.value); err != nil && firstErr == nil {
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
// A pair is looked up by string once per delta, in the record table. What
// must outlive an interval is the pair's record; what a flush needs for one
// interval (the pair's jobs, where the batch staged it, its pc: key) lives
// in the interval's lists, which the flush empties.
type PairCountBolt struct {
	p     Params
	store State
	c     stream.Collector
	st    *taskState
	// recs holds a record for every pair this task has seen. slots finds
	// one by pair id: open addressing over maphash with seed, a slot holding
	// the high half of the id's hash above its record's index plus one, zero
	// when empty.
	recs  []pairRec
	slots []uint64
	seed  maphash.Seed
	// items is the member items of those pairs, pairRec.a/b indexing it;
	// itemIdx finds a row by item id when a new pair is entered.
	items   []pairItem
	itemIdx map[string]uint32
	// The interval's combiner (§5.3). touched lists the pairs with a job
	// since the last flush, in first-touch order, and touchOf finds the
	// entry of a pair with a delta by its record; touchPeak is the most
	// entries touchOf has held since it was made. jobs is one job per pair
	// and session with a delta, in first-touch order. A flush appends its
	// rescores and applies the list.
	touched   []pairTouch
	touchOf   map[uint32]int32
	touchPeak int
	jobs      []pairJob
	// recheck lists the records the zero-count guard deferred (recRetry
	// set): their score is retried on the next tick.
	recheck []uint32
	// epoch numbers the staged batches; an item row stamped with it has its
	// keys staged in the current one.
	epoch uint32
	// sims collects the rows applyJobs' applies produce (item, other,
	// similarity), emitted as one run when the list has been applied.
	sims stream.Run
	// keys interns the pl:, pn: and th: keys: read once in a pair's life,
	// or only with pruning on.
	keys *interner
}

// pairRec is what a task keeps about a pair from one interval to the next:
// 16 bytes and no pointer, so the collector never scans the table. It is
// rebuilt lazily after a rebalance or a restore: the pl: flag is durable,
// and a pair is counted again with its next delta.
type pairRec struct {
	// a, b index PairCountBolt.items: the pair id is the two item ids
	// joined by 0x1f.
	a, b uint32
	// state packs the latest session the pair was counted in (the high
	// 64-recFlagBits bits, signed), where the guard's retry and the final
	// tick read its windowed sums, with the rec* flags (the low bits).
	state uint64
}

// The flags of pairRec.state.
const (
	// recCounted marks a live pair this task has applied: on the engine's
	// final shutdown tick every such pair is rescored against the
	// fully-settled counters, so a drained topology stores exact
	// similarities.
	recCounted uint64 = 1 << iota
	// recPruned is Algorithm 1's Li membership. It is known once
	// recFlagRead is set: the durable pl: flag is read with the load of the
	// first flush that applies the pair, not on the tuple path.
	recPruned
	recFlagRead
	// recRetry marks a pair listed in recheck.
	recRetry
)

// recFlagBits is the width of the flags below a pairRec's session: a
// session packs if it is under 2^59 in magnitude, which a session of
// SessionDuration 16 ns or more is until the year 2262.
const recFlagBits = 4

func (r *pairRec) is(flag uint64) bool { return r.state&flag != 0 }
func (r *pairRec) set(flag uint64)     { r.state |= flag }
func (r *pairRec) unset(flag uint64)   { r.state &^= flag }
func (r *pairRec) session() int64      { return int64(r.state) >> recFlagBits }

func (r *pairRec) setSession(s int64) {
	r.state = uint64(s)<<recFlagBits | r.state&(1<<recFlagBits-1)
}

// pairTouch is a pair's part of one interval.
type pairTouch struct {
	rec uint32
	// job is the index in PairCountBolt.jobs of the pair's latest delta job,
	// noJob when it has none.
	job int32
	// pos is where the interval's batch staged the pair's pc: key.
	pos int32
}

const noJob = -1

// pairItem is one member item of the pairs a task owns.
type pairItem struct {
	// icKey is the item's itemCount key, "ic:"+item id, and icH its
	// keyhash.
	icKey string
	icH   uint64
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
	b.seed = maphash.MakeSeed()
	b.itemIdx = make(map[string]uint32)
	b.touchOf = make(map[uint32]int32)
	b.keys = newInterner(b.p.CacheSize)
	return nil
}

// pair returns the index of the pair's record, entering it on first sight.
// The id is hashed once; a slot whose hash half matches is checked against
// its record's item ids, so no string is kept per pair. ok is false for an
// id with no 0x1f.
func (b *PairCountBolt) pair(id string) (r uint32, ok bool) {
	if 4*len(b.recs) >= 3*len(b.slots) {
		b.growSlots()
	}
	mask := uint64(len(b.slots) - 1)
	h := maphash.String(b.seed, id)
	for i := h & mask; ; i = (i + 1) & mask {
		if s := b.slots[i]; s != 0 {
			if s>>32 == h>>32 && b.isPair(uint32(s)-1, id) {
				return uint32(s) - 1, true
			}
			continue
		}
		itemA, itemB := splitPair(id)
		if len(itemA) == len(id) {
			return 0, false
		}
		r = uint32(len(b.recs))
		b.recs = append(b.recs, pairRec{a: b.item(itemA), b: b.item(itemB)})
		b.slots[i] = h>>32<<32 | uint64(r+1)
		return r, true
	}
}

// isPair reports whether record r is the pair id.
func (b *PairCountBolt) isPair(r uint32, id string) bool {
	x, y := b.items[b.recs[r].a].id(), b.items[b.recs[r].b].id()
	return len(id) == len(x)+1+len(y) && id[len(x)] == 0x1f && id[:len(x)] == x && id[len(x)+1:] == y
}

// growSlots doubles the index and enters every record again, hashing its
// id from its item ids.
func (b *PairCountBolt) growSlots() {
	slots := make([]uint64, max(2*len(b.slots), 64))
	mask := uint64(len(slots) - 1)
	var h maphash.Hash
	h.SetSeed(b.seed)
	for r := range b.recs {
		rec := &b.recs[r]
		h.Reset()
		h.WriteString(b.items[rec.a].id())
		h.WriteByte(0x1f)
		h.WriteString(b.items[rec.b].id())
		sum := h.Sum64()
		i := sum & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = sum>>32<<32 | uint64(r+1)
	}
	b.slots = slots
}

// item returns the row of b.items for an item id, adding it on first sight.
func (b *PairCountBolt) item(id string) uint32 {
	if i, ok := b.itemIdx[id]; ok {
		return i
	}
	it := pairItem{icKey: prefixItemCount + id}
	it.icH = keyhash.String(it.icKey)
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
	if session != session<<recFlagBits>>recFlagBits {
		return fmt.Errorf("topology: session %d is past pairCount's range (a SessionDuration under 16ns)", session)
	}
	var bad error
	for _, row := range t.Run("pair") {
		r, ok := b.pair(row.Key)
		if !ok {
			bad = fmt.Errorf("topology: pair id %q joins no two items", row.Key)
			continue
		}
		b.add(r, session, row.Num)
	}
	if !b.p.DisableCombiner || len(b.jobs) == 0 {
		return bad
	}
	// Every run is an interval of its rows. A failed read fails the tuple,
	// counted as a component error: nothing of it is kept for a tick.
	sb, err := b.newPairBatch()
	if err != nil {
		b.endInterval()
		return err
	}
	if err := b.applyJobs(sb); err != nil {
		return err
	}
	return bad
}

// add merges one pair delta into the interval's job list.
func (b *PairCountBolt) add(r uint32, session int64, delta float64) {
	if b.recs[r].is(recPruned) {
		return // Algorithm 1 line 3-5: skip items in Li
	}
	ti := b.touch(r)
	t := &b.touched[ti]
	if t.job != noJob {
		if j := &b.jobs[t.job]; j.session == session {
			j.delta += delta
			j.n++
			return
		}
		// Another session: deltas of different sessions never merge.
	}
	t.job = int32(len(b.jobs))
	b.jobs = append(b.jobs, pairJob{touch: ti, session: session, delta: delta, n: 1})
}

// touch returns the record's entry in the interval's touched list, adding
// one on its first delta of the interval.
func (b *PairCountBolt) touch(r uint32) int32 {
	if t, ok := b.touchOf[r]; ok {
		return t
	}
	t := int32(len(b.touched))
	b.touched = append(b.touched, pairTouch{rec: r, job: noJob})
	b.touchOf[r] = t
	return t
}

// pairJob is one pending apply of a flush interval: the merged deltas of
// one pair in one session. A zero delta with zero n is a rescore: it reads
// the counters and writes nothing.
type pairJob struct {
	// touch indexes PairCountBolt.touched.
	touch   int32
	session int64
	delta   float64
	n       float64
}

func (b *PairCountBolt) flush(final bool) error {
	// b.jobs holds the interval's deltas in first-touch order, which per
	// pair is arrival order: the order internal/core applies them in.
	deltas, touched := len(b.jobs), len(b.touched)
	for _, r := range b.recheck {
		// Scores the zero-count guard deferred last tick. The final tick
		// rescores every counted pair below, these among them.
		b.recs[r].unset(recRetry)
		if !final {
			b.rescore(r)
		}
	}
	b.recheck = b.recheck[:0]
	if final {
		// Shutdown flush: every counter upstream has settled (the engine
		// ticks components in topological order), so rescoring every
		// counted pair leaves exact similarities in the store.
		for r := range b.recs {
			if rec := &b.recs[r]; rec.is(recCounted) && !rec.is(recPruned) {
				b.rescore(uint32(r))
			}
		}
	}
	if len(b.jobs) == 0 {
		b.endInterval()
		b.st.idle()
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
				b.retry(b.touched[j.touch].rec)
			}
		}
		b.jobs, b.touched = b.jobs[:deltas], b.touched[:touched]
		return err
	}
	if final {
		// Sorted by pair id, the suffix of the staged pc: key, so emission
		// order downstream does not follow the order the task first saw
		// its pairs in. A rescored pair is unpruned, so staged.
		slices.SortFunc(b.jobs[deltas:], func(x, y pairJob) int {
			return strings.Compare(sb.keyAt(int(b.touched[x.touch].pos)), sb.keyAt(int(b.touched[y.touch].pos)))
		})
	}
	return b.applyJobs(sb)
}

// rescore appends a job that scores record r again at its latest counted
// session. It shares the pair's touched entry if the pair has a delta job;
// a new entry is not entered in touchOf, since no delta is added after a
// flush's rescores.
func (b *PairCountBolt) rescore(r uint32) {
	t, ok := b.touchOf[r]
	if !ok {
		t = int32(len(b.touched))
		b.touched = append(b.touched, pairTouch{rec: r, job: noJob})
	}
	b.jobs = append(b.jobs, pairJob{touch: t, session: b.recs[r].session()})
}

// retry lists a pair for one more score on the next tick.
func (b *PairCountBolt) retry(r uint32) {
	if rec := &b.recs[r]; !rec.is(recRetry) {
		rec.set(recRetry)
		b.recheck = append(b.recheck, r)
	}
}

// applyJobs runs b.jobs against the staged view, lands the results in one
// batched write and leaves the interval's lists empty for the next one.
func (b *PairCountBolt) applyJobs(sb *stateBatch) error {
	var firstErr error
	b.sims = make(stream.Run, 0, 2*len(b.jobs))
	for i := range b.jobs {
		if err := b.apply(sb, &b.jobs[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	b.endInterval()
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

// endInterval empties the interval's lists. Like taskState.batch's pool, a
// list follows the load down as well as up: one that a burst grew past
// 1,024 entries, and the interval just ended used under a quarter of, is
// dropped rather than kept for the life of the task.
func (b *PairCountBolt) endInterval() {
	b.jobs = reuse(b.jobs)
	b.touched = reuse(b.touched)
	n := len(b.touchOf)
	b.touchPeak = max(b.touchPeak, n)
	if b.touchPeak > 1024 && n < b.touchPeak/4 {
		b.touchOf, b.touchPeak = make(map[uint32]int32), 0 // a map's buckets never shrink
	} else {
		clear(b.touchOf)
	}
}

// reuse empties s for the next interval, or drops a backing array of over
// 1,024 entries that s used under a quarter of.
func reuse[T any](s []T) []T {
	if cap(s) > 1024 && len(s) < cap(s)/4 {
		return nil
	}
	return s[:0]
}

// newPairBatch stages the state the interval's jobs touch and loads it in
// one batched read: each pair's counter and unread pl: flag (owned), each
// member item's itemCount and top-K threshold (foreign). A pair is staged
// once however many sessions it has jobs in, an item once however many pairs
// it is in; the positions are left in the touched list and the item rows for
// apply. The pc: keys are built into one string, one allocation per flush,
// and each is hashed there, once: the cache keeps a copy of its key's
// bytes, not the string.
func (b *PairCountBolt) newPairBatch() (*stateBatch, error) {
	pruning := b.p.PruningDelta > 0 && b.p.PruningDelta < 1
	sb := b.st.batch()
	b.epoch++
	if b.epoch == 0 {
		// Wrapped: no stamp of 2^32 batches ago may pass for this batch's.
		for i := range b.items {
			b.items[i].epoch = 0
		}
		b.epoch = 1
	}
	// apply skips a pruned pair: its state is not fetched.
	n := 0
	for _, t := range b.touched {
		if rec := &b.recs[t.rec]; !rec.is(recPruned) {
			n += b.pcKeyLen(rec)
		}
	}
	var kb strings.Builder
	kb.Grow(n)
	for _, t := range b.touched {
		if rec := &b.recs[t.rec]; !rec.is(recPruned) {
			kb.WriteString(prefixPairCount)
			kb.WriteString(b.items[rec.a].id())
			kb.WriteByte(0x1f)
			kb.WriteString(b.items[rec.b].id())
		}
	}
	keys := kb.String()
	for i := range b.touched {
		t := &b.touched[i]
		rec := &b.recs[t.rec]
		if rec.is(recPruned) {
			continue
		}
		key := keys[:b.pcKeyLen(rec)]
		keys = keys[len(key):]
		pair := key[len(prefixPairCount):]
		if !rec.is(recFlagRead) {
			k, h := b.keys.key2(prefixPruned, pair)
			sb.stage(k, h, false)
		}
		t.pos = int32(sb.stageAt(key, keyhash.String(key), false))
		if pruning {
			k, h := b.keys.key2(prefixPairN, pair)
			sb.stage(k, h, false)
		}
		b.stageItem(sb, &b.items[rec.a], pruning)
		b.stageItem(sb, &b.items[rec.b], pruning)
	}
	if err := sb.load(); err != nil {
		return nil, err
	}
	return sb, nil
}

// pcKeyLen is the length of a pair's pc: key.
func (b *PairCountBolt) pcKeyLen(rec *pairRec) int {
	return len(prefixPairCount) + len(b.items[rec.a].id()) + 1 + len(b.items[rec.b].id())
}

// stageItem stages an item's count, and with pruning on its threshold,
// unless an earlier pair of this batch already has.
func (b *PairCountBolt) stageItem(sb *stateBatch, it *pairItem, pruning bool) {
	if it.epoch == b.epoch {
		return
	}
	it.epoch = b.epoch
	it.icPos = int32(sb.stageAt(it.icKey, it.icH, true))
	if pruning {
		k, h := b.keys.key2(prefixThreshold, it.id())
		it.thPos = int32(sb.stage(k, h, true))
	}
}

// apply performs Algorithm 1's lines 6-17 for one merged pair update,
// reading and writing through the interval's staged batch.
func (b *PairCountBolt) apply(sb *stateBatch, j *pairJob) error {
	t := &b.touched[j.touch]
	rec, session := &b.recs[t.rec], j.session
	if rec.is(recPruned) {
		return nil // pruned before the batch was staged, or since by an earlier job
	}
	// Not pruned when the batch was staged, so staged: the pair id is the
	// suffix of its pc: key.
	pair := sb.keyAt(int(t.pos))[len(prefixPairCount):]
	if !rec.is(recFlagRead) {
		_, pruned, err := sb.get(b.keys.key2(prefixPruned, pair))
		if err != nil {
			return err
		}
		rec.set(recFlagRead)
		if pruned {
			rec.set(recPruned)
			return nil // pruned before this instance saw it
		}
	}
	if !rec.is(recCounted) || session > rec.session() {
		rec.set(recCounted)
		rec.setSession(session)
	}
	pcSum, err := sb.addCounterAt(int(t.pos), b.p.WindowSessions, session, j.delta)
	if err != nil {
		return err
	}
	itemA, itemB := &b.items[rec.a], &b.items[rec.b]
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
		b.retry(t.rec)
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
	nKey, nH := b.keys.key2(prefixPairN, pair)
	nTotal, err := sb.addCounter(nKey, nH, 0, 0, j.n)
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
		rec.set(recPruned)
		k, h := b.keys.key2(prefixPruned, pair)
		sb.put(k, h, []byte{1})
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
	// clearing when full (with CacheSize <= 0, after every flush); recovery
	// comes from the store, not the cache.
	lists    map[string]*stagedList
	listsCap int
	// dirty lists the frames merged since the last flush, in first-write
	// order; fkeys/fhs/fvals are the putBatch argument scratch.
	dirty []*stagedList
	fkeys []string
	fhs   []uint64
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
		return errBadFrame(b.prefix+item, e.frame)
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
	keys, hs, vals := b.fkeys[:0], b.fhs[:0], b.fvals[:0]
	for _, e := range b.dirty {
		k, h := b.keys.key2(b.prefix, e.item)
		keys, hs, vals = append(keys, k), append(hs, h), append(vals, e.frame)
		if b.thresholds && (!e.thrKnown || e.thr != e.thrPut) {
			if !statecodec.PatchFloat(e.thrEnc, e.thr) {
				e.thrEnc = encodeFloat(e.thr)
			}
			k, h := b.keys.key2(prefixThreshold, e.item)
			keys, hs, vals = append(keys, k), append(hs, h), append(vals, e.thrEnc)
		}
	}
	b.fkeys, b.fhs, b.fvals = keys, hs, vals
	err := b.st.putBatch(keys, hs, vals)
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
// calls FlushBatch before it retires an instance (rebalance, shutdown),
// and reports a failure there.
func (b *ResultStorageBolt) Cleanup() {}
