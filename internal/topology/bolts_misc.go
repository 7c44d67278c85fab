package topology

import (
	"math"
	"sort"

	"tencentrec/internal/combiner"
	"tencentrec/internal/core"
	"tencentrec/internal/ctr"
	"tencentrec/internal/keyhash"
	"tencentrec/internal/statecodec"
	"tencentrec/internal/stream"
)

// DBBolt maintains the demographic-based algorithm's per-group hot-items
// lists. It consumes the group deltas that UserHistoryBolt re-hashed by
// group id (the multi-hash of §5.4: without the regrouping, tasks hashed
// by user id would issue conflicting writes to the same group counter).
type DBBolt struct {
	p     Params
	store State
	st    *taskState
	comb  *combiner.Combiner
	keys  *interner
	// deltas is flush scratch, reused across ticks.
	deltas []flushedDelta
}

// NewDBBolt returns the bolt factory.
func NewDBBolt(store State, p Params) stream.BoltFactory {
	p = p.withDefaults()
	return func() stream.Bolt { return &DBBolt{p: p, store: store} }
}

// Prepare implements stream.Bolt.
func (b *DBBolt) Prepare(_ stream.TopologyContext, _ stream.Collector) error {
	b.st = newTaskState(b.store, b.p.CacheSize)
	b.keys = newInterner(b.p.CacheSize)
	b.comb = combiner.New(combiner.Sum)
	return nil
}

// Execute implements stream.Bolt. With DisableCombiner set, every tuple is
// flushed as it comes, as a tick flushes an interval.
func (b *DBBolt) Execute(t *stream.Tuple) error {
	if t.IsTick() {
		return b.flush()
	}
	group := t.Value("group").(string)
	item := t.Value("item").(string)
	weight := t.Value("weight").(float64)
	session := t.Value("session").(int64)
	key, h := b.keys.key3(prefixGroupCount, group, item)
	b.comb.AddHashed(key, h, session, weight)
	if b.p.DisableCombiner {
		return b.flush()
	}
	return nil
}

func (b *DBBolt) flush() error {
	b.deltas = drainCombinerInto(b.comb, b.deltas)
	deltas := b.deltas
	if len(deltas) == 0 {
		b.st.idle()
		return nil
	}
	// One batched read covers every group counter plus the hot lists the
	// interval touches (deduplicated per group); staged applies then land
	// in one batched write. Multiple items of one group fold into the same
	// staged list via read-your-writes.
	sb := b.st.batch()
	for i := range deltas {
		group, _ := splitPair(deltas[i].key[len(prefixGroupCount):])
		k, h := b.keys.key2(prefixHotList, group)
		sb.stage(k, h, false)
	}
	if err := stageDeltas(sb, deltas); err != nil {
		putBack(b.comb, deltas)
		return err
	}
	var firstErr error
	for i := range deltas {
		if err := b.apply(sb, &deltas[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := sb.flush(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// apply folds one drained delta of a gc: counter into the counter and its
// group's hot list.
func (b *DBBolt) apply(sb *stateBatch, d *flushedDelta) error {
	group, item := splitPair(d.key[len(prefixGroupCount):])
	sum, err := sb.addCounter(d.key, d.h, b.p.WindowSessions, d.session, d.value)
	if err != nil {
		return err
	}
	hotKey, hotH := b.keys.key2(prefixHotList, group)
	raw, ok, err := sb.get(hotKey, hotH)
	if err != nil {
		return err
	}
	if !ok {
		raw = statecodec.EncodeList(nil)
	}
	// Merge into the staged frame in place.
	out, _, ok := statecodec.MergeListEntry(raw, item, sum, b.p.TopK)
	if !ok {
		return errBadFrame(hotKey, raw)
	}
	sb.put(hotKey, hotH, out)
	return nil
}

// Cleanup implements stream.Bolt.
func (b *DBBolt) Cleanup() {}

// ARBolt maintains the association-rule statistics: grouped by pair key
// for pair supports, it reads item supports (maintained by ARItemBolt)
// and emits confidence updates for the rule lists. Pair updates are
// buffered and rules recomputed on tick flushes, after the racing item
// supports have settled — the same interval-flush discipline as the
// counter combiners (§5.3).
type ARBolt struct {
	p     Params
	store State
	c     stream.Collector
	st    *taskState
	// dirty maps pair -> latest session of a buffered update.
	dirty map[string]int64
	keys  *interner
	// keyBuf is flush scratch, reused across ticks.
	keyBuf []string
}

// NewARBolt returns the bolt factory.
func NewARBolt(store State, p Params) stream.BoltFactory {
	p = p.withDefaults()
	return func() stream.Bolt { return &ARBolt{p: p, store: store} }
}

// Prepare implements stream.Bolt.
func (b *ARBolt) Prepare(_ stream.TopologyContext, c stream.Collector) error {
	b.c = c
	b.st = newTaskState(b.store, b.p.CacheSize)
	b.dirty = make(map[string]int64)
	b.keys = newInterner(b.p.CacheSize)
	return nil
}

// Execute implements stream.Bolt.
func (b *ARBolt) Execute(t *stream.Tuple) error {
	if t.IsTick() {
		return b.flush()
	}
	session := t.Value("session").(int64)
	var firstErr error
	for _, row := range t.Run("pair") {
		pair := row.Key
		k, h := b.keys.key2(prefixARPair, pair)
		if _, err := b.st.addCounter(k, h, b.p.WindowSessions, session, 1); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if old, ok := b.dirty[pair]; !ok || session > old {
			b.dirty[pair] = session
		}
	}
	return firstErr
}

// flush recomputes the rules of every pair updated since the last tick.
// All supports the interval needs — the pair's own count and both items'
// transaction supports — come back in one batched, store-direct read.
func (b *ARBolt) flush() error {
	if len(b.dirty) == 0 {
		return nil
	}
	pairs := sortedKeysInto(b.dirty, b.keyBuf[:0])
	b.keyBuf = pairs
	sb := b.st.batch()
	for _, pair := range pairs {
		a, c2 := splitPair(pair)
		pk, ph := b.keys.key2(prefixARPair, pair)
		sb.stage(pk, ph, true)
		ak, ah := b.keys.key2(prefixARItem, a)
		sb.stage(ak, ah, true)
		ck, ch := b.keys.key2(prefixARItem, c2)
		sb.stage(ck, ch, true)
	}
	if err := sb.load(); err != nil {
		return err
	}
	// The interval's rules leave as one run: two rows per pair at most.
	rules := make(stream.Run, 0, 2*len(pairs))
	for _, pair := range pairs {
		session := b.dirty[pair]
		a, c2 := splitPair(pair)
		pk, ph := b.keys.key2(prefixARPair, pair)
		supp, err := sb.readCounterSum(pk, ph, session)
		if err != nil {
			return err
		}
		ak, ah := b.keys.key2(prefixARItem, a)
		suppA, err := sb.readCounterSum(ak, ah, session)
		if err != nil {
			return err
		}
		ck, ch := b.keys.key2(prefixARItem, c2)
		suppB, err := sb.readCounterSum(ck, ch, session)
		if err != nil {
			return err
		}
		// Rule a→c2 with confidence supp/supp(a), and the reverse.
		if suppA > 0 {
			rules = append(rules, stream.Row{Key: a, Str: c2, Num: supp / suppA})
		}
		if suppB > 0 {
			rules = append(rules, stream.Row{Key: c2, Str: a, Num: supp / suppB})
		}
	}
	if len(rules) > 0 {
		b.c.EmitTo(StreamSim, stream.Values{rules})
	}
	clear(b.dirty)
	return nil
}

// sortedKeysInto appends a map's keys to a reused scratch slice in sorted
// order, pinning the apply order of map-accumulated work (emission order
// downstream is otherwise at the mercy of map iteration).
func sortedKeysInto(m map[string]int64, out []string) []string {
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Cleanup implements stream.Bolt.
func (b *ARBolt) Cleanup() {}

// DeclareOutputFields implements stream.OutputDeclarer.
func (b *ARBolt) DeclareOutputFields() map[string]stream.Fields {
	return map[string]stream.Fields{
		StreamSim: simFields,
	}
}

// ARItemBolt maintains per-item transaction supports for AR.
type ARItemBolt struct {
	p     Params
	store State
	st    *taskState
	keys  *interner
}

// NewARItemBolt returns the bolt factory.
func NewARItemBolt(store State, p Params) stream.BoltFactory {
	p = p.withDefaults()
	return func() stream.Bolt { return &ARItemBolt{p: p, store: store} }
}

// Prepare implements stream.Bolt.
func (b *ARItemBolt) Prepare(_ stream.TopologyContext, _ stream.Collector) error {
	b.st = newTaskState(b.store, b.p.CacheSize)
	b.keys = newInterner(b.p.CacheSize)
	return nil
}

// Execute implements stream.Bolt.
func (b *ARItemBolt) Execute(t *stream.Tuple) error {
	if t.IsTick() {
		return nil
	}
	item := t.Value("item").(string)
	session := t.Value("session").(int64)
	key, h := b.keys.key2(prefixARItem, item)
	_, err := b.st.addCounter(key, h, b.p.WindowSessions, session, 1)
	return err
}

// Cleanup implements stream.Bolt.
func (b *ARItemBolt) Cleanup() {}

// NewARListBolt persists AR rule lists (consequents ranked by
// confidence), reusing the ResultStorage machinery under the al: prefix.
func NewARListBolt(store State, p Params) stream.BoltFactory {
	p2 := p.withDefaults()
	return func() stream.Bolt { return &ResultStorageBolt{p: p2, store: store, prefix: prefixARList} }
}

// ItemInfoBolt stores item content profiles for the CB algorithm:
// grouped by item id, it writes the normalized TF vector of each item.
type ItemInfoBolt struct {
	p     Params
	store State
	st    *taskState
}

// NewItemInfoBolt returns the bolt factory.
func NewItemInfoBolt(store State, p Params) stream.BoltFactory {
	p = p.withDefaults()
	return func() stream.Bolt { return &ItemInfoBolt{p: p, store: store} }
}

// Prepare implements stream.Bolt.
func (b *ItemInfoBolt) Prepare(_ stream.TopologyContext, _ stream.Collector) error {
	b.st = newTaskState(b.store, b.p.CacheSize)
	return nil
}

// Execute implements stream.Bolt.
func (b *ItemInfoBolt) Execute(t *stream.Tuple) error {
	if t.IsTick() {
		return nil
	}
	item := t.Value("item").(string)
	terms, _ := t.Value("terms").([]string)
	published := t.Value("published").(int64)
	key := prefixItemInfo + item
	return b.st.Put(key, keyhash.String(key), itemProfile(terms, published))
}

// itemProfile is the stored value of an item's content profile: the
// normalized TF vector of its terms and its publication time in Unix
// nanoseconds. ItemInfoBolt and PutItemProfile both write it.
func itemProfile(terms []string, published int64) []byte {
	counts := make(map[string]float64)
	for _, term := range terms {
		counts[term]++
	}
	var norm float64
	for _, c := range counts {
		norm += c * c
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for term := range counts {
			counts[term] /= norm
		}
	}
	return encodeProfile(storedProfile{Weights: counts, Published: published})
}

// Cleanup implements stream.Bolt.
func (b *ItemInfoBolt) Cleanup() {}

// CBBolt maintains content-based user interest profiles: grouped by user
// id, it folds each action's item vector (from the ItemInfo statistics)
// into the user's decayed term-weight profile.
type CBBolt struct {
	p     Params
	store State
	st    *taskState
	keys  *interner
}

// NewCBBolt returns the bolt factory.
func NewCBBolt(store State, p Params) stream.BoltFactory {
	p = p.withDefaults()
	return func() stream.Bolt { return &CBBolt{p: p, store: store} }
}

// Prepare implements stream.Bolt.
func (b *CBBolt) Prepare(_ stream.TopologyContext, _ stream.Collector) error {
	b.st = newTaskState(b.store, b.p.CacheSize)
	b.keys = newInterner(b.p.CacheSize)
	return nil
}

// Execute implements stream.Bolt.
func (b *CBBolt) Execute(t *stream.Tuple) error {
	if t.IsTick() {
		return nil
	}
	user := t.Value("user").(string)
	item := t.Value("item").(string)
	ts := t.Value("ts").(int64)
	weight := b.p.Weights[core.ActionType(t.Value("action").(string))]
	if weight <= 0 {
		return nil
	}
	// The item's content vector (foreign: ItemInfo owns it) and the
	// user's profile (owned) come back in one batched read.
	ukey, uh := b.keys.key2(prefixUserProfile, user)
	ikey, ih := b.keys.key2(prefixItemInfo, item)
	sb := b.st.batch()
	sb.stage(ukey, uh, false)
	sb.stage(ikey, ih, true)
	if err := sb.load(); err != nil {
		return err
	}
	rawItem, ok, err := sb.getForeign(ikey, ih)
	if err != nil || !ok {
		return err // unknown item: nothing to learn
	}
	itemProf, err := decodeProfile(rawItem)
	if err != nil {
		return err
	}
	rawUser, ok, err := sb.get(ukey, uh)
	if err != nil {
		return err
	}
	prof := storedProfile{Weights: make(map[string]float64)}
	if ok {
		if prof, err = decodeProfile(rawUser); err != nil {
			return err
		}
	}
	// Exponential decay since last update.
	if b.p.CBHalfLife > 0 && prof.UpdatedTS > 0 && ts > prof.UpdatedTS {
		f := math.Exp2(-float64(ts-prof.UpdatedTS) / float64(b.p.CBHalfLife))
		for term, w := range prof.Weights {
			w *= f
			if w < 1e-6 {
				delete(prof.Weights, term)
			} else {
				prof.Weights[term] = w
			}
		}
	}
	for term, tf := range itemProf.Weights {
		prof.Weights[term] += weight * tf
	}
	// A late action decays nothing and does not move the profile back in
	// time: the next decay runs from the latest update, as cb.Engine's does.
	prof.UpdatedTS = max(prof.UpdatedTS, ts)
	sb.put(ukey, uh, encodeProfile(prof))
	return sb.flush()
}

// Cleanup implements stream.Bolt.
func (b *CBBolt) Cleanup() {}

// CtrStoreBolt maintains the situational impression/click counters:
// grouped by item id, one windowed counter pair per (cuboid cell, item).
// After each update it emits the cell's smoothed CTR for ranking.
type CtrStoreBolt struct {
	p     Params
	store State
	c     stream.Collector
	st    *taskState
	keys  *interner
}

// NewCtrStoreBolt returns the bolt factory.
func NewCtrStoreBolt(store State, p Params) stream.BoltFactory {
	p = p.withDefaults()
	return func() stream.Bolt { return &CtrStoreBolt{p: p, store: store} }
}

// Prepare implements stream.Bolt.
func (b *CtrStoreBolt) Prepare(_ stream.TopologyContext, c stream.Collector) error {
	b.c = c
	b.st = newTaskState(b.store, b.p.CacheSize)
	b.keys = newInterner(b.p.CacheSize)
	return nil
}

// Execute implements stream.Bolt.
func (b *CtrStoreBolt) Execute(t *stream.Tuple) error {
	if t.IsTick() {
		return nil
	}
	item := t.Value("item").(string)
	etype := t.Value("etype").(string)
	cx := ctr.Context{
		Region:   t.Value("region").(string),
		Gender:   t.Value("gender").(string),
		AgeGroup: t.Value("age").(string),
		Position: t.Value("position").(string),
	}
	ts := t.Value("ts").(int64)
	session := b.p.clock().SessionOf(RawAction{TS: ts}.Time())
	// One event touches every cuboid's cell; the incremented counters
	// (owned, cached) and their read-only partners (store-direct, as in
	// the single-key path) are fetched in one batched read and the
	// increments land in one batched write.
	addPre, readPre := prefixCtrImp, prefixCtrClk
	if etype != "impression" {
		addPre, readPre = prefixCtrClk, prefixCtrImp
	}
	sb := b.st.batch()
	for _, cb := range b.p.CtrCuboids {
		sit := cb.Key(cx)
		ak, ah := b.keys.key3(addPre, sit, item)
		sb.stage(ak, ah, false)
		rk, rh := b.keys.key3(readPre, sit, item)
		sb.stage(rk, rh, true)
	}
	if err := sb.load(); err != nil {
		return err
	}
	var loopErr error
	for _, cb := range b.p.CtrCuboids {
		sit := cb.Key(cx)
		ak, ah := b.keys.key3(addPre, sit, item)
		added, err := sb.addCounter(ak, ah, b.p.WindowSessions, session, 1)
		if err != nil {
			loopErr = err
			break
		}
		rk, rh := b.keys.key3(readPre, sit, item)
		read, err := sb.readCounterSum(rk, rh, session)
		if err != nil {
			loopErr = err
			break
		}
		imps, clks := added, read
		if etype != "impression" {
			imps, clks = read, added
		}
		score := (clks + b.p.CtrPriorClicks) / (imps + b.p.CtrPriorImpressions)
		b.c.EmitTo("ctr_cell", stream.Values{sit, item, score})
	}
	if err := sb.flush(); err != nil && loopErr == nil {
		loopErr = err
	}
	return loopErr
}

// Cleanup implements stream.Bolt.
func (b *CtrStoreBolt) Cleanup() {}

// DeclareOutputFields implements stream.OutputDeclarer.
func (b *CtrStoreBolt) DeclareOutputFields() map[string]stream.Fields {
	return map[string]stream.Fields{
		"ctr_cell": {"sit", "item", "score"},
	}
}

// CtrBolt maintains the per-situation ad ranking: grouped by situation
// key, it folds smoothed CTR updates into the situation's top list.
type CtrBolt struct {
	p     Params
	store State
	st    *taskState
	keys  *interner
}

// NewCtrBolt returns the bolt factory.
func NewCtrBolt(store State, p Params) stream.BoltFactory {
	p = p.withDefaults()
	return func() stream.Bolt { return &CtrBolt{p: p, store: store} }
}

// Prepare implements stream.Bolt.
func (b *CtrBolt) Prepare(_ stream.TopologyContext, _ stream.Collector) error {
	b.st = newTaskState(b.store, b.p.CacheSize)
	b.keys = newInterner(b.p.CacheSize)
	return nil
}

// Execute implements stream.Bolt.
func (b *CtrBolt) Execute(t *stream.Tuple) error {
	if t.IsTick() {
		return nil
	}
	sit := t.Value("sit").(string)
	item := t.Value("item").(string)
	score := t.Value("score").(float64)
	key, h := b.keys.key2(prefixCtrTop, sit)
	raw, ok, err := b.st.Get(key, h)
	if err != nil {
		return err
	}
	if !ok {
		raw = statecodec.EncodeList(nil)
	}
	// Merge into the cached frame in place.
	out, _, ok := statecodec.MergeListEntry(raw, item, score, b.p.TopK)
	if !ok {
		return errBadFrame(key, raw)
	}
	return b.st.Put(key, h, out)
}

// Cleanup implements stream.Bolt.
func (b *CtrBolt) Cleanup() {}
