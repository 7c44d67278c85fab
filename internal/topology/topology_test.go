package topology

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"tencentrec/internal/core"
	"tencentrec/internal/ctr"
	"tencentrec/internal/demographic"
	"tencentrec/internal/statecodec"
	"tencentrec/internal/stream"
	"tencentrec/internal/window"
)

var t0 = time.Date(2015, 5, 31, 0, 0, 0, 0, time.UTC)

// genActions produces a deterministic clustered action stream: users
// favour items in their own cluster, with occasional cross-cluster noise.
func genActions(seed int64, n, users, items int) []RawAction {
	rng := rand.New(rand.NewSource(seed))
	types := []string{"browse", "click", "read", "share", "purchase"}
	out := make([]RawAction, n)
	for i := range out {
		u := rng.Intn(users)
		var it int
		if rng.Float64() < 0.8 {
			it = (u%4)*(items/4) + rng.Intn(items/4) // own cluster
		} else {
			it = rng.Intn(items)
		}
		out[i] = RawAction{
			User:   fmt.Sprintf("u%d", u),
			Item:   fmt.Sprintf("i%d", it),
			Action: types[rng.Intn(len(types))],
			TS:     t0.Add(time.Duration(i) * time.Second).UnixNano(),
		}
	}
	return out
}

// runTopology executes a finite CF run over the action slice.
func runTopology(t *testing.T, st State, p Params, actions []RawAction, par Parallelism, feats Features) {
	t.Helper()
	b := NewBuilder("cf-test", NewSliceSpout(actions), st, p).
		WithParallelism(par).
		WithFeatures(feats)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.RunWithErrorHandler(context.Background(), func(c string, err error) {
		t.Errorf("component %s: %v", c, err)
	}); err != nil {
		t.Fatal(err)
	}
}

// libEngine replays the same actions through the in-process library.
func libEngine(p Params, actions []RawAction) *core.ItemCF {
	cf := core.NewItemCF(core.Config{
		Weights:         p.Weights,
		TopK:            p.TopK,
		LinkedTime:      p.LinkedTime,
		WindowSessions:  p.WindowSessions,
		SessionDuration: p.SessionDuration,
		MaxUserHistory:  p.MaxUserHistory,
	})
	for _, a := range actions {
		cf.Observe(core.Action{
			User: a.User, Item: a.Item,
			Type: core.ActionType(a.Action),
			Time: a.Time(),
		})
	}
	return cf
}

// readStateCounter decodes a windowed counter from state.
func readStateCounter(t *testing.T, st State, key string, w int, session int64) float64 {
	t.Helper()
	raw, ok, err := st.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		return 0
	}
	c := window.NewCounter(w)
	if err := c.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	return c.Sum(session)
}

func TestPipelineCountsMatchLibrary(t *testing.T) {
	// The §4.1.3 scalability claim, end to end: the distributed pipeline
	// (parallel tasks, fields grouping, combiners, caches) must produce
	// exactly the itemCounts and pairCounts the sequential library does.
	actions := genActions(7, 2000, 40, 40)
	p := Params{FlushInterval: time.Hour} // single final flush per bolt
	st := NewMemState()
	runTopology(t, st, p, actions,
		Parallelism{Spout: 2, Pretreatment: 2, UserHistory: 4, ItemCount: 3, PairCount: 3, Storage: 2},
		Features{CF: true})

	cf := libEngine(p.withDefaults(), actions)
	now := time.Unix(0, actions[len(actions)-1].TS)

	for i := 0; i < 40; i++ {
		item := fmt.Sprintf("i%d", i)
		want := cf.ItemCount(item, now)
		got := readStateCounter(t, st, prefixItemCount+item, 0, 0)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("itemCount(%s) = %v, library %v", item, got, want)
		}
	}
	checked := 0
	for a := 0; a < 40; a++ {
		for b := a + 1; b < 40; b++ {
			p1, p2 := fmt.Sprintf("i%d", a), fmt.Sprintf("i%d", b)
			want := cf.PairCount(p1, p2, now)
			got := readStateCounter(t, st, prefixPairCount+pairID(p1, p2), 0, 0)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("pairCount(%s,%s) = %v, library %v", p1, p2, got, want)
			}
			if want > 0 {
				checked++
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d live pairs checked; workload too thin", checked)
	}
}

func TestPipelineSimilarListsMatchLibrary(t *testing.T) {
	actions := genActions(11, 1500, 30, 24)
	p := Params{FlushInterval: time.Hour, TopK: 10}
	st := NewMemState()
	runTopology(t, st, p, actions,
		Parallelism{UserHistory: 3, ItemCount: 2, PairCount: 2, Storage: 2},
		Features{CF: true})

	cf := libEngine(p.withDefaults(), actions)
	now := time.Unix(0, actions[len(actions)-1].TS)
	srv := NewServing(st, p)

	for i := 0; i < 24; i++ {
		item := fmt.Sprintf("i%d", i)
		list, err := srv.SimilarItems(item, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range list {
			want := cf.Similarity(item, s.Item, now)
			if math.Abs(s.Score-want) > 1e-9 {
				t.Fatalf("stored sim(%s,%s) = %v, library %v", item, s.Item, s.Score, want)
			}
		}
	}
}

func TestPipelineSurvivesRestart(t *testing.T) {
	// Process half the stream, discard every bolt instance (a full
	// cluster restart), process the rest with fresh instances over the
	// same durable state: results must equal a single uninterrupted run.
	actions := genActions(13, 1200, 25, 20)
	p := Params{FlushInterval: time.Hour}
	st := NewMemState()
	half := len(actions) / 2
	runTopology(t, st, p, actions[:half], Parallelism{UserHistory: 2, PairCount: 2}, Features{CF: true})
	runTopology(t, st, p, actions[half:], Parallelism{UserHistory: 2, PairCount: 2}, Features{CF: true})

	cf := libEngine(p.withDefaults(), actions)
	now := time.Unix(0, actions[len(actions)-1].TS)
	for i := 0; i < 20; i++ {
		item := fmt.Sprintf("i%d", i)
		want := cf.ItemCount(item, now)
		got := readStateCounter(t, st, prefixItemCount+item, 0, 0)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("itemCount(%s) after restart = %v, library %v", item, got, want)
		}
	}
}

func TestPipelineWindowedCounts(t *testing.T) {
	p := Params{FlushInterval: time.Hour, WindowSessions: 2, SessionDuration: time.Hour}
	mk := func(ts time.Time, user, item string) RawAction {
		return RawAction{User: user, Item: item, Action: "browse", TS: ts.UnixNano()}
	}
	actions := []RawAction{
		mk(t0, "u1", "a"),
		mk(t0.Add(time.Minute), "u1", "b"),
		mk(t0.Add(5*time.Hour), "u2", "a"), // much later session
	}
	clock := window.Clock{Session: time.Hour}
	early := clock.SessionOf(t0.Add(time.Minute))
	late := clock.SessionOf(t0.Add(5 * time.Hour))

	// First two actions only: the early session is still in the window.
	st1 := NewMemState()
	runTopology(t, st1, p, actions[:2], Parallelism{}, Features{CF: true})
	if got := readStateCounter(t, st1, prefixItemCount+"a", 2, early); got != 1 {
		t.Fatalf("itemCount(a) early = %v, want 1", got)
	}
	if got := readStateCounter(t, st1, prefixPairCount+pairID("a", "b"), 2, early); got != 1 {
		t.Fatalf("pairCount(a,b) early = %v, want 1", got)
	}

	// Full stream: the window has slid past the early contributions, so
	// only the late touch of "a" remains and the pair has expired.
	st := NewMemState()
	runTopology(t, st, p, actions, Parallelism{}, Features{CF: true})
	if got := readStateCounter(t, st, prefixItemCount+"a", 2, late); got != 1 {
		t.Fatalf("itemCount(a) late = %v, want 1 (only the late touch)", got)
	}
	if got := readStateCounter(t, st, prefixPairCount+pairID("a", "b"), 2, late); got != 0 {
		t.Fatalf("pairCount(a,b) late = %v, want 0 (expired)", got)
	}
}

func TestPipelineDBHotLists(t *testing.T) {
	profiles := map[string]demographic.Profile{
		"m1": {Gender: "m", AgeGroup: "20-30"},
		"m2": {Gender: "m", AgeGroup: "20-30"},
		"f1": {Gender: "f", AgeGroup: "20-30"},
	}
	p := Params{
		FlushInterval: time.Hour,
		ProfileFor:    func(u string) demographic.Profile { return profiles[u] },
		GroupBy:       demographic.DefaultGroupBy(),
	}
	var actions []RawAction
	add := func(user, item string, i int) {
		actions = append(actions, RawAction{User: user, Item: item, Action: "click", TS: t0.Add(time.Duration(i) * time.Second).UnixNano()})
	}
	for i := 0; i < 5; i++ {
		add("m1", "male-fav", i)
		add("m2", "male-fav", i+100)
		add("f1", "female-fav", i+200)
	}
	st := NewMemState()
	runTopology(t, st, p, actions, Parallelism{DB: 2}, Features{})
	srv := NewServing(st, p)
	hotM, err := srv.HotItems("m1", 1)
	if err != nil || len(hotM) != 1 || hotM[0].Item != "male-fav" {
		t.Fatalf("male hot = %v %v", hotM, err)
	}
	hotF, _ := srv.HotItems("f1", 1)
	if len(hotF) != 1 || hotF[0].Item != "female-fav" {
		t.Fatalf("female hot = %v", hotF)
	}
	// Unknown user → global group, which saw everything; male-fav has
	// 10 clicks vs 5.
	hotG, _ := srv.HotItems("stranger", 1)
	if len(hotG) != 1 || hotG[0].Item != "male-fav" {
		t.Fatalf("global hot = %v", hotG)
	}
}

func TestPipelineCtrChain(t *testing.T) {
	p := Params{FlushInterval: time.Hour, WindowSessions: -1}
	cx := func(g string) RawAction {
		return RawAction{User: "x", Gender: g, Age: "20-30", Region: "beijing"}
	}
	var actions []RawAction
	ev := func(item, etype, gender string, i int) {
		a := cx(gender)
		a.Item = item
		a.Action = etype
		a.TS = t0.Add(time.Duration(i) * time.Second).UnixNano()
		actions = append(actions, a)
	}
	for i := 0; i < 40; i++ {
		ev("ad-good", "impression", "m", i)
		ev("ad-bad", "impression", "m", i)
		if i < 20 {
			ev("ad-good", "ad_click", "m", i)
		}
		if i < 2 {
			ev("ad-bad", "ad_click", "m", i)
		}
	}
	st := NewMemState()
	runTopology(t, st, p, actions, Parallelism{Ctr: 2}, Features{Ctr: true})
	srv := NewServing(st, p)
	top, err := srv.TopAds(ctr.Context{Gender: "m", AgeGroup: "20-30", Region: "beijing"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0].Item != "ad-good" {
		t.Fatalf("TopAds = %v, want ad-good first", top)
	}
	// Broad context also answers (global cuboid).
	topG, _ := srv.TopAds(ctr.Context{}, 2)
	if len(topG) != 2 || topG[0].Item != "ad-good" {
		t.Fatalf("global TopAds = %v", topG)
	}
}

func TestPipelineCBChain(t *testing.T) {
	p := Params{FlushInterval: time.Hour}
	items := []ItemMeta{
		{ID: "sports1", Terms: []string{"football", "goal", "striker"}, Published: t0},
		{ID: "sports2", Terms: []string{"football", "match", "striker"}, Published: t0},
		{ID: "tech1", Terms: []string{"chip", "benchmark", "cpu"}, Published: t0},
	}
	actions := []RawAction{
		{User: "u", Item: "sports1", Action: "read", TS: t0.Add(time.Minute).UnixNano()},
	}
	st := NewMemState()
	b := NewBuilder("cb-test", NewSliceSpout(actions), st, p).
		WithFeatures(Features{CB: true}).
		WithItemFeed(NewItemFeedSpout(items))
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The item feed must land before the user action is processed; with
	// both spouts racing, CBBolt may see the action first and skip it
	// (unknown item). Run the feed-only topology first for determinism.
	// Simplest: run twice — items persist in state.
	if _, err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	topo2, err := NewBuilder("cb-test-2", NewSliceSpout(actions), st, p).
		WithFeatures(Features{CB: true}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := NewServing(st, p)
	recs, err := srv.RecommendCB("u", []string{"sports2", "tech1"}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Item != "sports2" {
		t.Fatalf("CB recs = %v, want sports2 first", recs)
	}
}

// TestCBBoltDecaysProfiles runs CBBolt's decay: with Params.CBHalfLife
// set, an action one half-life after the profile's last update halves the
// weights the profile held before it adds its own item's; an action older
// than the profile's UpdatedTS decays nothing and leaves UpdatedTS where it
// was, as the cb library's profile does; and a weight that decays under
// 1e-6 is dropped. The items' terms are disjoint, so each term's weight is
// one item's alone.
func TestCBBoltDecaysProfiles(t *testing.T) {
	const half = time.Hour
	st := NewMemState()
	for item, term := range map[string]string{"a": "alpha", "b": "beta", "c": "gamma"} {
		if err := PutItemProfile(st, item, []string{term}, t0); err != nil {
			t.Fatal(err)
		}
	}
	p := Params{CBHalfLife: half}
	b := NewCBBolt(st, p)()
	if err := b.Prepare(stream.TopologyContext{}, nil); err != nil {
		t.Fatal(err)
	}
	w := p.withDefaults().Weights[core.ActionClick]
	act := func(item string, at time.Time) storedProfile {
		t.Helper()
		if err := b.Execute(stream.NewTuple(UnitPretreatment, StreamUserAction, actionFields,
			stream.Values{"u", item, "click", at.UnixNano()})); err != nil {
			t.Fatal(err)
		}
		raw, ok, err := st.Get(prefixUserProfile + "u")
		if err != nil || !ok {
			t.Fatalf("profile after %s: ok=%v, %v", item, ok, err)
		}
		prof, err := decodeProfile(raw)
		if err != nil {
			t.Fatal(err)
		}
		return prof
	}
	same := func(step string, got storedProfile, want map[string]float64, updated time.Time) {
		t.Helper()
		if got.UpdatedTS != updated.UnixNano() || len(got.Weights) != len(want) {
			t.Fatalf("%s: profile %v updated %d, want %v updated %d", step, got.Weights, got.UpdatedTS, want, updated.UnixNano())
		}
		for term, v := range want {
			if math.Abs(got.Weights[term]-v) > 1e-12 {
				t.Fatalf("%s: %s = %v, want %v", step, term, got.Weights[term], v)
			}
		}
	}
	same("first action", act("a", t0), map[string]float64{"alpha": w}, t0)
	same("one half-life on", act("b", t0.Add(half)), map[string]float64{"alpha": w / 2, "beta": w}, t0.Add(half))
	same("a late action", act("c", t0), map[string]float64{"alpha": w / 2, "beta": w, "gamma": w}, t0.Add(half))
	// 2^-40 of a weight of a few units is under 1e-6: everything held
	// before goes, and only the new action's term is left.
	same("forty half-lives on", act("a", t0.Add(41*half)), map[string]float64{"alpha": w}, t0.Add(41*half))
}

func TestPipelineARChain(t *testing.T) {
	p := Params{FlushInterval: time.Hour}
	var actions []RawAction
	add := func(user, item string, i int) {
		actions = append(actions, RawAction{User: user, Item: item, Action: "purchase", TS: t0.Add(time.Duration(i) * time.Second).UnixNano()})
	}
	for u := 0; u < 6; u++ {
		add(fmt.Sprintf("u%d", u), "bread", u*10)
		add(fmt.Sprintf("u%d", u), "butter", u*10+1)
	}
	add("x", "bread", 100)
	st := NewMemState()
	runTopology(t, st, p, actions, Parallelism{AR: 2}, Features{AR: true})
	srv := NewServing(st, p)
	recs, err := srv.ARRecommend("x", t0.Add(2*time.Minute), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Item != "butter" {
		t.Fatalf("AR recs = %v, want butter", recs)
	}
}

func TestPipelineFilterBolt(t *testing.T) {
	actions := genActions(17, 800, 20, 16)
	p := Params{
		FlushInterval: time.Hour,
		Filter:        func(item string) bool { return item != "i0" },
	}
	st := NewMemState()
	runTopology(t, st, p, actions, Parallelism{}, Features{CF: true})
	srv := NewServing(st, p)
	for i := 1; i < 16; i++ {
		list, _ := srv.SimilarItems(fmt.Sprintf("i%d", i), 0)
		for _, s := range list {
			if s.Item == "i0" {
				t.Fatalf("filtered item i0 stored in i%d's list", i)
			}
		}
	}
}

// roundSpout replays actions a round at a time: it emits one round, then
// idles until the test releases the next, so the test can put exactly one
// hand-driven tick per combiner bolt (Quiesce) between rounds. It exhausts
// after the last action.
type roundSpout struct {
	actions []RawAction
	round   int
	release chan struct{}
	emitted *atomic.Int64
	allowed int
	c       stream.SpoutCollector
}

func (s *roundSpout) Open(_ stream.TopologyContext, c stream.SpoutCollector) error {
	s.c = c
	return nil
}

func (s *roundSpout) NextTuple() bool {
	next := int(s.emitted.Load())
	if next == len(s.actions) {
		return false
	}
	if next == s.allowed {
		select {
		case <-s.release:
			s.allowed += s.round
		case <-time.After(100 * time.Microsecond):
			return true
		}
	}
	s.c.Emit(stream.Values{EncodeAction(s.actions[next])})
	s.emitted.Add(1)
	return true
}

func (s *roundSpout) Close() {}

func (s *roundSpout) DeclareOutputFields() map[string]stream.Fields {
	return map[string]stream.Fields{stream.DefaultStream: rawFields}
}

// TestPipelinePruningReducesSimWork: pruned pairs stop producing
// similarity updates, so the PairCount unit's emission count is the
// §4.1.4 work metric, and pruning must lower it.
func TestPipelinePruningReducesSimWork(t *testing.T) {
	actions := genActions(23, 6000, 60, 32)

	// The default path: combiner on, pairs applied on ticks.
	// How many similarity updates a run emits depends on where the ticks
	// fall in the input (with free-running 1 ms ticks it swings between
	// 4 600 and 13 000 for this input), so the ticks are driven by hand:
	// no interval tick ever fires, the input arrives in rounds, and between
	// rounds Quiesce drains the pipeline and ticks itemCount, then
	// pairCount, once. Every flush then sees the same input, counters and
	// published thresholds on every run, and the counts are exact.
	t.Run("combiner", func(t *testing.T) {
		const round = 100
		run := func(delta float64) int64 {
			release := make(chan struct{})
			var emitted atomic.Int64
			spout := func() stream.Spout {
				return &roundSpout{actions: actions, round: round, release: release, emitted: &emitted}
			}
			p := Params{FlushInterval: time.Hour, PruningDelta: delta, TopK: 3}
			topo, err := NewBuilder("prune", spout, NewMemState(), p).WithFeatures(Features{CF: true}).Build()
			if err != nil {
				t.Fatal(err)
			}
			h := topo.SubmitWithErrorHandler(func(c string, err error) { t.Errorf("component %s: %v", c, err) })
			for done := round; ; done += round {
				release <- struct{}{}
				for emitted.Load() < int64(done) {
					time.Sleep(50 * time.Microsecond)
				}
				if done == len(actions) {
					break // the spout exhausts; shutdown runs the final ticks
				}
				if err := h.Quiesce(func() error { return nil }); err != nil {
					t.Fatal(err)
				}
			}
			h.Wait()
			return h.Metrics().Components[UnitPairCount].Emitted
		}
		off, on := run(0), run(0.05)
		t.Logf("similarity updates emitted: %d without pruning, %d with", off, on)
		if on >= off {
			t.Fatalf("pruning did not reduce similarity updates: on=%d off=%d", on, off)
		}
		if off2, on2 := run(0), run(0.05); off2 != off || on2 != on {
			t.Fatalf("hand-driven ticks did not make the counts exact: off %d then %d, on %d then %d", off, off2, on, on2)
		}
	})

	// Combiner off, no interval ticks: every pair delta is applied, and
	// emits, as it arrives (bar the few that find an itemCount not yet
	// written and wait for the final tick: 148k-155k updates over 20
	// runs). With pruning, a pruned pair's later deltas are skipped; when
	// resultStorage's write-behind flushes publish the thresholds moves
	// how early that starts (73k-95k), never past the other range.
	t.Run("per-tuple", func(t *testing.T) {
		run := func(delta float64) int64 {
			p := Params{FlushInterval: time.Hour, DisableCombiner: true, PruningDelta: delta, TopK: 3}
			topo, err := NewBuilder("prune", NewSliceSpout(actions), NewMemState(), p).WithFeatures(Features{CF: true}).Build()
			if err != nil {
				t.Fatal(err)
			}
			m, err := topo.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return m.Components[UnitPairCount].Emitted
		}
		off, on := run(0), run(0.05)
		t.Logf("similarity updates emitted: %d without pruning, %d with", off, on)
		if on >= off {
			t.Fatalf("pruning did not reduce similarity updates: on=%d off=%d", on, off)
		}
	})
}

func TestServingRecommendCFWithComplement(t *testing.T) {
	actions := genActions(29, 1500, 30, 24)
	p := Params{FlushInterval: time.Hour}
	st := NewMemState()
	runTopology(t, st, p, actions, Parallelism{}, Features{CF: true})
	srv := NewServing(st, p)

	// A user with history gets CF recommendations that exclude rated
	// items.
	recs, err := srv.RecommendCF("u3", time.Unix(0, actions[len(actions)-1].TS), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no recommendations for an active user")
	}
	lib := libEngine(p.withDefaults(), actions)
	for _, r := range recs {
		if lib.UserRating("u3", r.Item) > 0 {
			t.Fatalf("recommended already-rated item %s", r.Item)
		}
	}
	// A cold user falls back to the global hot list.
	cold, err := srv.RecommendCF("stranger", time.Unix(0, actions[len(actions)-1].TS), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold) == 0 {
		t.Fatal("cold user got no complement recommendations")
	}
}

// TestServingRecommendCFFillsPastRatedHotItems: a user who clicked the
// first two items of a ten-item hot list and has no CF candidates gets a
// full slate from the rest of the list.
func TestServingRecommendCFFillsPastRatedHotItems(t *testing.T) {
	st := NewMemState()
	var hot statecodec.List
	for i := 0; i < 10; i++ {
		hot = append(hot, core.ScoredItem{Item: fmt.Sprintf("hot%d", i), Score: float64(10 - i)})
	}
	st.Put(prefixHotList+demographic.GlobalGroup, statecodec.EncodeList(hot))
	st.Put(prefixUserHistory+"u", statecodec.EncodeHistory(statecodec.History{
		"hot0": {Rating: 1, TS: t0.UnixNano()}, "hot1": {Rating: 1, TS: t0.UnixNano()},
	}))
	srv := NewServing(st, Params{})
	for _, exclude := range []map[string]bool{nil, {"hot2": true}} {
		recs, err := srv.RecommendCF("u", t0.Add(time.Minute), 3, exclude)
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"hot2", "hot3", "hot4"}
		if exclude != nil {
			want = []string{"hot3", "hot4", "hot5"}
		}
		if len(recs) != len(want) {
			t.Fatalf("exclude %v: RecommendCF(n=3) = %v, want %v", exclude, recs, want)
		}
		for i, r := range recs {
			if r.Item != want[i] {
				t.Fatalf("exclude %v: RecommendCF(n=3) = %v, want %v", exclude, recs, want)
			}
		}
	}
}

func TestActionCodecRoundTrip(t *testing.T) {
	a := RawAction{User: "u", Item: "i", Action: "click", TS: 12345, Region: "beijing", Gender: "m", Age: "20-30", Position: "top"}
	got, err := DecodeAction(EncodeAction(a))
	if err != nil || got != a {
		t.Fatalf("round trip = %+v, %v", got, err)
	}
	if _, err := DecodeAction([]byte("{broken")); err == nil {
		t.Fatal("DecodeAction accepted garbage")
	}
	// One encoding per action: the frame is validated whole, and each of
	// these differs from a good frame in one place.
	frame := EncodeAction(a)
	padded := append([]byte{}, frame[:3]...) // user length 1 written as 0x81 0x00
	padded = append(append(padded, 0x81, 0x00), frame[4:]...)
	for name, bad := range map[string][]byte{
		"json record":     []byte(`{"user":"u","item":"i","action":"click","ts":12345}`),
		"truncated":       frame[:len(frame)-1],
		"trailing byte":   append(append([]byte{}, frame...), 0),
		"wrong type byte": append([]byte{frame[0], 'H'}, frame[2:]...),
		"next version":    append([]byte{frame[0], frame[1], 2}, frame[3:]...),
		"padded varint":   padded,
		"header only":     frame[:3],
	} {
		if got, err := DecodeAction(bad); err == nil {
			t.Errorf("%s: DecodeAction accepted %x as %+v", name, bad, got)
		}
	}
	for _, ts := range []int64{0, -1, 1, -1 << 63, 1<<63 - 1} {
		in := RawAction{User: "u", Item: "i", Action: "read", TS: ts}
		if out, err := DecodeAction(EncodeAction(in)); err != nil || out != in {
			t.Errorf("ts %d: round trip = %+v, %v", ts, out, err)
		}
	}
}

func TestPairIDRoundTrip(t *testing.T) {
	id := pairID("b-item", "a-item")
	if id != pairID("a-item", "b-item") {
		t.Fatal("pairID not canonical")
	}
	x, y := splitPair(id)
	if x != "a-item" || y != "b-item" {
		t.Fatalf("splitPair = %q, %q", x, y)
	}
}

func TestUpdateStoredList(t *testing.T) {
	var l storedList
	l, thr := updateStoredList(l, "a", 0.5, 2)
	if thr != 0 || len(l) != 1 {
		t.Fatalf("l=%v thr=%v", l, thr)
	}
	l, thr = updateStoredList(l, "b", 0.9, 2)
	if thr != 0.5 || l[0].Item != "b" {
		t.Fatalf("l=%v thr=%v", l, thr)
	}
	l, _ = updateStoredList(l, "c", 0.7, 2) // evicts a
	if len(l) != 2 || l[1].Item != "c" {
		t.Fatalf("l=%v", l)
	}
	// Score update moves an entry.
	l, _ = updateStoredList(l, "c", 0.95, 2)
	if l[0].Item != "c" {
		t.Fatalf("l=%v", l)
	}
	// Zero score removes.
	l, _ = updateStoredList(l, "c", 0, 2)
	if len(l) != 1 || l[0].Item != "b" {
		t.Fatalf("l=%v", l)
	}
}
