package topology

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"tencentrec/internal/core"
	"tencentrec/internal/demographic"
	"tencentrec/internal/statecodec"
	"tencentrec/internal/stream"
)

// emitCapture is a bolt collector that keeps emissions with their stream.
type emitCapture struct{ out []pendingEmit }

func (c *emitCapture) Emit(v stream.Values) { c.EmitTo(stream.DefaultStream, v) }
func (c *emitCapture) EmitTo(sid string, v stream.Values) {
	c.out = append(c.out, pendingEmit{stream: sid, values: v})
}

var actionFields = stream.Fields{"user", "item", "action", "ts"}

// userHistoryBolt returns a prepared UserHistoryBolt over st.
func userHistoryBolt(t *testing.T, st State, p Params) (*UserHistoryBolt, *emitCapture) {
	t.Helper()
	b := newUserHistoryBolt(st, p, false)().(*UserHistoryBolt)
	c := &emitCapture{}
	if err := b.Prepare(stream.TopologyContext{}, c); err != nil {
		t.Fatal(err)
	}
	return b, c
}

// TestUserHistoryEvictsAtEveryCap: the history cap holds after every
// action on both sides of the 127/128 count-width boundary, the entry
// that goes is the oldest by TS (the first in encoded order among
// equals), and the stored history is the one a plain map would hold.
// Three consecutive actions share a timestamp, so ties are the rule.
func TestUserHistoryEvictsAtEveryCap(t *testing.T) {
	for _, maxHist := range []int{126, 127, 128, 200} {
		t.Run(fmt.Sprint(maxHist), func(t *testing.T) {
			st := NewMemState()
			b, _ := userHistoryBolt(t, st, Params{MaxUserHistory: maxHist})
			weights := b.p.Weights
			ref := map[string]storedRating{}
			var order []string // encoded order: appended when new, spliced when evicted
			types := []string{"browse", "click", "purchase"}
			touch := func(step int, item string) {
				t.Helper()
				action := types[step%len(types)]
				ts := t0.Add(time.Duration(step/3) * time.Second).UnixNano()
				if err := b.Execute(stream.NewTuple(UnitPretreatment, StreamUserAction, actionFields,
					stream.Values{"u", item, action, ts})); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				prev, had := ref[item]
				if !had {
					order = append(order, item)
				}
				ref[item] = storedRating{Rating: math.Max(prev.Rating, weights[core.ActionType(action)]), TS: ts}
				if len(ref) > maxHist {
					at := -1
					for i, it := range order {
						if it != item && (at < 0 || ref[it].TS < ref[order[at]].TS) {
							at = i
						}
					}
					delete(ref, order[at])
					order = append(order[:at], order[at+1:]...)
				}

				raw, _, _ := st.Get(prefixUserHistory + "u")
				got, err := statecodec.DecodeHistory(raw)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if len(got) > maxHist {
					t.Fatalf("step %d: %d entries stored, cap %d", step, len(got), maxHist)
				}
				if len(got) != len(ref) {
					t.Fatalf("step %d: %d entries stored, reference %d", step, len(got), len(ref))
				}
				for k, want := range ref {
					if got[k] != want {
						t.Fatalf("step %d: stored %q = %+v, reference %+v", step, k, got[k], want)
					}
				}
			}
			step := 0
			for i := 0; i < 300; i++ {
				touch(step, fmt.Sprintf("i%d", i))
				step++
				if i%5 == 4 { // come back to an older item, evicted by then or not
					touch(step, fmt.Sprintf("i%d", i/2))
					step++
				}
			}
		})
	}
}

// TestUserHistoryDeltasMatchLibraryPast127Items: one user growing from
// 0 to 130 items and then raising ratings across the whole history emits
// exactly the item, pair and group deltas the sequential library's
// co-rating arithmetic produces — the counts they add up to equal
// core.ItemCF's after every action.
func TestUserHistoryDeltasMatchLibraryPast127Items(t *testing.T) {
	p := Params{}.withDefaults()
	b, c := userHistoryBolt(t, NewMemState(), p)
	cf := libEngine(p, nil)
	itemCount := map[string]float64{}
	pairCount := map[string]float64{}
	var items []string
	act := func(step int, item, action string) {
		t.Helper()
		at := t0.Add(time.Duration(step) * time.Second)
		c.out = c.out[:0]
		if err := b.Execute(stream.NewTuple(UnitPretreatment, StreamUserAction, actionFields,
			stream.Values{"u", item, action, at.UnixNano()})); err != nil {
			t.Fatal(err)
		}
		cf.Observe(core.Action{User: "u", Item: item, Type: core.ActionType(action), Time: at})
		var groups []stream.Values
		pairRuns, had := 0, 0
		for _, j := range items {
			if j == item {
				had = 1
			}
		}
		for _, e := range c.out {
			switch e.stream {
			case StreamItemDelta:
				itemCount[e.values[0].(string)] += e.values[1].(float64)
			case StreamPairDelta:
				// One run per action, a row per co-rated history entry.
				if pairRuns++; pairRuns > 1 {
					t.Fatalf("step %d: %d pair_delta tuples for one action", step, pairRuns)
				}
				run := e.values[0].(stream.Run)
				if len(run) != len(items)-had {
					t.Fatalf("step %d: pair_delta run of %d rows, %d co-rated items", step, len(run), len(items)-had)
				}
				for _, row := range run {
					pairCount[row.Key] += row.Num
				}
			case StreamGroupDelta:
				groups = append(groups, e.values)
			default:
				t.Fatalf("step %d: emission on %q", step, e.stream)
			}
		}
		if len(groups) != 1 || groups[0][0] != demographic.GlobalGroup || groups[0][1] != item ||
			groups[0][2] != p.Weights[core.ActionType(action)] {
			t.Fatalf("step %d: group deltas %v, want one global (%s, %v)", step, groups, item, p.Weights[core.ActionType(action)])
		}
		if got, want := itemCount[item], cf.ItemCount(item, at); got != want {
			t.Fatalf("step %d (%d items): Σ item_delta(%s) = %v, library %v", step, len(items), item, got, want)
		}
		for _, j := range items {
			if j == item {
				continue
			}
			if got, want := pairCount[pairID(item, j)], cf.PairCount(item, j, at); got != want {
				t.Fatalf("step %d (%d items): Σ pair_delta(%s,%s) = %v, library %v", step, len(items), item, j, got, want)
			}
		}
	}
	step := 0
	for i := 0; i < 130; i++ {
		item := fmt.Sprintf("i%d", i)
		act(step, item, []string{"browse", "click", "read"}[i%3])
		items = append(items, item)
		step++
	}
	// Raise ratings with the history past 128 entries: every pair the item
	// is in moves.
	for _, i := range []int{0, 64, 127, 128, 129} {
		act(step, items[i], "purchase")
		step++
	}
	if n := 130 * 129 / 2; len(pairCount) != n {
		t.Fatalf("%d pairs received deltas, want %d", len(pairCount), n)
	}
}

// actMatchesLibrary runs one action through the bolt and the library and
// fails unless the bolt's deltas are what the action adds to the
// library's counts: each delta in the action's session, the item delta
// the move of cf.ItemCount, a pair row for every co-rated item whose
// cf.PairCount moves and by that much, and one global group delta of
// the action's weight. items lists every item the user has touched.
func actMatchesLibrary(t *testing.T, b *UserHistoryBolt, c *emitCapture, cf *core.ItemCF, items []string, item, action string, at time.Time) {
	t.Helper()
	session := b.p.clock().SessionOf(at)
	itemBefore := cf.ItemCount(item, at)
	pairBefore := map[string]float64{}
	for _, j := range items {
		if j != item {
			pairBefore[pairID(item, j)] = cf.PairCount(item, j, at)
		}
	}
	c.out = c.out[:0]
	if err := b.Execute(stream.NewTuple(UnitPretreatment, StreamUserAction, actionFields,
		stream.Values{"u", item, action, at.UnixNano()})); err != nil {
		t.Fatal(err)
	}
	cf.Observe(core.Action{User: "u", Item: item, Type: core.ActionType(action), Time: at})

	var itemDelta float64
	pairDelta := map[string]float64{}
	var groups []stream.Values
	for _, e := range c.out {
		if got := e.values[len(e.values)-1]; got != session {
			t.Fatalf("%s %s at %v: %s tuple in session %v, want %d", action, item, at, e.stream, got, session)
		}
		switch e.stream {
		case StreamItemDelta:
			itemDelta += e.values[1].(float64)
		case StreamPairDelta:
			for _, row := range e.values[0].(stream.Run) {
				pairDelta[row.Key] += row.Num
			}
		case StreamGroupDelta:
			groups = append(groups, e.values)
		default:
			t.Fatalf("emission on %q", e.stream)
		}
	}
	if want := cf.ItemCount(item, at) - itemBefore; itemDelta != want {
		t.Fatalf("%s %s at %v: item delta %v, library moved %v", action, item, at, itemDelta, want)
	}
	for pair, before := range pairBefore {
		x, y := splitPair(pair)
		if want := cf.PairCount(x, y, at) - before; pairDelta[pair] != want {
			t.Fatalf("%s %s at %v: pair %q delta %v, library moved %v", action, item, at, pair, pairDelta[pair], want)
		}
		delete(pairDelta, pair)
	}
	if len(pairDelta) != 0 {
		t.Fatalf("%s %s at %v: deltas for pairs of items never touched: %v", action, item, at, pairDelta)
	}
	weight := b.p.Weights[core.ActionType(action)]
	if len(groups) != 1 || groups[0][0] != demographic.GlobalGroup || groups[0][1] != item || groups[0][2] != weight {
		t.Fatalf("%s %s at %v: group deltas %v, want one global (%s, %v)", action, item, at, groups, item, weight)
	}
}

// TestUserHistoryWindowExpiryMatchesLibrary: with a two-session window,
// one user rates items, re-rates them inside the window and after their
// entry expired, and co-rates entries in and out of the window over five
// sessions. Every action's deltas are what it adds to core.ItemCF's
// windowed counts.
func TestUserHistoryWindowExpiryMatchesLibrary(t *testing.T) {
	p := Params{WindowSessions: 2, SessionDuration: time.Hour}.withDefaults()
	b, c := userHistoryBolt(t, NewMemState(), p)
	cf := libEngine(p, nil)
	var items []string
	for _, a := range []struct {
		after        time.Duration
		item, action string
	}{
		{0, "a", "browse"}, {time.Minute, "b", "click"}, {2 * time.Minute, "c", "browse"},
		{time.Hour, "a", "purchase"}, // a re-rated inside the window
		{time.Hour + time.Minute, "d", "read"},
		{2 * time.Hour, "e", "browse"},
		{2*time.Hour + time.Minute, "b", "read"}, // b's entry has expired: rated afresh
		{2*time.Hour + 2*time.Minute, "d", "purchase"},
		{3 * time.Hour, "a", "browse"}, // a (session 1) has expired; only d and e co-rate
		{3*time.Hour + time.Minute, "f", "share"},
		{4 * time.Hour, "c", "click"}, // c (session 0) long expired
		{4*time.Hour + time.Minute, "e", "purchase"},
		{4*time.Hour + 2*time.Minute, "a", "browse"}, // same rating, still in window: no item delta
	} {
		actMatchesLibrary(t, b, c, cf, items, a.item, a.action, t0.Add(a.after))
		if !slices.Contains(items, a.item) {
			items = append(items, a.item)
		}
	}
}

// TestWritersRejectMalformedValues: a stored value the codec's edits
// decline is an error naming the key — there is no decode path behind
// them — and neither the store nor downstream sees anything of the tuple.
func TestWritersRejectMalformedValues(t *testing.T) {
	st := NewMemState()
	junk := []byte(`{"a":{"r":1}}`)
	for _, key := range []string{prefixUserHistory + "u", prefixCtrTop + "s", prefixARItem + "a"} {
		st.Put(key, junk)
	}
	uh, c := userHistoryBolt(t, st, Params{})
	err := uh.Execute(stream.NewTuple(UnitPretreatment, StreamUserAction, actionFields,
		stream.Values{"u", "a", "click", t0.UnixNano()}))
	if err == nil || !strings.Contains(err.Error(), prefixUserHistory+"u") || len(c.out) != 0 {
		t.Fatalf("userHistory over a malformed history: err %v, %d emissions", err, len(c.out))
	}
	ctrBolt := NewCtrBolt(st, Params{})()
	ctrBolt.Prepare(stream.TopologyContext{}, nil)
	err = ctrBolt.Execute(stream.NewTuple(UnitCtrStore, "ctr_cell", stream.Fields{"sit", "item", "score"},
		stream.Values{"s", "ad", 0.5}))
	if err == nil || !strings.Contains(err.Error(), prefixCtrTop+"s") {
		t.Fatalf("ctrBolt over a malformed list: err %v", err)
	}
	arItem := NewARItemBolt(st, Params{})()
	arItem.Prepare(stream.TopologyContext{}, nil)
	if err = arItem.Execute(stream.NewTuple(UnitUserHistory, StreamARItem, stream.Fields{"item", "session"},
		stream.Values{"a", int64(0)})); err == nil {
		t.Fatal("arItemBolt over a malformed counter: no error")
	}
	for _, key := range []string{prefixUserHistory + "u", prefixCtrTop + "s", prefixARItem + "a"} {
		if raw, _, _ := st.Get(key); !bytes.Equal(raw, junk) {
			t.Fatalf("%s was rewritten: %q", key, raw)
		}
	}
}
