package cb

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tencentrec/internal/core"
)

var t0 = time.Date(2015, 5, 31, 0, 0, 0, 0, time.UTC)

func addNews(e *Engine, id, content string, published time.Time) {
	e.AddItem(id, strings.Fields(content), published)
}

func TestRecommendMatchesInterests(t *testing.T) {
	e := NewEngine(Config{})
	addNews(e, "sports1", "football match final goal striker", t0)
	addNews(e, "sports2", "football league striker transfer", t0)
	addNews(e, "tech1", "smartphone chip release benchmark", t0)
	e.Observe(core.Action{User: "u", Item: "sports1", Type: core.ActionRead, Time: t0.Add(time.Minute)})
	recs := e.Recommend("u", t0.Add(2*time.Minute), 2, map[string]bool{"sports1": true})
	if len(recs) == 0 || recs[0].Item != "sports2" {
		t.Fatalf("recs = %v, want sports2 first", recs)
	}
}

func TestColdUserGetsNothing(t *testing.T) {
	e := NewEngine(Config{})
	addNews(e, "n1", "hello world", t0)
	if recs := e.Recommend("stranger", t0, 5, nil); recs != nil {
		t.Fatalf("cold user got %v", recs)
	}
}

func TestNewItemImmediatelyRecommendable(t *testing.T) {
	e := NewEngine(Config{})
	addNews(e, "old", "election vote parliament", t0)
	e.Observe(core.Action{User: "u", Item: "old", Type: core.ActionRead, Time: t0.Add(time.Minute)})
	// A brand-new article on the same topic appears with zero history.
	addNews(e, "breaking", "election result vote count", t0.Add(2*time.Minute))
	recs := e.Recommend("u", t0.Add(3*time.Minute), 3, map[string]bool{"old": true})
	if len(recs) == 0 || recs[0].Item != "breaking" {
		t.Fatalf("new item not recommended: %v", recs)
	}
}

func TestProfileDecayShiftsInterests(t *testing.T) {
	e := NewEngine(Config{HalfLife: time.Hour})
	addNews(e, "s1", "football goal striker", t0)
	addNews(e, "s2", "football match striker", t0)
	addNews(e, "t1", "chip smartphone benchmark", t0)
	addNews(e, "t2", "chip processor benchmark", t0)
	// Strong old sports interest, then a fresh tech interest.
	e.Observe(core.Action{User: "u", Item: "s1", Type: core.ActionShare, Time: t0})
	e.Observe(core.Action{User: "u", Item: "t1", Type: core.ActionRead, Time: t0.Add(10 * time.Hour)})
	recs := e.Recommend("u", t0.Add(10*time.Hour+time.Minute), 1,
		map[string]bool{"s1": true, "t1": true})
	if len(recs) == 0 || recs[0].Item != "t2" {
		t.Fatalf("decayed profile still dominated by old interest: %v", recs)
	}
}

func TestMaxItemAgeFiltersStaleNews(t *testing.T) {
	e := NewEngine(Config{MaxItemAge: 24 * time.Hour})
	addNews(e, "stale", "storm warning coast", t0)
	addNews(e, "fresh", "storm update coast", t0.Add(30*time.Hour))
	e.Observe(core.Action{User: "u", Item: "fresh", Type: core.ActionRead, Time: t0.Add(31 * time.Hour)})
	recs := e.Recommend("u", t0.Add(32*time.Hour), 5, map[string]bool{"fresh": true})
	for _, r := range recs {
		if r.Item == "stale" {
			t.Fatal("expired item recommended")
		}
	}
}

func TestRemoveItem(t *testing.T) {
	e := NewEngine(Config{})
	addNews(e, "n1", "alpha beta", t0)
	addNews(e, "n2", "alpha gamma", t0)
	e.Observe(core.Action{User: "u", Item: "n1", Type: core.ActionRead, Time: t0})
	e.RemoveItem("n2")
	if e.numItems != 1 {
		t.Fatalf("NumItems = %d", e.numItems)
	}
	recs := e.Recommend("u", t0.Add(time.Minute), 5, nil)
	for _, r := range recs {
		if r.Item == "n2" {
			t.Fatal("removed item recommended")
		}
	}
}

func TestReplacingItemUpdatesIndex(t *testing.T) {
	e := NewEngine(Config{})
	addNews(e, "n1", "alpha beta", t0)
	addNews(e, "n1", "gamma delta", t0) // replace content
	if e.numItems != 1 {
		t.Fatalf("NumItems = %d after replace", e.numItems)
	}
	if e.df["alpha"] != 0 {
		t.Fatalf("df[alpha] = %d after replace, want 0", e.df["alpha"])
	}
	if e.df["gamma"] != 1 {
		t.Fatalf("df[gamma] = %d, want 1", e.df["gamma"])
	}
}

func TestSnapshotServesStale(t *testing.T) {
	e := NewEngine(Config{})
	addNews(e, "a", "alpha beta", t0)
	addNews(e, "b", "alpha gamma", t0)
	e.Observe(core.Action{User: "u", Item: "a", Type: core.ActionRead, Time: t0})
	m := e.Snapshot(t0.Add(time.Minute))

	// A new item and a new interaction arrive after the snapshot.
	addNews(e, "c", "alpha fresh", t0.Add(2*time.Minute))
	e.Observe(core.Action{User: "u", Item: "c", Type: core.ActionShare, Time: t0.Add(3 * time.Minute)})

	// The live engine sees c; the frozen model cannot.
	if m.engine.numItems != 2 {
		t.Fatalf("snapshot NumItems = %d, want 2", m.engine.numItems)
	}
	recs := m.Recommend("u", t0.Add(4*time.Minute), 5, map[string]bool{"a": true})
	for _, r := range recs {
		if r.Item == "c" {
			t.Fatal("frozen model recommended a post-snapshot item")
		}
	}
	live := e.Recommend("u", t0.Add(4*time.Minute), 5, map[string]bool{"a": true, "c": true})
	if len(live) == 0 {
		t.Fatal("live engine returned nothing")
	}
}

func TestProfileTermCap(t *testing.T) {
	e := NewEngine(Config{MaxProfileTerms: 4})
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("n%d", i)
		addNews(e, id, fmt.Sprintf("term%d filler%d extra%d", i, i, i), t0)
		e.Observe(core.Action{User: "u", Item: id, Type: core.ActionRead, Time: t0.Add(time.Duration(i) * time.Minute)})
	}
	p := e.users["u"]
	if len(p.weights) > 4 {
		t.Fatalf("profile has %d terms, cap 4", len(p.weights))
	}
}

func TestUnknownItemActionIgnored(t *testing.T) {
	e := NewEngine(Config{})
	e.Observe(core.Action{User: "u", Item: "ghost", Type: core.ActionRead, Time: t0})
	if _, ok := e.users["u"]; ok {
		t.Fatal("profile created from unknown item")
	}
}
