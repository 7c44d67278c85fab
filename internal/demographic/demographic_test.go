package demographic

import (
	"fmt"
	"testing"
	"time"

	"tencentrec/internal/core"
)

var t0 = time.Date(2015, 5, 31, 0, 0, 0, 0, time.UTC)

func TestGroupKey(t *testing.T) {
	g := DefaultGroupBy()
	if got := g.Key(Profile{Gender: "m", AgeGroup: "20-30"}); got != "g=m|a=20-30" {
		t.Fatalf("Key = %q", got)
	}
	if got := g.Key(Profile{Gender: "f"}); got != "g=f" {
		t.Fatalf("Key = %q", got)
	}
	if got := g.Key(Profile{}); got != GlobalGroup {
		t.Fatalf("Key(empty) = %q, want global", got)
	}
	full := GroupBy{Gender: true, Age: true, Education: true, Region: true}
	got := full.Key(Profile{Gender: "m", AgeGroup: "20-30", Education: "bsc", Region: "beijing"})
	if got != "g=m|a=20-30|e=bsc|r=beijing" {
		t.Fatalf("full Key = %q", got)
	}
}

func TestHotItemsPerGroup(t *testing.T) {
	e := NewEngine(Config{GroupBy: DefaultGroupBy()})
	e.SetProfile("m1", Profile{Gender: "m", AgeGroup: "20-30"})
	e.SetProfile("m2", Profile{Gender: "m", AgeGroup: "20-30"})
	e.SetProfile("f1", Profile{Gender: "f", AgeGroup: "20-30"})
	// Males love item-a; females love item-b.
	for i := 0; i < 5; i++ {
		e.Observe(core.Action{User: "m1", Item: "item-a", Type: core.ActionClick, Time: t0})
		e.Observe(core.Action{User: "m2", Item: "item-a", Type: core.ActionClick, Time: t0})
		e.Observe(core.Action{User: "f1", Item: "item-b", Type: core.ActionClick, Time: t0})
	}
	e.Observe(core.Action{User: "m1", Item: "item-b", Type: core.ActionClick, Time: t0})

	hotM := e.HotItems("m1", t0.Add(time.Minute), 1)
	if len(hotM) != 1 || hotM[0].Item != "item-a" {
		t.Fatalf("male hot = %v, want item-a", hotM)
	}
	hotF := e.HotItems("f1", t0.Add(time.Minute), 1)
	if len(hotF) != 1 || hotF[0].Item != "item-b" {
		t.Fatalf("female hot = %v, want item-b", hotF)
	}
}

func TestUnknownUserFallsBackToGlobal(t *testing.T) {
	e := NewEngine(Config{GroupBy: DefaultGroupBy()})
	e.SetProfile("known", Profile{Gender: "m", AgeGroup: "20-30"})
	e.Observe(core.Action{User: "known", Item: "popular", Type: core.ActionClick, Time: t0})
	got := e.HotItems("anonymous", t0.Add(time.Minute), 5)
	if len(got) != 1 || got[0].Item != "popular" {
		t.Fatalf("global fallback = %v", got)
	}
}

func TestEmptyGroupFallsBackToGlobal(t *testing.T) {
	e := NewEngine(Config{GroupBy: DefaultGroupBy()})
	e.SetProfile("active", Profile{Gender: "m", AgeGroup: "20-30"})
	e.SetProfile("lurker", Profile{Gender: "f", AgeGroup: "40-50"})
	e.Observe(core.Action{User: "active", Item: "thing", Type: core.ActionClick, Time: t0})
	// lurker's own group has no data; global must answer.
	got := e.HotItems("lurker", t0.Add(time.Minute), 5)
	if len(got) != 1 || got[0].Item != "thing" {
		t.Fatalf("fallback for empty group = %v", got)
	}
}

func TestWindowedHotListForgets(t *testing.T) {
	e := NewEngine(Config{WindowSessions: 2, SessionDuration: time.Hour})
	e.Observe(core.Action{User: "u", Item: "flash-sale", Type: core.ActionClick, Time: t0})
	if got := e.HotItems("u", t0.Add(time.Minute), 5); len(got) != 1 {
		t.Fatalf("fresh hot list = %v", got)
	}
	// Five hours later the windowed count expired.
	if got := e.HotItems("u", t0.Add(5*time.Hour), 5); len(got) != 0 {
		t.Fatalf("expired hot list = %v, want empty", got)
	}
}

func TestWindowedScoresRefreshRanking(t *testing.T) {
	e := NewEngine(Config{WindowSessions: 2, SessionDuration: time.Hour})
	// old-hit is popular early; new-hit later. After the window passes
	// old-hit's burst, new-hit must outrank it.
	for i := 0; i < 10; i++ {
		e.Observe(core.Action{User: fmt.Sprintf("u%d", i), Item: "old-hit", Type: core.ActionClick, Time: t0})
	}
	for i := 0; i < 3; i++ {
		e.Observe(core.Action{User: fmt.Sprintf("v%d", i), Item: "new-hit", Type: core.ActionClick, Time: t0.Add(3 * time.Hour)})
	}
	got := e.HotItems("u0", t0.Add(3*time.Hour+time.Minute), 2)
	if len(got) == 0 || got[0].Item != "new-hit" {
		t.Fatalf("stale burst still ranked first: %v", got)
	}
}

func TestMatrixDensityGroupsDenser(t *testing.T) {
	// Fig. 5: per-group matrices are denser than the global matrix when
	// groups have disjoint tastes.
	e := NewEngine(Config{GroupBy: DefaultGroupBy()})
	interactions := make(map[[2]string]bool)
	for g := 0; g < 4; g++ {
		gender := []string{"m", "f"}[g%2]
		age := []string{"20-30", "30-40"}[g/2]
		for u := 0; u < 10; u++ {
			user := fmt.Sprintf("g%d-u%d", g, u)
			e.SetProfile(user, Profile{Gender: gender, AgeGroup: age})
			// Each group interacts only with its own 10 items.
			for i := 0; i < 5; i++ {
				item := fmt.Sprintf("g%d-i%d", g, (u+i)%10)
				interactions[[2]string{user, item}] = true
			}
		}
	}
	global, groupMean := e.MatrixDensity(interactions)
	if global <= 0 || groupMean <= 0 {
		t.Fatalf("densities = %v, %v", global, groupMean)
	}
	if groupMean <= global {
		t.Fatalf("group density %v not greater than global %v", groupMean, global)
	}
	// With 4 disjoint groups the per-group density is ~4x the global.
	if groupMean < 3*global {
		t.Fatalf("expected ~4x densification, got %vx", groupMean/global)
	}
}

func TestMatrixDensityEmpty(t *testing.T) {
	e := NewEngine(Config{})
	g, gm := e.MatrixDensity(nil)
	if g != 0 || gm != 0 {
		t.Fatalf("empty density = %v %v", g, gm)
	}
}

func TestHotKBound(t *testing.T) {
	e := NewEngine(Config{HotK: 3})
	for i := 0; i < 10; i++ {
		e.Observe(core.Action{User: "u", Item: fmt.Sprintf("i%d", i), Type: core.ActionClick, Time: t0})
	}
	if got := e.HotItems("u", t0.Add(time.Minute), 10); len(got) > 3 {
		t.Fatalf("hot list has %d entries, cap 3", len(got))
	}
}
