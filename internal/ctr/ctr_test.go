package ctr

import (
	"math"
	"testing"
	"time"
)

var t0 = time.Date(2015, 5, 31, 12, 0, 0, 0, time.UTC)

var beijingM25 = Context{Region: "beijing", Gender: "m", AgeGroup: "20-30"}

// The tests below predict with the default Beta prior of 1 click in 20
// impressions: a cell's prediction is (clicks+1)/(impressions+20).
func smoothed(clicks, imps float64) float64 { return (clicks + 1) / (imps + 20) }

func TestMotivatingQuery(t *testing.T) {
	// "During last ten seconds, what is the CTR of an advertisement
	// among the male users in Beijing, whose age is from twenty to
	// thirty" — the §1 query, verbatim.
	e := NewEngine(Config{MinImpressions: 1}) // 10 × 1s window, region+gender+age cuboid
	for i := 0; i < 10; i++ {
		e.Impression("ad-1", beijingM25, t0.Add(time.Duration(i)*time.Second))
	}
	e.Click("ad-1", beijingM25, t0.Add(5*time.Second))
	e.Click("ad-1", beijingM25, t0.Add(6*time.Second))

	if got, want := e.Predict("ad-1", beijingM25, t0.Add(9*time.Second)), smoothed(2, 10); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Predict = %v, want %v", got, want)
	}
}

func TestWindowExpiresOldTraffic(t *testing.T) {
	e := NewEngine(Config{MinImpressions: 1})
	for i := 0; i < 10; i++ {
		e.Impression("ad-1", beijingM25, t0)
	}
	e.Click("ad-1", beijingM25, t0)
	// 30 seconds later the 10-second window has rolled past everything:
	// only the prior is left.
	if got, want := e.Predict("ad-1", beijingM25, t0.Add(30*time.Second)), smoothed(0, 0); got != want {
		t.Fatalf("Predict of expired traffic = %v, want the prior %v", got, want)
	}
}

func TestSituationsAreIndependent(t *testing.T) {
	e := NewEngine(Config{MinImpressions: 1})
	shanghaiF := Context{Region: "shanghai", Gender: "f", AgeGroup: "20-30"}
	e.Impression("ad-1", beijingM25, t0)
	e.Impression("ad-1", beijingM25, t0)
	e.Click("ad-1", beijingM25, t0)
	e.Impression("ad-1", shanghaiF, t0)

	if got, want := e.Predict("ad-1", beijingM25, t0), smoothed(1, 2); math.Abs(got-want) > 1e-9 {
		t.Fatalf("beijing Predict = %v, want %v", got, want)
	}
	if got, want := e.Predict("ad-1", shanghaiF, t0), smoothed(0, 1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("shanghai Predict = %v, want %v", got, want)
	}
}

func TestUnknownContextFallsToBroadCuboid(t *testing.T) {
	e := NewEngine(Config{MinImpressions: 1})
	e.Impression("ad-1", beijingM25, t0)
	e.Click("ad-1", beijingM25, t0)
	e.Impression("ad-1", Context{Region: "shanghai", Gender: "f", AgeGroup: "20-30"}, t0)
	// A context with no region cannot use the narrowest cuboid but
	// still answers from gender×age.
	partial := Context{Gender: "m", AgeGroup: "20-30"}
	if got, want := e.Predict("ad-1", partial, t0), smoothed(1, 1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("partial-context Predict = %v, want %v", got, want)
	}
	// A fully unknown context answers from the global cuboid.
	if got, want := e.Predict("ad-1", Context{}, t0), smoothed(1, 2); math.Abs(got-want) > 1e-9 {
		t.Fatalf("global Predict = %v, want %v", got, want)
	}
}

func TestPredictSmoothsThinData(t *testing.T) {
	e := NewEngine(Config{PriorClicks: 1, PriorImpressions: 20})
	// One impression, one click: raw CTR 1.0 is absurd; the prior pulls
	// it toward 2/21.
	e.Impression("ad-1", beijingM25, t0)
	e.Click("ad-1", beijingM25, t0)
	got := e.Predict("ad-1", beijingM25, t0)
	want := 2.0 / 21.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Predict = %v, want %v", got, want)
	}
}

func TestPredictBacksOffWhenThin(t *testing.T) {
	e := NewEngine(Config{MinImpressions: 20})
	// Rich data in the broad gender×age cell, one impression in the
	// narrow cell: prediction must use the broad evidence.
	broad := Context{Gender: "m", AgeGroup: "20-30"}
	for i := 0; i < 100; i++ {
		e.Impression("ad-1", broad, t0)
		if i < 50 {
			e.Click("ad-1", broad, t0)
		}
	}
	e.Impression("ad-1", beijingM25, t0)
	got := e.Predict("ad-1", beijingM25, t0)
	// Broad cell: ≥101 impressions, ~50 clicks → near 0.5 (beijing's
	// impression also lands in the broad cell).
	if got < 0.3 {
		t.Fatalf("Predict = %v, did not back off to broad cell", got)
	}
}

func TestTopItemsRanksByPredictedCTR(t *testing.T) {
	e := NewEngine(Config{})
	for i := 0; i < 50; i++ {
		e.Impression("good", beijingM25, t0)
		e.Impression("bad", beijingM25, t0)
		if i < 25 {
			e.Click("good", beijingM25, t0)
		}
		if i < 2 {
			e.Click("bad", beijingM25, t0)
		}
	}
	top := e.TopItems(beijingM25, t0, 2)
	if len(top) != 2 || top[0].Item != "good" {
		t.Fatalf("TopItems = %v, want good first", top)
	}
}

func TestSnapshotIsNotSituational(t *testing.T) {
	e := NewEngine(Config{WindowSessions: -1}) // unwindowed for stability
	male := Context{Gender: "m", AgeGroup: "20-30"}
	female := Context{Gender: "f", AgeGroup: "20-30"}
	// ad-m clicks well with males only; ad-f with females only.
	for i := 0; i < 100; i++ {
		e.Impression("ad-m", male, t0)
		e.Impression("ad-m", female, t0)
		e.Impression("ad-f", male, t0)
		e.Impression("ad-f", female, t0)
		if i < 60 {
			e.Click("ad-m", male, t0)
			e.Click("ad-f", female, t0)
		}
		if i < 10 {
			e.Click("ad-m", female, t0)
			e.Click("ad-f", male, t0)
		}
	}
	snap := e.Snapshot(t0)
	sTop := snap.TopItems(male, 1)
	liveTop := e.TopItems(male, t0, 1)
	// Live engine picks the situationally-right ad for males.
	if liveTop[0].Item != "ad-m" {
		t.Fatalf("live TopItems(male) = %v", liveTop)
	}
	// The snapshot gives the same answer regardless of context.
	if got := snap.TopItems(female, 1); got[0].Item != sTop[0].Item {
		t.Fatalf("snapshot is situational: %v vs %v", got, sTop)
	}
}

func TestCuboidKey(t *testing.T) {
	cb := Cuboid{DimRegion, DimGender, DimAge}
	if got := cb.Key(beijingM25); got != "region=beijing|gender=m|age=20-30" {
		t.Fatalf("key = %q", got)
	}
	if got := cb.Key(Context{Gender: "m"}); got != "region=*|gender=m|age=*" {
		t.Fatalf("key with unknowns = %q", got)
	}
	if got := (Cuboid{}).Key(beijingM25); got != "" {
		t.Fatalf("empty cuboid key = %q", got)
	}
}
