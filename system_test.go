package tencentrec

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2015, 5, 31, 9, 0, 0, 0, time.UTC)

func publishCluster(t *testing.T, s *System) {
	t.Helper()
	// Users who play video A also play video B; C stands alone.
	for u := 0; u < 12; u++ {
		user := fmt.Sprintf("u%d", u)
		if err := s.Publish(RawAction{User: user, Item: "video-A", Action: "play", TS: t0.Add(time.Duration(u) * time.Minute).UnixNano()}); err != nil {
			t.Fatal(err)
		}
		if err := s.Publish(RawAction{User: user, Item: "video-B", Action: "play", TS: t0.Add(time.Duration(u)*time.Minute + time.Second).UnixNano()}); err != nil {
			t.Fatal(err)
		}
		if u < 3 {
			s.Publish(RawAction{User: user, Item: "video-C", Action: "play", TS: t0.Add(time.Duration(u)*time.Minute + 2*time.Second).UnixNano()})
		}
	}
}

func TestSystemEndToEnd(t *testing.T) {
	s, err := Open(SystemConfig{
		DataDir: t.TempDir(),
		Params:  Params{FlushInterval: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	publishCluster(t, s)
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	sims, err := s.SimilarItems("video-A", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sims) == 0 || sims[0].Item != "video-B" {
		t.Fatalf("SimilarItems(video-A) = %v, want video-B first", sims)
	}

	// A user who only played A gets B recommended.
	s.Publish(RawAction{User: "newcomer", Item: "video-A", Action: "play", TS: t0.Add(time.Hour).UnixNano()})
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	recs, err := s.RecommendAt("newcomer", t0.Add(time.Hour+time.Minute), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Item != "video-B" {
		t.Fatalf("Recommend(newcomer) = %v, want video-B first", recs)
	}

	// Hot items back cold users.
	hot, err := s.HotItems("total-stranger", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) == 0 {
		t.Fatal("no hot items for cold user")
	}

	m := s.Metrics()
	if m.Components["userHistory"].Executed == 0 {
		t.Fatal("metrics show no pipeline activity")
	}
}

func TestSystemCBAndCtrChains(t *testing.T) {
	s, err := Open(SystemConfig{
		DataDir:  t.TempDir(),
		Features: Features{CF: true, CB: true, Ctr: true},
		Params:   Params{FlushInterval: 20 * time.Millisecond, WindowSessions: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.AddItem("sports-news", []string{"football", "goal"}, t0); err != nil {
		t.Fatal(err)
	}
	s.AddItem("sports-news-2", []string{"football", "match"}, t0)
	s.AddItem("tech-news", []string{"chip", "cpu"}, t0)

	s.Publish(RawAction{User: "reader", Item: "sports-news", Action: "read", TS: t0.UnixNano()})
	for i := 0; i < 30; i++ {
		ts := t0.Add(time.Duration(i) * time.Second).UnixNano()
		s.Publish(RawAction{User: "x", Item: "ad-good", Action: "impression", Gender: "m", Age: "20-30", Region: "beijing", TS: ts})
		s.Publish(RawAction{User: "x", Item: "ad-bad", Action: "impression", Gender: "m", Age: "20-30", Region: "beijing", TS: ts})
		if i < 15 {
			s.Publish(RawAction{User: "x", Item: "ad-good", Action: "ad_click", Gender: "m", Age: "20-30", Region: "beijing", TS: ts})
		}
	}
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	cb, err := s.RecommendCB("reader", []string{"sports-news-2", "tech-news"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cb) == 0 || cb[0].Item != "sports-news-2" {
		t.Fatalf("RecommendCB = %v, want sports-news-2 first", cb)
	}

	ads, err := s.TopAds(NewAdContext("beijing", "m", "20-30"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ads) == 0 || ads[0].Item != "ad-good" {
		t.Fatalf("TopAds = %v, want ad-good first", ads)
	}
}

func TestNewRecommenderDirectUse(t *testing.T) {
	rec := NewRecommender(RecommenderConfig{})
	for u := 0; u < 5; u++ {
		user := fmt.Sprintf("u%d", u)
		rec.Observe(NewAction(user, "a", ActionPurchase, t0))
		rec.Observe(NewAction(user, "b", ActionPurchase, t0.Add(time.Second)))
	}
	rec.Observe(NewAction("x", "a", ActionPurchase, t0.Add(time.Minute)))
	recs := rec.Recommend("x", t0.Add(2*time.Minute), RecommendOptions{N: 3})
	if len(recs) == 0 || recs[0].Item != "b" {
		t.Fatalf("direct recommender = %v, want b", recs)
	}
}

func TestSystemWithDurableEngines(t *testing.T) {
	for _, engine := range []string{"ldb"} {
		t.Run(engine, func(t *testing.T) {
			s, err := Open(SystemConfig{
				DataDir:     t.TempDir(),
				StoreEngine: engine,
				Params:      Params{FlushInterval: 20 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			publishCluster(t, s)
			if err := s.Drain(15 * time.Second); err != nil {
				t.Fatal(err)
			}
			sims, err := s.SimilarItems("video-A", 3)
			if err != nil {
				t.Fatal(err)
			}
			if len(sims) == 0 || sims[0].Item != "video-B" {
				t.Fatalf("%s engine: SimilarItems = %v", engine, sims)
			}
		})
	}
	for _, engine := range []string{"bogus", "fdb"} {
		_, err := Open(SystemConfig{DataDir: t.TempDir(), StoreEngine: engine})
		if err == nil || !strings.Contains(err.Error(), "unknown store engine") {
			t.Fatalf("%s engine: Open = %v, want the unknown-engine error", engine, err)
		}
	}
}

func TestSystemCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	cfg := SystemConfig{
		DataDir:     dir,
		StoreEngine: "ldb",
		Params:      Params{FlushInterval: 20 * time.Millisecond},
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	publishCluster(t, s)
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Cold restart over the same data directory: the store restores the
	// snapshot and the spout resumes from the checkpointed frontier, so
	// only post-checkpoint records replay.
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Publish(RawAction{User: "newcomer", Item: "video-A", Action: "play", TS: t0.Add(time.Hour).UnixNano()}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := s2.ReplayedTailRecords(); n < 1 || n > 64 {
		t.Errorf("ReplayedTailRecords = %d, want just the tail (not a full replay of the stream)", n)
	}
	// Pre-checkpoint state survived without the log being re-consumed …
	sims, err := s2.SimilarItems("video-A", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sims) == 0 || sims[0].Item != "video-B" {
		t.Fatalf("after restore SimilarItems(video-A) = %v, want video-B first", sims)
	}
	// … and the tail record was applied on top of it.
	recs, err := s2.RecommendAt("newcomer", t0.Add(time.Hour+time.Minute), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Item != "video-B" {
		t.Fatalf("after restore Recommend(newcomer) = %v, want video-B first", recs)
	}
}

func TestSystemARChain(t *testing.T) {
	s, err := Open(SystemConfig{
		DataDir:  t.TempDir(),
		Features: Features{AR: true},
		Params:   Params{FlushInterval: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for u := 0; u < 6; u++ {
		user := fmt.Sprintf("u%d", u)
		ts := t0.Add(time.Duration(u) * time.Minute)
		s.Publish(RawAction{User: user, Item: "bread", Action: "purchase", TS: ts.UnixNano()})
		s.Publish(RawAction{User: user, Item: "butter", Action: "purchase", TS: ts.Add(time.Second).UnixNano()})
	}
	s.Publish(RawAction{User: "x", Item: "bread", Action: "purchase", TS: t0.Add(time.Hour).UnixNano()})
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	recs, err := s.serving.ARRecommend("x", t0.Add(time.Hour+time.Minute), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Item != "butter" {
		t.Fatalf("ARRecommend = %v, want butter", recs)
	}
}

// TestDrainIsACompletionPoint holds Drain to its contract on a dense
// burst (every user touches the same few items, so each action fans out
// into pair deltas and the bolts run behind the spout): when it returns
// nothing is in flight, nothing moves afterwards, and the lists a query
// reads are the final ones.
func TestDrainIsACompletionPoint(t *testing.T) {
	s, err := Open(SystemConfig{
		DataDir: t.TempDir(),
		Params:  Params{FlushInterval: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const users, items = 500, 40
	for u := 0; u < users; u++ {
		for i := 0; i < items; i++ {
			a := RawAction{User: fmt.Sprintf("u%d", u), Item: fmt.Sprintf("v%d", (u+i)%items), Action: "play",
				TS: t0.Add(time.Duration(u*items+i) * time.Second).UnixNano()}
			if err := s.Publish(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Drain(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	at := s.Metrics()
	sims, err := s.SimilarItems("v0", items)
	if err != nil {
		t.Fatal(err)
	}
	if len(sims) != 20 { // the default TopK
		t.Fatalf("SimilarItems(v0) has %d entries right after Drain, want 20", len(sims))
	}
	time.Sleep(200 * time.Millisecond) // ten flush intervals
	after := s.Metrics()
	if after.Transferred != at.Transferred {
		t.Errorf("%d tuple deliveries happened after Drain returned", after.Transferred-at.Transferred)
	}
	later, err := s.SimilarItems("v0", items)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(later) != fmt.Sprint(sims) {
		t.Errorf("SimilarItems(v0) changed after Drain returned:\n at Drain %v\n later    %v", sims, later)
	}
}

// freshnessTrial publishes (u,A),(u,B) for ids nobody has used and polls
// SimilarItems(A) once a millisecond until B shows, and returns how long
// after the publish that was. With pollFirst the poll starts before the
// publish, so the serving tier holds a negative entry for A's list when the
// write lands.
func freshnessTrial(t *testing.T, s *System, id string, pollFirst bool) time.Duration {
	t.Helper()
	a, b := "fa-"+id, "fb-"+id
	sees := func() bool {
		list, err := s.SimilarItems(a, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range list {
			if it.Item == b {
				return true
			}
		}
		return false
	}
	if pollFirst && sees() {
		t.Fatalf("%s has a similar-items list before anything was published", a)
	}
	start := time.Now()
	for i, item := range []string{a, b} {
		if err := s.Publish(RawAction{User: "fu-" + id, Item: item, Action: "click", TS: start.Add(time.Duration(i) * time.Millisecond).UnixNano()}); err != nil {
			t.Fatal(err)
		}
	}
	for !sees() {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("%s never showed in SimilarItems(%s)", b, a)
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(start)
}

// TestFreshnessBoundedByWork: on a default system (100 ms flush interval,
// serving tier on) an action into an idle pipeline is queryable a tick round
// after the work is done, not a period and a negative TTL later: the median
// of twenty trials is under half the interval, no trial exceeds a period plus
// a negative TTL, and a poll that cached "absent" before the write sees the
// write as it lands, because the write drops that entry.
func TestFreshnessBoundedByWork(t *testing.T) {
	s, err := Open(SystemConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const interval, negTTL = 100 * time.Millisecond, 100 * time.Millisecond
	for _, pollFirst := range []bool{false, true} {
		took := make([]time.Duration, 20)
		for i := range took {
			took[i] = freshnessTrial(t, s, fmt.Sprintf("%v-%d", pollFirst, i), pollFirst)
			if took[i] > interval+negTTL {
				t.Errorf("pollFirst=%v trial %d: visible after %v, past one period plus one negative TTL", pollFirst, i, took[i])
			}
		}
		sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
		t.Logf("pollFirst=%v: min %v median %v max %v", pollFirst, took[0], took[len(took)/2], took[len(took)-1])
		if med := took[len(took)/2]; med >= interval/2 {
			t.Errorf("pollFirst=%v: median %v to see the action, want under %v", pollFirst, med, interval/2)
		}
	}
	dropped := s.Registry().Counter("serving_cache_negative_dropped_total", "").Value()
	if dropped < 20 {
		t.Errorf("serving_cache_negative_dropped_total = %d, want one per trial that polled before its write", dropped)
	}
}
