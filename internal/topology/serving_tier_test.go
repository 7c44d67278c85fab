package topology

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"tencentrec/internal/core"
	"tencentrec/internal/serving"
	"tencentrec/internal/statecodec"
)

// TestServingTierParity runs one workload into state and checks that the
// engine answers identically with and without the serving tier in front
// of its reads — the tier is a cache, not a different algorithm.
func TestServingTierParity(t *testing.T) {
	actions := genActions(71, 1200, 25, 20)
	st := NewMemState()
	p := Params{FlushInterval: time.Hour}
	topo, err := NewBuilder("parity", NewSliceSpout(actions), st, p).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, actions[len(actions)-1].TS)

	direct := NewServing(st, p)
	tiered := NewServing(st, p).WithReader(serving.NewReader(st, serving.Config{}))

	for i := 0; i < 25; i++ {
		user := fmt.Sprintf("u%d", i)
		want, err := direct.RecommendCF(user, now, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tiered.RecommendCF(user, now, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("RecommendCF(%s) diverges with serving tier:\n tier: %v\n direct: %v", user, got, want)
		}
		wantHot, _ := direct.HotItems(user, 10)
		gotHot, _ := tiered.HotItems(user, 10)
		if fmt.Sprint(gotHot) != fmt.Sprint(wantHot) {
			t.Fatalf("HotItems(%s) diverges with serving tier", user)
		}
	}
	for i := 0; i < 20; i++ {
		item := fmt.Sprintf("i%d", i)
		want, _ := direct.SimilarItems(item, 10)
		got, _ := tiered.SimilarItems(item, 10)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("SimilarItems(%s) diverges with serving tier", item)
		}
	}
	// Repeat queries hit the cache; answers must not change.
	for i := 0; i < 5; i++ {
		user := fmt.Sprintf("u%d", i)
		want, _ := direct.RecommendCF(user, now, 10, nil)
		got, _ := tiered.RecommendCF(user, now, 10, nil)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cached RecommendCF(%s) diverges", user)
		}
	}
}

// gatedListState is a State whose BatchGet of similar-items lists, once
// armed, reads the store and then waits on release before it returns: a
// read that began before whatever the test does in the meantime.
type gatedListState struct {
	State
	armed   bool
	entered chan struct{}
	release chan struct{}
}

func (g *gatedListState) BatchGet(keys []string) ([][]byte, []bool, error) {
	vals, found, err := g.State.BatchGet(keys)
	if g.armed && len(keys) > 0 && strings.HasPrefix(keys[0], prefixSimilar) {
		g.armed = false
		close(g.entered)
		<-g.release
	}
	return vals, found, err
}

// TestResultCacheDropsSlateReadBeforeInvalidate assembles a CF slate from
// a similar-items list read before an Invalidate that follows a rewrite of
// that list: the slate is answered, but not cached, so the next query
// sees the rewritten list.
func TestResultCacheDropsSlateReadBeforeInvalidate(t *testing.T) {
	now := time.Unix(1000, 0)
	st := NewMemState()
	hist := statecodec.History{"a": {Rating: 1, TS: now.UnixNano()}}
	putList := func(item string) {
		t.Helper()
		list := statecodec.List{{Item: item, Score: 0.9}}
		if err := st.Put(prefixSimilar+"a", statecodec.EncodeList(list)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Put(prefixUserHistory+"u", statecodec.EncodeHistory(hist)); err != nil {
		t.Fatal(err)
	}
	putList("old")
	gs := &gatedListState{State: st, armed: true, entered: make(chan struct{}), release: make(chan struct{})}
	rd := serving.NewReader(gs, serving.Config{CacheTTL: time.Hour})
	srv := NewServing(gs, Params{}).WithReader(rd)

	type answer struct {
		got []core.ScoredItem
		err error
	}
	done := make(chan answer)
	go func() {
		got, err := srv.RecommendCF("u", now, 1, nil)
		done <- answer{got, err}
	}()
	select {
	case <-gs.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the query did not read the similar-items list")
	}
	putList("new")
	rd.Invalidate()
	close(gs.release)
	first := <-done
	if first.err != nil {
		t.Fatal(first.err)
	}
	if len(first.got) != 1 || first.got[0].Item != "old" {
		t.Fatalf("the straddling query = %v, want the list it read, [old]", first.got)
	}
	got, err := srv.RecommendCF("u", now, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Item != "new" {
		t.Fatalf("after Invalidate RecommendCF = %v, want [new]: a slate read before it was cached", got)
	}
}
