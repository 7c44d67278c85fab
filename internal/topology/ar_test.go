package topology

import (
	"math"
	"testing"
	"time"
)

// TestPipelineARTransactions pins the AR chain's transactions with
// LinkedTime set: a repeat touch inside LinkedTime adds no support, a
// touch past it is a new transaction that pairs only with the items
// inside the window, and each stored rule's confidence is
// supp(a,b)/supp(a). A recommendation skips the items the user holds.
func TestPipelineARTransactions(t *testing.T) {
	p := Params{FlushInterval: time.Hour, LinkedTime: time.Minute}
	var actions []RawAction
	add := func(user, item string, at time.Duration) {
		actions = append(actions, RawAction{User: user, Item: item, Action: "purchase", TS: t0.Add(at).UnixNano()})
	}
	add("u1", "A", 0)
	add("u1", "B", time.Second)
	add("u1", "B", 2*time.Second) // inside LinkedTime: the same transaction
	add("u1", "B", 5*time.Minute) // past it: a new one, and A is out of the window
	add("u2", "A", 0)
	add("u2", "C", time.Second)
	st := NewMemState()
	runTopology(t, st, p, actions, Parallelism{AR: 2}, Features{AR: true})

	for item, want := range map[string]float64{"A": 2, "B": 2, "C": 1} {
		if got := readStateCounter(t, st, prefixARItem+item, 0, 0); got != want {
			t.Errorf("supp(%s) = %v, want %v", item, got, want)
		}
	}
	for pair, want := range map[string]float64{pairID("A", "B"): 1, pairID("A", "C"): 1, pairID("B", "C"): 0} {
		if got := readStateCounter(t, st, prefixARPair+pair, 0, 0); got != want {
			t.Errorf("supp(%s) = %v, want %v", pair, got, want)
		}
	}
	for item, want := range map[string]map[string]float64{
		"A": {"B": 0.5, "C": 0.5},
		"B": {"A": 0.5},
		"C": {"A": 1},
	} {
		raw, ok, err := st.Get(prefixARList + item)
		if err != nil || !ok {
			t.Fatalf("%s%s: ok %v, err %v", prefixARList, item, ok, err)
		}
		list, err := decodeList(raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(list) != len(want) {
			t.Errorf("%s%s = %v, want %v", prefixARList, item, list, want)
			continue
		}
		for _, r := range list {
			if w, ok := want[r.Item]; !ok || math.Abs(r.Score-w) > 1e-12 {
				t.Errorf("%s%s = %v, want %v", prefixARList, item, list, want)
			}
		}
	}
	// u2 holds A and C: of their rules' consequents, only B is new to u2.
	recs, err := NewServing(st, p).ARRecommend("u2", t0.Add(30*time.Second), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Item != "B" || math.Abs(recs[0].Score-0.5) > 1e-12 {
		t.Fatalf("ARRecommend(u2) = %v, want [B 0.5]", recs)
	}
}
