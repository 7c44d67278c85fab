package topology

import (
	"errors"
	"strings"
	"testing"

	"tencentrec/internal/stream"
)

// failOnceState fails the first Get of a key under prefix.
type failOnceState struct {
	*MemState
	prefix string
	failed bool
}

func (s *failOnceState) Get(key string) ([]byte, bool, error) {
	if !s.failed && strings.HasPrefix(key, s.prefix) {
		s.failed = true
		return nil, false, errors.New("store unavailable")
	}
	return s.MemState.Get(key)
}

// TestPairCountPrunedFlagReadError: a failed read of a pair's durable
// pl: flag is the tuple's error and settles nothing, so the next tuple of
// the pair asks again and a durably pruned pair stays out of the counts.
func TestPairCountPrunedFlagReadError(t *testing.T) {
	p := Params{}.withDefaults()
	st := &failOnceState{MemState: NewMemState(), prefix: prefixPruned}
	pair := pairID("a", "b")
	if err := st.Put(prefixPruned+pair, []byte{1}); err != nil {
		t.Fatal(err)
	}
	for _, item := range []string{"a", "b"} {
		raw, _, err := addToCounter(nil, false, p.WindowSessions, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(prefixItemCount+item, raw); err != nil {
			t.Fatal(err)
		}
	}
	var out []stream.Values
	b := NewPairCountBolt(st, p)().(*PairCountBolt)
	if err := b.Prepare(stream.TopologyContext{}, &stubCollector{out: &out}); err != nil {
		t.Fatal(err)
	}
	delta := stream.NewTuple(UnitUserHistory, StreamPairDelta,
		stream.Fields{"pair", "delta", "session"}, stream.Values{pair, 1.0, int64(0)})
	if err := b.Execute(delta); err == nil {
		t.Fatal("Execute swallowed the failed read of the pruned flag")
	}
	if err := b.Execute(delta); err != nil {
		t.Fatalf("Execute after the store recovered: %v", err)
	}
	if err := b.Execute(&stream.Tuple{Component: UnitPairCount, Stream: stream.TickStream}); err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("durably pruned pair emitted %v", out)
	}
	if _, counted, _ := st.MemState.Get(prefixPairCount + pair); counted {
		t.Fatal("durably pruned pair was counted")
	}
}
