package stream

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// poisonBolt passes its input through, and once poisoned the instance
// made for task poisonTask fails its Prepare, turning the task into a
// drain.
type poisonBolt struct {
	poisoned   *atomic.Bool
	poisonTask int
	c          Collector
}

func (b *poisonBolt) Prepare(ctx TopologyContext, c Collector) error {
	b.c = c
	if b.poisoned.Load() && ctx.TaskIndex == b.poisonTask {
		return fmt.Errorf("poisoned prepare on task %d", ctx.TaskIndex)
	}
	return nil
}

func (b *poisonBolt) Execute(t *Tuple) error {
	if !t.IsTick() {
		b.c.Emit(Values{t.Value("n")})
	}
	return nil
}

func (b *poisonBolt) Cleanup() {}

func (b *poisonBolt) DeclareOutputFields() map[string]Fields {
	return map[string]Fields{DefaultStream: {"n"}}
}

// TestFailedPrepareDrainsAndCountsDrops: a task of a fresh generation that
// Rebalance spawned fails its Prepare and drains its queue without
// executing it, so the topology still shuts down, and every tuple it
// discards is counted in Dropped. What the queue held is lost to this
// process; checkpoint replay recovers it.
func TestFailedPrepareDrainsAndCountsDrops(t *testing.T) {
	const n = 400
	var poisoned, hold atomic.Bool
	var emitted atomic.Int64
	hold.Store(true)
	sink, mu, seen := newSink()
	tb := NewTopologyBuilder("t")
	tb.SetSpout("spout", func() Spout { return &gatedSpout{n: n, hold: &hold, emitted: &emitted} }, 1)
	tb.SetBolt("mid", func() Bolt { return &poisonBolt{poisoned: &poisoned, poisonTask: 0} }, 2).Shuffle("spout")
	tb.SetBolt("sink", sink, 1).Shuffle("mid")
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := topo.Submit()
	poisoned.Store(true)
	if err := h.Rebalance("mid", 3); err != nil {
		t.Fatal(err)
	}
	hold.Store(false)
	h.Wait()
	mu.Lock()
	defer mu.Unlock()
	got := make(map[interface{}]bool)
	for _, s := range *seen {
		if !s.tick {
			got[s.value] = true
		}
	}
	m := h.Metrics()
	if m.Components["mid"].Dropped == 0 {
		t.Fatal("mid dropped no tuples; the failed Prepare did not drain")
	}
	if len(got) == n {
		t.Fatalf("sink saw all %d values despite dropped tuples; expected loss", n)
	}
	if dropped := m.Components["mid"].Dropped; int64(len(got))+dropped != n {
		t.Fatalf("sink saw %d values and mid dropped %d, want them to sum to the %d emitted", len(got), dropped, n)
	}
}
