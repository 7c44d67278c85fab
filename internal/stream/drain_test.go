package stream

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// gateCtl coordinates the kill-the-downstream scenario: mid task
// blockTask blocks in Execute until release closes, and once poisoned its
// replacement instance fails Prepare, turning the task into a drain.
type gateCtl struct {
	blockTask int
	release   chan struct{}
	poisoned  atomic.Bool
}

type gateBolt struct {
	gate *gateCtl
	task int
	c    Collector
}

func (b *gateBolt) Prepare(ctx TopologyContext, c Collector) error {
	b.task = ctx.TaskIndex
	b.c = c
	if b.gate.poisoned.Load() && ctx.TaskIndex == b.gate.blockTask {
		return fmt.Errorf("poisoned prepare on task %d", ctx.TaskIndex)
	}
	return nil
}

func (b *gateBolt) Execute(t *Tuple) error {
	if t.IsTick() {
		return nil
	}
	if b.task == b.gate.blockTask {
		<-b.gate.release
	}
	b.c.Emit(Values{t.Value("n")})
	return nil
}

func (b *gateBolt) Cleanup() {}

func (b *gateBolt) DeclareOutputFields() map[string]Fields {
	return map[string]Fields{DefaultStream: {"n"}}
}

// runKillDownstream runs spout -> mid(2 tasks) -> sink, lets the input
// pile up on a blocked mid task, then crashes that task so its queue is
// drained without execution. It returns the distinct values the sink saw
// and the final metrics.
func runKillDownstream(t *testing.T, n int) (map[interface{}]bool, *MetricsSnapshot) {
	t.Helper()
	gate := &gateCtl{blockTask: 0, release: make(chan struct{})}
	sink, mu, seen := newSink()
	tb := NewTopologyBuilder("t")
	tb.SetSpout("spout", func() Spout { return &rangeSpout{n: n} }, 1)
	tb.SetBolt("mid", func() Bolt { return &gateBolt{gate: gate} }, 2).Shuffle("spout")
	tb.SetBolt("sink", sink, 1).Shuffle("mid")
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := topo.Submit()
	// Wait until the spout has emitted everything: mid task 1 drains its
	// share, mid task 0 is blocked with its share queued behind the gate.
	deadline := time.Now().Add(10 * time.Second)
	for h.Metrics().Components["spout"].Emitted < int64(n) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let task 1 finish its half
	gate.poisoned.Store(true)
	if err := h.RestartTask("mid", 0); err != nil {
		t.Fatal(err)
	}
	close(gate.release) // current batch completes, then the restart fails
	h.Wait()
	mu.Lock()
	defer mu.Unlock()
	got := make(map[interface{}]bool)
	for _, s := range *seen {
		if !s.tick {
			got[s.value] = true
		}
	}
	return got, h.Metrics()
}

// TestFailedRePrepareDrainsAndCountsDrops: a task whose replacement fails
// Prepare drains its queue without executing it, so the topology still
// shuts down, and every tuple it discards is counted in Dropped. What the
// queue held is lost to this process; checkpoint replay recovers it.
func TestFailedRePrepareDrainsAndCountsDrops(t *testing.T) {
	const n = 400
	got, m := runKillDownstream(t, n)
	if m.Components["mid"].Dropped == 0 {
		t.Fatal("mid dropped no tuples; the crash scenario did not trigger")
	}
	if len(got) == n {
		t.Fatalf("sink saw all %d values despite dropped tuples; expected loss", n)
	}
	if dropped := m.Components["mid"].Dropped; int64(len(got))+dropped != n {
		t.Fatalf("sink saw %d values and mid dropped %d, want them to sum to the %d emitted", len(got), dropped, n)
	}
}
