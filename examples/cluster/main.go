// Cluster recovery: stateless workers, status data restored from a
// checkpoint.
//
// Demonstrates the paper's robustness design (§3.3) as this system runs
// it: all status data lives in TDStore, so the topology's workers keep no
// state of their own, and the process is the failure unit. A system on
// the durable LDB engine checkpoints its store anchored to the consumer
// group's offsets; reopened over the same directories, it re-seeds the
// store from the committed snapshot, replays only the action log's tail
// past the checkpoint (DESIGN.md §18), and answers queries exactly as
// before.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"tencentrec"
)

func main() {
	dir, err := os.MkdirTemp("", "tencentrec-cluster")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := tencentrec.SystemConfig{
		DataDir:     dir,
		StoreEngine: "ldb",
		Params:      tencentrec.Params{FlushInterval: 20 * time.Millisecond},
		Parallelism: tencentrec.Parallelism{UserHistory: 3, ItemCount: 2, PairCount: 2},
		TraceEvery:  1, // trace every tuple so the demo always has waterfalls
	}
	sys, err := tencentrec.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}

	now := time.Now()
	for u := 0; u < 10; u++ {
		user := fmt.Sprintf("user-%d", u)
		ts := now.Add(time.Duration(u) * time.Second)
		sys.Publish(tencentrec.RawAction{User: user, Item: "series-1", Action: "play", TS: ts.UnixNano()})
		sys.Publish(tencentrec.RawAction{User: user, Item: "series-2", Action: "play", TS: ts.Add(time.Second).UnixNano()})
	}
	if err := sys.Checkpoint(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Println("checkpointed the store at the consumer group's offsets")

	// Actions past the checkpoint: the tail a restore replays.
	sys.Publish(tencentrec.RawAction{User: "user-0", Item: "series-3", Action: "play", TS: now.Add(time.Hour).UnixNano()})
	sys.Publish(tencentrec.RawAction{User: "user-1", Item: "series-3", Action: "play", TS: now.Add(time.Hour).UnixNano()})
	if err := sys.Drain(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	before := similar(sys, "before the restart")

	fmt.Println("\ntopology metrics:")
	fmt.Print(sys.Metrics().String())
	if traces := sys.Traces(); len(traces) > 0 {
		fmt.Printf("\nlatency waterfalls (%d tuples sampled):\n", len(traces))
		sys.WriteTraceWaterfall(os.Stdout)
	}
	if err := sys.Close(); err != nil {
		log.Fatal(err)
	}

	// A new process over the same disk: the store restarts from the
	// committed checkpoint Open finds there, and the spout replays the
	// tail.
	sys, err = tencentrec.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Drain(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrestored from the checkpoint, replayed %d tail actions\n", sys.ReplayedTailRecords())
	after := similar(sys, "after the restore")
	if after != before {
		log.Fatalf("the restore changed similar(series-1): %s, was %s", after, before)
	}
	fmt.Println("similar(series-1) is the same")
}

// similar prints and returns series-1's similar-items list.
func similar(sys *tencentrec.System, label string) string {
	sims, err := sys.SimilarItems("series-1", 3)
	if err != nil {
		log.Fatalf("%s: %v", label, err)
	}
	out := ""
	for _, s := range sims {
		out += fmt.Sprintf("%s(%.2f) ", s.Item, s.Score)
	}
	fmt.Printf("%s: similar(series-1) = %s\n", label, out)
	return out
}
