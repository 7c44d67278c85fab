// Cluster fault tolerance: stateless workers and replicated status data.
//
// Demonstrates the paper's robustness design (§3.3): all status data
// lives in TDStore with per-instance replication, so killing a data
// server promotes a slave and queries keep answering identically. The
// topology's workers keep no state of their own; a crashed process is
// restored from its checkpoint and replays the log's tail (DESIGN.md
// §18).
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

	sys, err := tencentrec.Open(tencentrec.SystemConfig{
		DataDir:       dir,
		StoreServers:  4,
		StoreReplicas: 2,
		Params:        tencentrec.Params{FlushInterval: 20 * time.Millisecond},
		Parallelism:   tencentrec.Parallelism{UserHistory: 3, ItemCount: 2, PairCount: 2},
		TraceEvery:    1, // trace every tuple so the demo always has waterfalls
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	now := time.Now()
	for u := 0; u < 10; u++ {
		user := fmt.Sprintf("user-%d", u)
		ts := now.Add(time.Duration(u) * time.Second)
		sys.Publish(tencentrec.RawAction{User: user, Item: "series-1", Action: "play", TS: ts.UnixNano()})
		sys.Publish(tencentrec.RawAction{User: user, Item: "series-2", Action: "play", TS: ts.Add(time.Second).UnixNano()})
	}
	if err := sys.Drain(10 * time.Second); err != nil {
		log.Fatal(err)
	}

	show := func(label string) {
		sims, err := sys.SimilarItems("series-1", 3)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		fmt.Printf("%s: similar(series-1) = ", label)
		for _, s := range sims {
			fmt.Printf("%s(%.2f) ", s.Item, s.Score)
		}
		fmt.Println()
	}

	show("baseline")

	// Kill a storage server: the config server promotes slaves.
	if err := sys.KillStoreServer("ds-1"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("killed TDStore data server ds-1 (slave promotion)")
	show("after failover")

	// The pipeline keeps processing new events through the failover.
	sys.Publish(tencentrec.RawAction{User: "user-0", Item: "series-3", Action: "play", TS: now.Add(time.Hour).UnixNano()})
	if err := sys.Drain(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	show("after more traffic")

	fmt.Println("\ntopology metrics:")
	fmt.Print(sys.Metrics().String())

	if traces := sys.Traces(); len(traces) > 0 {
		fmt.Printf("\nlatency waterfalls (%d tuples sampled):\n", len(traces))
		sys.WriteTraceWaterfall(os.Stdout)
	}
}
