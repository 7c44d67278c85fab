package topology

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"tencentrec/internal/tdaccess"
	"tencentrec/internal/tdstore"
	"tencentrec/internal/tdstore/engine"
	"tencentrec/internal/tdstore/engine/ldb"
)

// coldRestartScale returns the workload size for the cold-restart soak.
// The default keeps CI fast; COLD_RESTART_USERS=1000000 (or any count)
// runs the full million-user soak the issue calls for.
func coldRestartScale() (users, actions int) {
	users, actions = 500, 16000
	if v := os.Getenv("COLD_RESTART_USERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			users = n
			actions = 4 * n
		}
	}
	return users, actions
}

// TestColdRestartChaosSoak is the durability soak (ISSUE 8 acceptance):
// the whole store — broker process state, cluster, every engine — is
// killed mid-workload and cold-started from disk. Recovery restores the
// LDB checkpoint and replays only the committed-offset tail; afterwards
// the item counts must equal the sequential library's EXACTLY, with no
// double-apply of pre-checkpoint records and no lost tail records.
//
// Run shape:
//
//	phase 1: publish ~90% of the stream, run the acking CF topology to
//	         quiescence, checkpoint the cluster anchored to the group's
//	         committed offsets;
//	phase 2: publish the last 10%, start the topology again and kill it
//	         mid-tail, then discard ALL process state (broker group
//	         offsets, cluster, engines) keeping only the disk;
//	phase 3: cold restart — fresh broker over the same log directory,
//	         fresh cluster seeded from the checkpoint, offsets replanted
//	         from the manifest — and run to quiescence.
//
// Phase 2's partial progress is deliberately thrown away: restore wipes
// the live instance directories back to the checkpoint, which is exactly
// why replaying the full tail cannot double-count.
func TestColdRestartChaosSoak(t *testing.T) {
	users, total := coldRestartScale()
	actions := genActions(71, total, users, 32)
	split := total * 9 / 10

	brokerDir := t.TempDir()
	storeRoot := t.TempDir()
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	const group = "cold"
	const parts = 4

	ldbOpts := ldb.Options{FlushThreshold: 256, MaxTables: 4}
	factory := func(serverID string, inst tdstore.InstanceID) (engine.Engine, error) {
		return ldb.Open(filepath.Join(storeRoot, serverID, fmt.Sprintf("inst-%d", inst)), ldbOpts)
	}
	clusterOpts := tdstore.Options{DataServers: 3, Instances: 12, Replicas: 2, Engine: factory}

	p := Params{
		FlushInterval:   time.Hour,
		DisableCombiner: true,
	}
	runTopo := func(broker *tdaccess.Broker, client *tdstore.Client, emitted *atomic.Int64, kill time.Duration) {
		t.Helper()
		spout := NewTDAccessSpout(TDAccessSpoutConfig{
			Broker:          broker,
			Topic:           "user-actions",
			Group:           group,
			StopWhenDrained: true,
			PollBatch:       64,
			IdleSleep:       500 * time.Microsecond,
			Emitted:         emitted,
		})
		topo, err := NewBuilder("cold", spout, client, p).
			WithParallelism(Parallelism{Spout: 2, Pretreatment: 2, UserHistory: 3, ItemCount: 2, PairCount: 2, Storage: 2}).
			WithFeatures(Features{CF: true}).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		h := topo.SubmitWithErrorHandler(func(c string, err error) {
			t.Logf("component %s: %v", c, err)
		})
		if kill > 0 {
			time.Sleep(kill)
			h.Stop() // the process is "killed" mid-tail
		}
		select {
		case <-h.Done():
		case <-time.After(300 * time.Second):
			t.Fatal("topology did not quiesce")
		}
	}

	// ---- Phase 1: steady state up to the checkpoint. ----
	broker, err := tdaccess.NewBroker(tdaccess.Options{Dir: brokerDir, Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := tdstore.NewCluster(clusterOpts)
	if err != nil {
		t.Fatal(err)
	}
	client, err := cluster.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	prod := broker.NewProducer()
	for _, a := range actions[:split] {
		if _, _, err := prod.Send("user-actions", a.User, EncodeAction(a)); err != nil {
			t.Fatal(err)
		}
	}
	runTopo(broker, client, nil, 0)
	cluster.WaitSync()

	frontier := make([]int64, parts)
	var committed int64
	for part := 0; part < parts; part++ {
		off, err := broker.CommittedOffset(group, "user-actions", part)
		if err != nil {
			t.Fatal(err)
		}
		frontier[part] = off
		committed += off
	}
	if committed != int64(split) {
		t.Fatalf("committed frontier covers %d records, want all %d pre-checkpoint", committed, split)
	}
	if err := cluster.Checkpoint(ckptDir, []tdstore.FrontierEntry{
		{Group: group, Topic: "user-actions", Offsets: frontier},
	}); err != nil {
		t.Fatal(err)
	}

	// ---- Phase 2: tail arrives; the store dies mid-processing. ----
	for _, a := range actions[split:] {
		if _, _, err := prod.Send("user-actions", a.User, EncodeAction(a)); err != nil {
			t.Fatal(err)
		}
	}
	runTopo(broker, client, nil, 10*time.Millisecond)
	// Kill the whole store: broker (its in-memory group offsets die with
	// it), cluster, engines. Only disk survives.
	broker.Close()
	cluster.Close()

	// ---- Phase 3: cold restart from disk. ----
	m, err := tdstore.LoadCheckpoint(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	broker2, err := tdaccess.NewBroker(tdaccess.Options{Dir: brokerDir, Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	defer broker2.Close()
	for _, fe := range m.Frontier {
		if err := broker2.SeedCommittedOffsets(fe.Group, fe.Topic, fe.Offsets); err != nil {
			t.Fatal(err)
		}
	}
	restoreFactory := func(serverID string, inst tdstore.InstanceID) (engine.Engine, error) {
		dir := filepath.Join(storeRoot, serverID, fmt.Sprintf("inst-%d", inst))
		if err := tdstore.SeedInstanceDir(ckptDir, int(inst), dir); err != nil {
			return nil, err
		}
		return ldb.Open(dir, ldbOpts)
	}
	cluster2, err := tdstore.NewCluster(tdstore.Options{DataServers: 3, Instances: 12, Replicas: 2, Engine: restoreFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster2.Close()
	client2, err := cluster2.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	var replayed atomic.Int64
	runTopo(broker2, client2, &replayed, 0)
	cluster2.WaitSync()

	// Recovery must replay ONLY the tail: every record past the frontier
	// and none below it. A consumer-group rebalance while the two spout
	// tasks join can re-read a small uncommitted window (downstream dedup
	// absorbs it), so allow that bounded overlap — but nothing close to a
	// from-the-beginning replay.
	tail := int64(total - split)
	if got := replayed.Load(); got < tail || got > tail+1024 {
		t.Errorf("replayed_tail_records = %d, want the %d-record tail (+rebalance overlap) of %d total", got, tail, total)
	}

	// Exactness: counts equal the sequential library over the FULL stream
	// — checkpoint state plus tail replay, no loss, no double-apply.
	cf := libEngine(p.withDefaults(), actions)
	now := time.Unix(0, actions[len(actions)-1].TS)
	for i := 0; i < 32; i++ {
		item := fmt.Sprintf("i%d", i)
		got := readStateCounter(t, client2, prefixItemCount+item, 0, 0)
		want := cf.ItemCount(item, now)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("itemCount(%s) = %v, library %v", item, got, want)
		}
	}
}
