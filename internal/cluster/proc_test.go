package cluster

import (
	"os"
	"strconv"
	"testing"
	"time"
)

// TestMain doubles as the worker entrypoint: the supervisor re-executes
// this test binary with TR_CLUSTER_WORKER=1, MaybeWorker intercepts
// before any test runs, and the worker inherits the -race runtime of the
// test build.
func TestMain(m *testing.M) {
	if MaybeWorker() {
		return
	}
	os.Exit(m.Run())
}

// expectedCounts derives the per-item reference totals sequentially.
func expectedCounts(seed int64, n, users, items int) map[string]int64 {
	out := make(map[string]int64)
	for _, a := range GenActions(seed, n, users, items) {
		out[a.Item]++
	}
	return out
}

func checkExact(t *testing.T, dir string, seed int64, n, users, items int) {
	t.Helper()
	got, delivered, dups, err := ReadCounts(dir)
	if err != nil {
		t.Fatalf("ReadCounts: %v", err)
	}
	if delivered != int64(n) {
		t.Errorf("delivered = %d, want %d (dups filtered: %d)", delivered, n, dups)
	}
	want := expectedCounts(seed, n, users, items)
	if len(got) != len(want) {
		t.Errorf("item cardinality = %d, want %d", len(got), len(want))
	}
	for item, wc := range want {
		if got[item] != wc {
			t.Errorf("item %s: count = %d, want %d", item, got[item], wc)
		}
	}
	for item := range got {
		if _, ok := want[item]; !ok {
			t.Errorf("unexpected item %s in output", item)
		}
	}
}

func waitCompleted(t *testing.T, sup *Supervisor, timeout time.Duration) {
	t.Helper()
	select {
	case <-sup.Completed():
	case <-time.After(timeout):
		sup.Close()
		t.Fatal("cluster did not complete in time")
	}
}

// TestClusterProcSmoke runs a supervisor plus two real worker processes:
// spout on worker 0, counting sink on worker 1, all tuples crossing the
// wire, final counts exact against the sequential reference.
func TestClusterProcSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	dir := t.TempDir()
	out := t.TempDir()
	sup, err := NewSupervisor(SupervisorConfig{Cluster: "smoke", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	const seed, n, users, items = 7, 2000, 50, 20
	spec := &Spec{
		Name: "smoke", Workers: 2, Acking: true, AckTimeoutMS: 5000,
		Spouts: []ComponentSpec{{
			Name: "actions", Kind: "actions", Parallelism: 1,
			Params: map[string]string{"seed": "7", "count": "2000", "users": "50", "items": "20"},
		}},
		Bolts: []ComponentSpec{{
			Name: "count", Kind: "count", Parallelism: 1, TickMS: 100,
			Params: map[string]string{"out": out},
			Inputs: []InputSpec{{Source: "actions", Grouping: "field", Fields: []string{"item"}}},
		}},
	}
	if err := sup.Submit(spec); err != nil {
		t.Fatal(err)
	}
	waitCompleted(t, sup, 60*time.Second)
	checkExact(t, out, seed, n, users, items)
}

// TestClusterProcessKillSoak: a three-worker pipeline (source → relay →
// count) with acking, where the middle worker is kill -9'd mid-stream.
// The supervisor must restart it, the acker must replay what died with
// it, and the final counts must match the sequential reference exactly.
func TestClusterProcessKillSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	dir := t.TempDir()
	out := t.TempDir()
	sup, err := NewSupervisor(SupervisorConfig{Cluster: "soak", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	const seed, n, users, items = 42, 2500, 80, 25
	spec := &Spec{
		Name: "soak", Workers: 3, Acking: true, AckTimeoutMS: 3000,
		Assign: map[string]int{"relay": 1, "count": 2},
		Spouts: []ComponentSpec{{
			Name: "actions", Kind: "actions", Parallelism: 1,
			Params: map[string]string{
				"seed": "42", "count": strconv.Itoa(n), "users": "80", "items": "25",
			},
		}},
		Bolts: []ComponentSpec{
			{
				Name: "relay", Kind: "relay", Parallelism: 2,
				Params: map[string]string{"delay_us": "200"},
				Inputs: []InputSpec{{Source: "actions", Grouping: "shuffle"}},
			},
			{
				Name: "count", Kind: "count", Parallelism: 1, TickMS: 100,
				Params: map[string]string{"out": out},
				Inputs: []InputSpec{{Source: "relay", Grouping: "field", Fields: []string{"item"}}},
			},
		},
	}
	if err := sup.Submit(spec); err != nil {
		t.Fatal(err)
	}

	// Kill the relay worker for real once the sink has counted some of
	// the stream but not all of it.
	for {
		_, delivered, _, err := ReadCounts(out)
		if err != nil {
			t.Fatalf("ReadCounts: %v", err)
		}
		if delivered >= n {
			t.Fatal("the run finished before the relay worker could be killed mid-stream")
		}
		if delivered > 0 {
			break
		}
		select {
		case <-sup.Completed():
			t.Fatal("the run completed before the relay worker could be killed mid-stream")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if err := sup.Kill(1); err != nil {
		t.Fatalf("kill: %v", err)
	}

	waitCompleted(t, sup, 120*time.Second)
	checkExact(t, out, seed, n, users, items)

	if restarts := sup.Restarts(1); restarts < 1 {
		t.Errorf("worker 1 restarts = %d, want >= 1 (was it really killed?)", restarts)
	}
}
