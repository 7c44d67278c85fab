package tdstore

// Race-enabled store stress: readers, writers, Incr and the batch paths
// hammering one cluster from many goroutines while a data server is
// killed and revived and a config server blips. The exactness assertions
// prove the failover protocol loses nothing a client was told succeeded:
// setDown → write fence → replication drain → promotion means the
// promoted slave holds every acknowledged write. Runs under -race via
// scripts/check.sh.

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestStoreConcurrentStressWithFailover(t *testing.T) {
	c, cl := newTestCluster(t, Options{DataServers: 4, Instances: 16, Replicas: 2})

	const (
		incrWorkers  = 4
		incrsPerWkr  = 400
		counterKeys  = 4
		batchWorkers = 2
		batchKeys    = 48
		batchRounds  = 25
		readWorkers  = 2
	)

	var wg sync.WaitGroup

	// Counter workers: spread increments round-robin over shared keys.
	for w := 0; w < incrWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < incrsPerWkr; i++ {
				key := fmt.Sprintf("stress-ctr-%d", (w+i)%counterKeys)
				if _, err := cl.IncrFloat(key, 1); err != nil {
					t.Errorf("IncrFloat(%s): %v", key, err)
					return
				}
			}
		}(w)
	}

	// Batch workers: each owns a key range, writes then reads it back.
	for w := 0; w < batchWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := make([]string, batchKeys)
			vals := make([][]byte, batchKeys)
			for i := range keys {
				keys[i] = fmt.Sprintf("stress-bw-%d-%d", w, i)
			}
			for round := 0; round < batchRounds; round++ {
				for i := range vals {
					vals[i] = []byte(fmt.Sprintf("%d-%d", round, i))
				}
				if err := cl.BatchPut(keys, vals); err != nil {
					t.Errorf("BatchPut: %v", err)
					return
				}
				got, found, err := cl.BatchGet(keys)
				if err != nil {
					t.Errorf("BatchGet: %v", err)
					return
				}
				// Single writer per key: read-your-writes must hold.
				for i := range keys {
					if !found[i] || string(got[i]) != string(vals[i]) {
						t.Errorf("round %d key %s = %q found=%v, want %q",
							round, keys[i], got[i], found[i], vals[i])
						return
					}
				}
			}
		}(w)
	}

	// Readers: point reads of the shared counters; values are mid-flight
	// so only errors are failures.
	stopReads := make(chan struct{})
	for w := 0; w < readWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopReads:
					return
				default:
				}
				key := fmt.Sprintf("stress-ctr-%d", i%counterKeys)
				if _, _, err := cl.Get(key); err != nil {
					t.Errorf("Get(%s): %v", key, err)
					return
				}
			}
		}()
	}

	// Chaos: a failover and a config blip while the workers run. The two
	// config servers are never down at once, and faults heal inside the
	// client retry budget — the same rules the topology chaos soak uses.
	time.Sleep(2 * time.Millisecond)
	if err := c.KillDataServer("ds-2"); err != nil {
		t.Fatal(err)
	}
	c.KillConfigHost()
	time.Sleep(2 * time.Millisecond)
	c.ReviveConfigHost()
	if err := c.ReviveDataServer("ds-2"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	c.KillConfigBackup()
	time.Sleep(time.Millisecond)
	c.ReviveConfigBackup()

	// Workers drain, then every increment must be accounted for exactly.
	wgWaitWithTimeout(t, &wg, stopReads)
	c.WaitSync()

	var sum float64
	for i := 0; i < counterKeys; i++ {
		v, err := getFloat(cl, fmt.Sprintf("stress-ctr-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	if want := float64(incrWorkers * incrsPerWkr); sum != want {
		t.Fatalf("counter sum = %v, want %v — failover lost or doubled increments", sum, want)
	}
}

// wgWaitWithTimeout waits for the write workers, stops the open-ended
// readers, and fails instead of hanging if anything deadlocks.
func wgWaitWithTimeout(t *testing.T, wg *sync.WaitGroup, stopReads chan struct{}) {
	t.Helper()
	close(stopReads)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stress workers did not finish within 30s")
	}
}
