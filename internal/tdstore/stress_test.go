package tdstore

// Race-enabled store stress: readers, writers, Incr and the batch paths
// hammering one cluster from many goroutines. The exactness assertions
// prove the per-instance write mutex loses no increment a client was told
// succeeded. Runs under -race via scripts/check.sh.

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestStoreConcurrentStress(t *testing.T) {
	_, cl := newTestCluster(t, Options{Instances: 16})

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
	var readers sync.WaitGroup
	for w := 0; w < readWorkers; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
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

	// Workers drain while the readers run, then every increment must be
	// accounted for exactly.
	waitWithTimeout(t, &wg)
	close(stopReads)
	waitWithTimeout(t, &readers)

	var sum float64
	for i := 0; i < counterKeys; i++ {
		v, err := getFloat(cl, fmt.Sprintf("stress-ctr-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	if want := float64(incrWorkers * incrsPerWkr); sum != want {
		t.Fatalf("counter sum = %v, want %v — lost or doubled increments", sum, want)
	}
}

// waitWithTimeout waits for wg's workers, and fails instead of hanging
// if anything deadlocks.
func waitWithTimeout(t *testing.T, wg *sync.WaitGroup) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stress workers did not finish within 30s")
	}
}
