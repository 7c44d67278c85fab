package tdstore

// Race-enabled store stress: readers, single-key writers and the batch
// paths hammering one cluster from many goroutines, with no lock above an
// instance's engine. Each key has one writer, as in the topology
// (§4.1.3), so every writer must read back its own last write. Runs under
// -race via scripts/check.sh.

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestStoreConcurrentStress(t *testing.T) {
	_, cl := newTestCluster(t, Options{Instances: 16})

	const (
		putWorkers   = 4
		putsPerWkr   = 400
		putKeys      = 4
		batchWorkers = 2
		batchKeys    = 48
		batchRounds  = 25
		readWorkers  = 2
	)
	putKey := func(w, k int) string { return fmt.Sprintf("stress-put-%d-%d", w, k) }

	var wg sync.WaitGroup

	// Put workers: each owns putKeys keys and overwrites them in turn.
	for w := 0; w < putWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < putsPerWkr; i++ {
				key := putKey(w, i%putKeys)
				if err := cl.Put(key, []byte(strconv.Itoa(i))); err != nil {
					t.Errorf("Put(%s): %v", key, err)
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

	// Readers: point reads of the Put workers' keys; values are
	// mid-flight so only errors are failures.
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
				key := putKey(i%putWorkers, i%putKeys)
				if _, _, err := cl.Get(key); err != nil {
					t.Errorf("Get(%s): %v", key, err)
					return
				}
			}
		}()
	}

	// Workers drain while the readers run, then each Put worker's keys
	// hold its last write to them.
	waitWithTimeout(t, &wg)
	close(stopReads)
	waitWithTimeout(t, &readers)

	for w := 0; w < putWorkers; w++ {
		for k := 0; k < putKeys; k++ {
			want := strconv.Itoa(putsPerWkr - putKeys + k)
			if got, ok, err := cl.Get(putKey(w, k)); err != nil || !ok || string(got) != want {
				t.Fatalf("%s = %q %v %v, want its last write %q", putKey(w, k), got, ok, err, want)
			}
		}
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
