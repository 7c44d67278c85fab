package tdstore

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"tencentrec/internal/obsv"
	"tencentrec/internal/tdstore/engine"
)

// batchOp is one of the two batched operations as the skeleton sees
// it: what a group's send does, and the public call with its result
// checked.
type batchOp struct {
	name string
	// what is the operation name an exhausted retry budget reports.
	what string
	send func(keys []string, values [][]byte) groupSend
	// call runs the public operation and checks what it returned (or,
	// for the write, what a read afterwards returns) against values.
	call func(cl *Client, keys []string, values [][]byte) error
}

func checkRead(keys []string, values, got [][]byte, found []bool) error {
	for i := range keys {
		if !found[i] || string(got[i]) != string(values[i]) {
			return fmt.Errorf("key %s = %q found=%v, want %q", keys[i], got[i], found[i], values[i])
		}
	}
	return nil
}

var batchOps = []batchOp{
	{
		name: "BatchGet", what: "batch get",
		send: func(keys []string, _ [][]byte) groupSend {
			return readInto(make([][]byte, len(keys)), make([]bool, len(keys)))
		},
		call: func(cl *Client, keys []string, values [][]byte) error {
			got, found, err := cl.BatchGet(keys)
			if err != nil {
				return err
			}
			return checkRead(keys, values, got, found)
		},
	},
	{
		name: "BatchPut", what: "batch put",
		send: func(keys []string, values [][]byte) groupSend {
			kvs := make([]engine.KV, len(keys))
			for i, k := range keys {
				kvs[i] = engine.MakeKV(k, values[i])
			}
			return func(ds *DataServer, items []batchItem) error { return ds.hostBatchPut(items, kvs) }
		},
		call: func(cl *Client, keys []string, values [][]byte) error {
			if err := cl.BatchPut(keys, values); err != nil {
				return err
			}
			got, found, err := cl.BatchGet(keys)
			if err != nil {
				return fmt.Errorf("read back: %w", err)
			}
			return checkRead(keys, values, got, found)
		},
	},
}

// TestRoutedRequestSkeleton drives the two batched operations through
// the same failure scenarios: they share one route→group→fan-out→retry
// path, so they must share its behaviour.
func TestRoutedRequestSkeleton(t *testing.T) {
	const victim = "ds-1"
	scenarios := []struct {
		name string
		// fault breaks the cluster or the client's cached route after the
		// keys are stored and replicated.
		fault func(t *testing.T, c *Cluster, cl *Client)
		check func(t *testing.T, op batchOp, cl *Client, keys []string, values [][]byte, stale *RouteTable)
	}{
		{
			// The client's route still names a server that died after it
			// was cached: only that server's sub-batch fails and is sent
			// again, and the retry counter moves once per attempt, not
			// once per key.
			name: "killed server behind a stale route",
			fault: func(t *testing.T, c *Cluster, _ *Client) {
				if err := c.KillDataServer(victim); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, op batchOp, cl *Client, keys []string, values [][]byte, stale *RouteTable) {
				var want []int
				for pos, k := range keys {
					if stale.Hosts[stale.InstanceFor(k)] == victim {
						want = append(want, pos)
					}
				}
				if len(want) == 0 || len(want) == len(keys) {
					t.Fatalf("bad fixture: %d of %d keys aimed at the dead server", len(want), len(keys))
				}
				failed, err := cl.attempt(keys, allPositions(len(keys)), op.send(keys, values))
				slices.Sort(failed)
				if !errors.Is(err, ErrServerDown) || !slices.Equal(failed, want) {
					t.Fatalf("attempt left %d positions (%v), want the dead server's %d (ErrServerDown)", len(failed), err, len(want))
				}
				if err := op.call(cl, keys, values); err != nil {
					t.Fatal(err)
				}
				if got := cl.ins.retries.Value(); got != 1 {
					t.Fatalf("tdstore_retries_total = %d for %d failed keys, want 1", got, len(want))
				}
			},
		},
		{
			name: "route names an unknown server",
			fault: func(_ *testing.T, _ *Cluster, cl *Client) {
				forged := cl.cachedRoute().clone()
				inst := forged.InstanceFor("sk-0")
				forged.Hosts[inst] = "ds-ghost"
				cl.mu.Lock()
				cl.route = forged
				cl.mu.Unlock()
			},
			check: func(t *testing.T, op batchOp, cl *Client, keys []string, values [][]byte, _ *RouteTable) {
				err := op.call(cl, keys, values)
				if err == nil || !strings.Contains(err.Error(), `unknown server "ds-ghost"`) {
					t.Fatalf("err = %v, want the unknown server named", err)
				}
				if got := cl.ins.retries.Value(); got != 0 {
					t.Fatalf("a non-retryable error was retried %d times", got)
				}
			},
		},
		{
			// Every server answers ErrServerDown and the config servers
			// never learn of it, so the route cannot advance: the budget
			// runs out, one retry counted per attempt.
			name: "retry budget exhausted",
			fault: func(_ *testing.T, c *Cluster, _ *Client) {
				for _, ds := range c.Servers() {
					ds.setDown(true)
				}
			},
			check: func(t *testing.T, op batchOp, cl *Client, keys []string, values [][]byte, _ *RouteTable) {
				err := op.call(cl, keys, values)
				want := fmt.Sprintf("tdstore: %s of %d keys: retries exhausted", op.what, len(keys))
				if !errors.Is(err, ErrServerDown) || !strings.Contains(err.Error(), want) {
					t.Fatalf("err = %v, want %q wrapping ErrServerDown", err, want)
				}
				if got := cl.ins.retries.Value(); got != clientRetries+1 {
					t.Fatalf("tdstore_retries_total = %d for %d keys, want %d (one per attempt)", got, len(keys), clientRetries+1)
				}
			},
		},
	}
	for _, sc := range scenarios {
		for _, op := range batchOps {
			t.Run(sc.name+"/"+op.name, func(t *testing.T) {
				c, cl := newTestCluster(t, Options{DataServers: 4, Instances: 16, Replicas: 2})
				cl.Instrument(obsv.NewRegistry())
				var keys []string
				var values [][]byte
				for i := 0; i < 120; i++ {
					keys = append(keys, fmt.Sprintf("sk-%d", i))
					values = append(values, []byte(fmt.Sprintf("v-%d", i)))
				}
				if err := cl.BatchPut(keys, values); err != nil {
					t.Fatal(err)
				}
				c.WaitSync()
				stale := cl.cachedRoute()
				sc.fault(t, c, cl)
				sc.check(t, op, cl, keys, values, stale)
			})
		}
	}
}
