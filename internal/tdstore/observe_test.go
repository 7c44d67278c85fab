package tdstore

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"

	"tencentrec/internal/obsv"
	"tencentrec/internal/tdstore/engine"
)

func TestClientInstrument(t *testing.T) {
	_, cl := newTestCluster(t, Options{})
	r := obsv.NewRegistry()
	cl.Instrument(r)

	if err := cl.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Get("k1"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.IncrFloat("ctr", 2.5); err != nil {
		t.Fatal(err)
	}
	if err := cl.BatchPut([]string{"a", "b"}, [][]byte{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.BatchGet([]string{"a", "b", "missing"}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete("k1"); err != nil {
		t.Fatal(err)
	}

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, op := range []string{"get", "put", "delete", "incr", "batch_get", "batch_put"} {
		want := `tdstore_op_seconds_count{op="` + op + `"} 1`
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// No failures were injected, so neither retries nor extra refreshes
	// should have been counted.
	if !strings.Contains(out, "tdstore_retries_total 0") {
		t.Errorf("expected zero retries:\n%s", out)
	}
}

func TestClientRetryCountsInstrumented(t *testing.T) {
	c, cl := newTestCluster(t, Options{DataServers: 3, Instances: 6, Replicas: 2})
	r := obsv.NewRegistry()
	cl.Instrument(r)
	if err := cl.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Kill the host of k's instance: the next Get must retry through a
	// route refresh, and both counters must reflect it.
	rt := cl.cachedRoute()
	inst := rt.InstanceFor("k")
	if err := c.KillDataServer(rt.Hosts[inst]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Get("k"); err != nil {
		t.Fatalf("get after failover: %v", err)
	}
	if got := cl.ins.retries.Value(); got == 0 {
		t.Error("retries counter did not advance across a failover")
	}
	if got := cl.ins.refreshes.Value(); got == 0 {
		t.Error("route refresh counter did not advance across a failover")
	}
}

// failingWrites is a slave engine whose writes all fail.
type failingWrites struct{ engine.Engine }

var errInjected = errors.New("injected engine fault")

func (failingWrites) PutKV(engine.KV) error      { return errInjected }
func (failingWrites) PutBatch([]engine.KV) error { return errInjected }

// TestReplicaApplyErrorsCounted gives every slave an engine that fails
// its writes: a client write succeeds on the host, and the failed
// replica apply shows in tdstore_replica_apply_errors_total.
func TestReplicaApplyErrorsCounted(t *testing.T) {
	hosted := make(map[InstanceID]bool)
	c, cl := newTestCluster(t, Options{
		DataServers: 3,
		Instances:   6,
		// NewCluster builds an instance's host engine before its slaves'.
		Engine: func(_ string, inst InstanceID) (engine.Engine, error) {
			if !hosted[inst] {
				hosted[inst] = true
				return engine.NewMemory(), nil
			}
			return failingWrites{engine.NewMemory()}, nil
		},
	})
	r := obsv.NewRegistry()
	c.Instrument(r)
	errorsTotal := func() int64 {
		t.Helper()
		var b bytes.Buffer
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "tdstore_replica_apply_errors_total "); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		t.Fatalf("exposition lacks tdstore_replica_apply_errors_total:\n%s", b.String())
		return 0
	}
	if got := errorsTotal(); got != 0 {
		t.Fatalf("%d replica apply errors before any write", got)
	}
	if err := cl.Put("k", []byte("v")); err != nil {
		t.Fatalf("a write whose replica fails must still succeed on the host: %v", err)
	}
	c.WaitSync()
	afterPut := errorsTotal()
	if afterPut < 1 {
		t.Fatalf("a failed replica Put was not counted: %d", afterPut)
	}
	if err := cl.BatchPut([]string{"a", "b", "c"}, [][]byte{{1}, {2}, {3}}); err != nil {
		t.Fatal(err)
	}
	c.WaitSync()
	if got := errorsTotal(); got <= afterPut {
		t.Fatalf("a failed replica PutBatch was not counted: %d after %d", got, afterPut)
	}
}
