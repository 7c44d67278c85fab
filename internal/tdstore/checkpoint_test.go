package tdstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tencentrec/internal/obsv"
	"tencentrec/internal/tdstore/engine"
	"tencentrec/internal/tdstore/engine/ldb"
)

// ldbFactory builds per-instance LDB engines under root, one directory
// per instance.
func ldbFactory(root string) func(InstanceID) (engine.Engine, error) {
	return func(inst InstanceID) (engine.Engine, error) {
		return ldb.Open(InstanceDir(root, int(inst)), ldb.Options{FlushThreshold: 32, MaxTables: 4})
	}
}

// restoreFactory is ldbFactory plus checkpoint seeding: each instance
// directory is wiped and re-linked from the checkpoint before
// the engine opens — the cold-restart path.
func restoreFactory(root, ckptDir string) func(InstanceID) (engine.Engine, error) {
	return func(inst InstanceID) (engine.Engine, error) {
		dir := InstanceDir(root, int(inst))
		if err := ldb.Restore(InstanceDir(ckptDir, int(inst)), dir); err != nil {
			return nil, err
		}
		return ldb.Open(dir, ldb.Options{FlushThreshold: 32, MaxTables: 4})
	}
}

// TestClusterLDBCloseReopen shuts a disk-backed cluster down cleanly and
// rebuilds it over the same directories: every write must survive, and
// the reopen must not trip over leaked file handles or stale locks.
func TestClusterLDBCloseReopen(t *testing.T) {
	root := t.TempDir()
	opts := Options{Instances: 6, Engine: ldbFactory(root)}
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := cl.Put(fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	c2, err := NewCluster(opts)
	if err != nil {
		t.Fatalf("reopen cluster: %v", err)
	}
	defer c2.Close()
	cl2, err := c2.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v, ok, err := cl2.Get(k)
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("%s after reopen = %q %v %v", k, v, ok, err)
		}
	}
}

// TestClusterCheckpointRestore takes an offset-anchored checkpoint of a
// live disk-backed cluster, keeps writing, then cold-starts a fresh
// cluster from the checkpoint: it must hold exactly the checkpoint-time
// state (later writes gone — they are the tail the log replays) and
// return the frontier that anchors it.
func TestClusterCheckpointRestore(t *testing.T) {
	root := t.TempDir()
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	opts := Options{Instances: 6, Engine: ldbFactory(root)}
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := cl.Put(fmt.Sprintf("key-%03d", i), []byte("checkpointed")); err != nil {
			t.Fatal(err)
		}
	}
	frontier := []FrontierEntry{{Group: "g", Topic: "user-actions", Offsets: []int64{42, 17}}}
	if err := c.Checkpoint(ckpt, frontier); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes belong to the tail, not the snapshot.
	for i := 100; i < 150; i++ {
		if err := cl.Put(fmt.Sprintf("key-%03d", i), []byte("tail")); err != nil {
			t.Fatal(err)
		}
	}

	m, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if m.Instances != 6 || len(m.Frontier) != 1 || m.Frontier[0].Offsets[0] != 42 {
		t.Fatalf("manifest = %+v", m)
	}

	root2 := t.TempDir()
	c2, err := NewCluster(Options{Instances: 6,
		Engine: restoreFactory(root2, ckpt)})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	cl2, err := c2.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v, ok, err := cl2.Get(k)
		if err != nil || !ok || string(v) != "checkpointed" {
			t.Fatalf("%s restored = %q %v %v", k, v, ok, err)
		}
	}
	for i := 100; i < 150; i++ {
		if _, ok, _ := cl2.Get(fmt.Sprintf("key-%03d", i)); ok {
			t.Fatalf("post-checkpoint key-%03d leaked into the restore", i)
		}
	}
}

// TestCheckpointRequiresCheckpointer rejects checkpointing a cluster
// whose engines cannot snapshot, rather than silently writing nothing.
func TestCheckpointRequiresCheckpointer(t *testing.T) {
	c, err := NewCluster(Options{Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Checkpoint(t.TempDir(), nil)
	if err == nil || !strings.Contains(err.Error(), "does not support checkpoints") {
		t.Fatalf("Checkpoint on MDB = %v, want unsupported error", err)
	}
}

// TestLoadCheckpointMissingManifest treats an uncommitted checkpoint
// directory as no checkpoint at all.
func TestLoadCheckpointMissingManifest(t *testing.T) {
	dir := t.TempDir()
	os.MkdirAll(filepath.Join(dir, "inst-0"), 0o755) // aborted: data, no manifest
	if _, err := LoadCheckpoint(dir); err == nil {
		t.Fatal("LoadCheckpoint accepted a directory without a manifest")
	}
}

// TestClusterInstrumentEngineStats exposes the engine counters on a
// registry and checks they move with real work.
func TestClusterInstrumentEngineStats(t *testing.T) {
	root := t.TempDir()
	c, err := NewCluster(Options{Instances: 4, Engine: ldbFactory(root)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	reg := obsv.NewRegistry()
	c.Instrument(reg)
	for i := 0; i < 300; i++ {
		if err := cl.Put(fmt.Sprintf("key-%d", i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"tdstore_engine_fsyncs_total",
		"tdstore_engine_memtable_flushes_total",
		"tdstore_engine_sstables",
		"tdstore_engine_recovery_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metric %s missing from exposition:\n%s", want, text)
		}
	}
	var flushes int64
	c.engines(func(eng engine.Engine) {
		if sr, ok := eng.(engine.StatsReporter); ok {
			flushes += sr.EngineStats().MemtableFlushes
		}
	})
	if flushes == 0 {
		t.Fatal("engine memtable flush counters did not move under writes")
	}
}

// TestNewClusterEngineErrorCleansUp makes the constructor release every
// engine it created before the failure: the LDB dirs must be reopenable
// immediately (no goroutine leaks holding table files).
func TestNewClusterEngineErrorCleansUp(t *testing.T) {
	root := t.TempDir()
	calls := 0
	factory := func(inst InstanceID) (engine.Engine, error) {
		calls++
		if calls > 5 {
			return nil, fmt.Errorf("boom")
		}
		return ldb.Open(InstanceDir(root, int(inst)), ldb.Options{})
	}
	if _, err := NewCluster(Options{Instances: 8, Engine: factory}); err == nil {
		t.Fatal("NewCluster succeeded despite factory failure")
	}
	// All five created engines must be closed: reopening their dirs works
	// and a fresh cluster over the same root comes up clean.
	c, err := NewCluster(Options{Instances: 8, Engine: ldbFactory(root)})
	if err != nil {
		t.Fatalf("reopen after failed construction: %v", err)
	}
	c.Close()
}
