package tdstore

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"tencentrec/internal/tdstore/engine"
)

// manifestName is the checkpoint manifest file inside a checkpoint
// directory. Its atomic rename is the checkpoint's commit point: a
// directory without a manifest is an aborted checkpoint and is never
// restored from.
const manifestName = "manifest.json"

// FrontierEntry records one consumer group's committed offsets at
// checkpoint time — the committed frontier the snapshot is anchored to.
type FrontierEntry struct {
	Group   string  `json:"group"`
	Topic   string  `json:"topic"`
	Offsets []int64 `json:"offsets"` // per partition
}

// CheckpointManifest describes a store checkpoint: which instances were
// snapshotted and the TDAccess offsets the state is exact up to. A cold
// restart restores the instance snapshots, seeds the broker's committed
// offsets from the frontier, and replays only the tail past it.
type CheckpointManifest struct {
	Version   int             `json:"version"`
	Instances int             `json:"instances"`
	Frontier  []FrontierEntry `json:"frontier"`
}

// Checkpoint snapshots every instance's host engine into dir together
// with the given offset frontier. Pending replication is drained first
// so hosts and slaves agree; each engine must implement
// engine.Checkpointer (the LDB engine does). The caller is responsible
// for quiescing writes: the snapshot is exact with respect to the
// frontier only if every record at or below it has been applied and none
// above it has.
//
// Layout: dir/inst-<n>/ holds instance n's engine snapshot,
// dir/manifest.json commits the checkpoint.
func (c *Cluster) Checkpoint(dir string, frontier []FrontierEntry) error {
	c.WaitSync()
	rt, err := c.RouteTable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("tdstore: create checkpoint dir: %w", err)
	}
	// Remove any stale manifest first: if this checkpoint dies halfway,
	// the directory must not look committed at the previous state.
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("tdstore: clear old manifest: %w", err)
	}
	for inst := 0; inst < rt.NumInstances; inst++ {
		ds, ok := c.server(rt.Hosts[inst])
		if !ok {
			return fmt.Errorf("tdstore: checkpoint: unknown host %q for instance %d", rt.Hosts[inst], inst)
		}
		eng, ok := ds.engineOf(InstanceID(inst))
		if !ok {
			return fmt.Errorf("tdstore: checkpoint: host %s lacks instance %d", ds.ID, inst)
		}
		ck, ok := eng.(engine.Checkpointer)
		if !ok {
			return fmt.Errorf("tdstore: engine for instance %d does not support checkpoints", inst)
		}
		if err := ck.Checkpoint(instanceCheckpointDir(dir, inst)); err != nil {
			return fmt.Errorf("tdstore: checkpoint instance %d: %w", inst, err)
		}
	}
	m := CheckpointManifest{Version: 1, Instances: rt.NumInstances, Frontier: frontier}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("tdstore: write manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("tdstore: commit manifest: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a committed checkpoint's manifest. A missing
// manifest means dir holds no (complete) checkpoint.
func LoadCheckpoint(dir string) (*CheckpointManifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("tdstore: read checkpoint manifest: %w", err)
	}
	var m CheckpointManifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("tdstore: parse checkpoint manifest: %w", err)
	}
	if m.Instances <= 0 {
		return nil, fmt.Errorf("tdstore: manifest has no instances")
	}
	return &m, nil
}

// instanceCheckpointDir is where instance inst's snapshot lives inside a
// checkpoint directory.
func instanceCheckpointDir(dir string, inst int) string {
	return filepath.Join(dir, fmt.Sprintf("inst-%d", inst))
}

// SeedInstanceDir replaces dstDir with instance inst's snapshot from a
// checkpoint: the live directory is wiped (its post-checkpoint contents
// are exactly what tail replay will regenerate — restoring over them
// would double-apply) and the snapshot's files are hard-linked or copied
// in. Engine factories call this before opening a disk engine when
// restoring from a cold start.
func SeedInstanceDir(checkpointDir string, inst int, dstDir string) error {
	src := instanceCheckpointDir(checkpointDir, inst)
	if err := os.RemoveAll(dstDir); err != nil {
		return fmt.Errorf("tdstore: clear instance dir: %w", err)
	}
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return fmt.Errorf("tdstore: create instance dir: %w", err)
	}
	ents, err := os.ReadDir(src)
	if os.IsNotExist(err) {
		return nil // instance had no state at checkpoint time
	}
	if err != nil {
		return fmt.Errorf("tdstore: read snapshot dir: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if err := linkOrCopyFile(filepath.Join(src, e.Name()), filepath.Join(dstDir, e.Name())); err != nil {
			return fmt.Errorf("tdstore: seed %s: %w", e.Name(), err)
		}
	}
	return nil
}

// linkOrCopyFile hard-links src to dst, copying when links are refused.
func linkOrCopyFile(src, dst string) error {
	if err := os.Link(src, dst); err == nil {
		return nil
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
