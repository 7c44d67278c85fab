package tdstore

import (
	"encoding/json"
	"fmt"
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

// Checkpoint snapshots every instance's engine into dir together with
// the given offset frontier; each engine must implement
// engine.Checkpointer (the LDB engine does). The caller is responsible
// for quiescing writes: the snapshot is exact with respect to the
// frontier only if every record at or below it has been applied and none
// above it has.
//
// Layout: dir/inst-<n>/ holds instance n's engine snapshot,
// dir/manifest.json commits the checkpoint.
func (c *Cluster) Checkpoint(dir string, frontier []FrontierEntry) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("tdstore: create checkpoint dir: %w", err)
	}
	// Remove any stale manifest first: if this checkpoint dies halfway,
	// the directory must not look committed at the previous state.
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("tdstore: clear old manifest: %w", err)
	}
	for inst, in := range c.instances {
		ck, ok := in.eng.(engine.Checkpointer)
		if !ok {
			return fmt.Errorf("tdstore: engine for instance %d does not support checkpoints", inst)
		}
		if err := ck.Checkpoint(InstanceDir(dir, inst)); err != nil {
			return fmt.Errorf("tdstore: checkpoint instance %d: %w", inst, err)
		}
	}
	m := CheckpointManifest{Version: 1, Instances: len(c.instances), Frontier: frontier}
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

// InstanceDir is instance inst's directory under dir. A durable store
// keeps the instance's engine files there, and a checkpoint directory the
// engine's own snapshot (for LDB, what ldb.Restore seeds the instance's
// store directory from on a cold restart).
func InstanceDir(dir string, inst int) string {
	return filepath.Join(dir, fmt.Sprintf("inst-%d", inst))
}
