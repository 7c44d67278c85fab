package tdstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadCheckpoint feeds arbitrary bytes to the manifest reader, the
// one file a cold restart trusts before it touches any engine. Property:
// an error, or a manifest that names at least one instance and reads
// back unchanged once written out again; never a panic.
func FuzzLoadCheckpoint(f *testing.F) {
	// A manifest as Checkpoint writes it, from a live disk-backed cluster.
	root := f.TempDir()
	c, err := NewCluster(Options{Instances: 4, Engine: ldbFactory(filepath.Join(root, "store"))})
	if err != nil {
		f.Fatal(err)
	}
	ckpt := filepath.Join(root, "ckpt")
	err = c.Checkpoint(ckpt, []FrontierEntry{{Group: "tencentrec", Topic: "actions", Offsets: []int64{12, 0, 7}}})
	c.Close()
	if err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(filepath.Join(ckpt, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add([]byte(`{"version":1,"instances":0}`))
	f.Add([]byte(`{"version":1,"instances":16,"frontier":[{"group":"g","topic":"t","offsets":[-1,9223372036854775807]}]}`))
	f.Add([]byte(`{"instances":1e2}`))
	f.Add(real[:len(real)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadCheckpoint(dir)
		if err != nil {
			return
		}
		if m.Instances <= 0 {
			t.Fatalf("accepted a manifest with %d instances", m.Instances)
		}
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("accepted manifest does not marshal: %v", err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), out, 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := LoadCheckpoint(dir)
		if err != nil || !reflect.DeepEqual(m, again) {
			t.Fatalf("manifest %+v re-read as %+v, %v", m, again, err)
		}
	})
}
