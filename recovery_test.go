package tencentrec

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"tencentrec/internal/core"
	"tencentrec/internal/demographic"
	"tencentrec/internal/window"
)

// recoveryStream is a deterministic action stream over users and items
// with every weighted action type, timestamps one second apart.
func recoveryStream(seed int64, n, users, items int) []RawAction {
	rng := rand.New(rand.NewSource(seed))
	types := []ActionType{ActionBrowse, ActionClick, ActionRead, ActionShare, ActionPurchase}
	out := make([]RawAction, n)
	for i := range out {
		out[i] = RawAction{
			User:   fmt.Sprintf("u%d", rng.Intn(users)),
			Item:   fmt.Sprintf("i%d", rng.Intn(items)),
			Action: string(types[rng.Intn(len(types))]),
			TS:     t0.Add(time.Duration(i) * time.Second).UnixNano(),
		}
	}
	return out
}

// itemCounters is every item's itemCount (ic:) and global-group
// popularity (gc:global\x1f<item>), as the store holds them or as the
// sequential reference computes them.
type itemCounters struct {
	IC map[string]float64 `json:"ic"`
	GC map[string]float64 `json:"gc"`
}

// readItemCounters reads items i0…i<items-1>'s counters from s's store.
func readItemCounters(s *System, items int) (itemCounters, error) {
	out := itemCounters{IC: map[string]float64{}, GC: map[string]float64{}}
	read := func(key string) (float64, error) {
		raw, ok, err := s.client.Get(key)
		if err != nil || !ok {
			return 0, err
		}
		c := window.NewCounter(0)
		if err := c.UnmarshalBinary(raw); err != nil {
			return 0, fmt.Errorf("%q: %w", key, err)
		}
		return c.Sum(0), nil
	}
	for i := 0; i < items; i++ {
		item := fmt.Sprintf("i%d", i)
		var err error
		if out.IC[item], err = read("ic:" + item); err != nil {
			return out, err
		}
		if out.GC[item], err = read("gc:" + demographic.GlobalGroup + "\x1f" + item); err != nil {
			return out, err
		}
	}
	return out, nil
}

// referenceCounters runs the stream through internal/core sequentially:
// itemCount is the library's, and an item's global popularity is the sum
// of its actions' weights.
func referenceCounters(actions []RawAction, items int) itemCounters {
	rec := NewRecommender(RecommenderConfig{})
	weights := core.DefaultWeights()
	out := itemCounters{IC: map[string]float64{}, GC: map[string]float64{}}
	for _, a := range actions {
		rec.Observe(NewAction(a.User, a.Item, ActionType(a.Action), a.Time()))
		out.GC[a.Item] += weights[ActionType(a.Action)]
	}
	now := actions[len(actions)-1].Time()
	for i := 0; i < items; i++ {
		item := fmt.Sprintf("i%d", i)
		out.IC[item] = rec.ItemCount(item, now)
	}
	return out
}

func checkItemCounters(t *testing.T, got, want itemCounters) {
	t.Helper()
	for item, w := range want.IC {
		if g := got.IC[item]; math.Abs(g-w) > 1e-9 {
			t.Errorf("ic:%s = %v, sequential reference %v", item, g, w)
		}
	}
	for item, w := range want.GC {
		if g := got.GC[item]; math.Abs(g-w) > 1e-9 {
			t.Errorf("gc:global\\x1f%s = %v, summed weights %v", item, g, w)
		}
	}
}

func publishAll(t *testing.T, s *System, actions []RawAction) {
	t.Helper()
	for _, a := range actions {
		if err := s.Publish(a); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDrainWaitsForRestoredTail: a System restored from a checkpoint has
// published nothing itself, yet Drain must wait until the spout has
// replayed the whole tail past the frontier.
func TestDrainWaitsForRestoredTail(t *testing.T) {
	const items = 20
	actions := recoveryStream(5, 3000, 200, items)
	head := actions[:2000]
	cfg := SystemConfig{DataDir: t.TempDir(), StoreEngine: "ldb"}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	publishAll(t, s, head)
	if err := s.Checkpoint(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	publishAll(t, s, actions[len(head):])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.RestoreFromCheckpoint = true
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got, want := s2.ReplayedTailRecords(), int64(len(actions)-len(head)); got != want {
		t.Fatalf("Drain returned with %d of the %d tail records replayed", got, want)
	}
	got, err := readItemCounters(s2, items)
	if err != nil {
		t.Fatal(err)
	}
	checkItemCounters(t, got, referenceCounters(actions, items))
}

// TestOpenRefusesStatefulStoreWithoutRestore: the consumer group's
// offsets die with the process, so a plain reopen over an ldb store that
// holds state would replay the whole log into it and double every
// additive counter. Open refuses, and names the two ways out; emptying
// StoreDir is one, and rebuilds the same state from the log.
func TestOpenRefusesStatefulStoreWithoutRestore(t *testing.T) {
	const items = 10
	actions := recoveryStream(6, 1000, 100, items)
	cfg := SystemConfig{DataDir: t.TempDir(), StoreEngine: "ldb"}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	publishAll(t, s, actions)
	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(cfg)
	if err == nil {
		s2.Close()
		t.Fatal("Open over an ldb store that holds state, without RestoreFromCheckpoint, succeeded")
	}
	for _, want := range []string{"RestoreFromCheckpoint", "-restore", "StoreDir"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Open error %q does not name %s", err, want)
		}
	}

	if err := os.RemoveAll(filepath.Join(cfg.DataDir, "tdstore")); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if err := s3.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, err := readItemCounters(s3, items)
	if err != nil {
		t.Fatal(err)
	}
	checkItemCounters(t, got, referenceCounters(actions, items))
}

// TestOpenAfterKillBeforeFirstFlushRebuildsFromLog: LDB keeps no
// write-ahead log, so a process killed before any instance flushed its
// memtable leaves empty store directories. A copy of DataDir taken while
// the System runs is the disk a kill -9 leaves behind; Open on it, with
// no restore, accepts the empty store, and the spout rebuilds it from the
// action log from offset 0.
func TestOpenAfterKillBeforeFirstFlushRebuildsFromLog(t *testing.T) {
	const items = 10
	actions := recoveryStream(7, 300, 50, items)
	dataDir := t.TempDir()
	s, err := Open(SystemConfig{DataDir: dataDir, StoreEngine: "ldb"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	publishAll(t, s, actions)
	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	killed := t.TempDir()
	copyTree(t, dataDir, killed)
	if tables, _ := filepath.Glob(filepath.Join(killed, "tdstore", "inst-*", "sst-*.tbl")); len(tables) > 0 {
		t.Fatalf("an instance flushed before the copy (%d tables): the stream is too large for this test", len(tables))
	}

	s2, err := Open(SystemConfig{DataDir: killed, StoreEngine: "ldb"})
	if err != nil {
		t.Fatalf("Open on the disk of a process killed before its first flush: %v", err)
	}
	defer s2.Close()
	if err := s2.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, err := readItemCounters(s2, items)
	if err != nil {
		t.Fatal(err)
	}
	checkItemCounters(t, got, referenceCounters(actions, items))
}

// copyTree copies the directories and regular files under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The kill -9 soak's shape: the head is applied and checkpointed, the
// tail is in the log when the process dies part way through consuming it.
const (
	soakSeed, soakUsers, soakItems = 42, 300, 48
	soakHead, soakTail             = 4000, 8000
	// soakRoleEnv makes the test binary a soak child: "run" or "restore".
	soakRoleEnv = "TENCENTREC_SOAK_ROLE"
	soakDirEnv  = "TENCENTREC_SOAK_DIR"
)

// soakResult is what the restored child reports.
type soakResult struct {
	Replayed int64        `json:"replayed"`
	Counters itemCounters `json:"counters"`
}

// TestSystemKill9RestoreSoak proves process-level recovery on the
// recommender itself (DESIGN.md §18). The test binary re-executes itself
// twice. The first child opens a default System on the ldb engine,
// publishes the head, checkpoints, publishes the tail, holds the spout
// part way through it and reports its progress from inside the hold; the
// parent SIGKILLs it there. The second child reopens
// with RestoreFromCheckpoint and drains: it must replay exactly the tail,
// and end with every item's counters equal to the sequential reference
// over the whole stream.
func TestSystemKill9RestoreSoak(t *testing.T) {
	if role := os.Getenv(soakRoleEnv); role != "" {
		soakChild(t, role, os.Getenv(soakDirEnv))
		return
	}
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	child := func(role string) *exec.Cmd {
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestSystemKill9RestoreSoak$", "-test.count=1")
		cmd.Env = append(os.Environ(), soakRoleEnv+"="+role, soakDirEnv+"="+dir)
		return cmd
	}

	run := child("run")
	var runErr bytes.Buffer
	run.Stderr = &runErr
	out, err := run.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Start(); err != nil {
		t.Fatal(err)
	}
	checkpointed, killed, consumed := false, false, int64(-1)
	var lines []string
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		lines = append(lines, line)
		switch {
		case line == "soak checkpointed":
			checkpointed = true
		case strings.HasPrefix(line, "soak consumed "):
			if consumed, err = strconv.ParseInt(strings.TrimPrefix(line, "soak consumed "), 10, 64); err != nil {
				t.Fatalf("child progress %q: %v", line, err)
			}
			if checkpointed && consumed > 0 && !killed {
				if err := run.Process.Kill(); err != nil {
					t.Fatal(err)
				}
				killed = true
			}
		}
	}
	err = run.Wait()
	ws, _ := run.ProcessState.Sys().(syscall.WaitStatus)
	if !killed || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("the first child was not killed -9 mid-tail (wait: %v)\nstdout:\n%s\nstderr:\n%s",
			err, strings.Join(lines, "\n"), runErr.String())
	}
	// The progress read to EOF is the last the child reported before it
	// died: the kill landed after the checkpoint and before the spout had
	// consumed the whole tail.
	if consumed <= 0 || consumed >= soakTail {
		t.Fatalf("the kill landed with %d of %d tail records consumed, want part of the tail", consumed, soakTail)
	}
	t.Logf("killed -9 with %d of %d tail records consumed", consumed, soakTail)

	restore := child("restore")
	if b, err := restore.CombinedOutput(); err != nil {
		t.Fatalf("restored child: %v\n%s", err, b)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res soakResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Replayed != soakTail {
		t.Errorf("restored child replayed %d records, want exactly the %d-record tail", res.Replayed, soakTail)
	}
	actions := recoveryStream(soakSeed, soakHead+soakTail, soakUsers, soakItems)
	checkItemCounters(t, res.Counters, referenceCounters(actions, soakItems))
}

// soakChild is the body of a soak child process.
func soakChild(t *testing.T, role, dir string) {
	actions := recoveryStream(soakSeed, soakHead+soakTail, soakUsers, soakItems)
	cfg := SystemConfig{DataDir: dir, StoreEngine: "ldb", RestoreFromCheckpoint: role == "restore"}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if role == "restore" {
		defer s.Close()
		if err := s.Drain(3 * time.Minute); err != nil {
			t.Fatal(err)
		}
		counters, err := readItemCounters(s, soakItems)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(soakResult{Replayed: s.ReplayedTailRecords(), Counters: counters})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "result.json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	publishAll(t, s, actions[:soakHead])
	if err := s.Checkpoint(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	fmt.Println("soak checkpointed")
	// The first half of the tail goes into the log and the spout starts on
	// it. Once it has consumed part of it, the child holds it (Quiesce:
	// spouts parked, in-flight tuples drained, one tick round), publishes
	// the second half behind it, reports its progress from inside the hold
	// and waits there to be killed. So the kill lands with the whole tail
	// in the log and at most half of it consumed, by construction.
	tail := actions[soakHead:]
	for _, a := range tail[:soakTail/2] {
		if err := s.Publish(a); err != nil {
			t.Fatal(err)
		}
	}
	for s.ReplayedTailRecords() == soakHead {
		time.Sleep(100 * time.Microsecond)
	}
	err = s.running.Quiesce(func() error {
		for _, a := range tail[soakTail/2:] {
			if err := s.Publish(a); err != nil {
				return err
			}
		}
		fmt.Printf("soak consumed %d\n", s.ReplayedTailRecords()-soakHead)
		time.Sleep(time.Hour)
		return errors.New("the held child was not killed")
	})
	t.Fatal(err)
}
