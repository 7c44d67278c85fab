package cluster

import (
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"
)

// Supervisor is the cluster master: it plans the component→worker
// placement of a Spec, spawns one OS process per worker (a re-execution
// of its own binary with TR_CLUSTER_WORKER=1), and keeps the cluster
// alive — a crashed worker is respawned with exponential backoff.
//
// A worker's whole conversation with the supervisor is its process:
//
//   - fd 3 is the worker slot's data listener, opened once by the
//     supervisor, so a restarted worker keeps its address and peers dial
//     a fixed address table;
//   - stdin carries the assignment (id, spec, plan, address table), and
//     its end means "drain and exit", which a supervisor that dies also
//     sends;
//   - exit status 0 from the source worker means its spouts are
//     exhausted and every lineage resolved, which starts the drain
//     cascade; any other exit the supervisor did not ask for is a crash.
type Supervisor struct {
	cfg SupervisorConfig

	mu         sync.Mutex
	spec       *Spec
	plan       *Plan
	addrs      []string
	workers    []*workerProc
	completed  bool
	closing    bool
	completedc chan struct{}
}

// SupervisorConfig configures a Supervisor.
type SupervisorConfig struct {
	Cluster string
	// Dir receives worker log files (and is handed to workers untouched —
	// component params carry their own paths). Defaults to a temp dir.
	Dir string
}

// assignment is what the supervisor writes to a worker's stdin.
type assignment struct {
	Cluster string
	ID      int
	Spec    *Spec
	Plan    *Plan
	// Addrs is every worker slot's data address, by worker id.
	Addrs []string
}

// workerProc tracks one worker slot across process incarnations.
type workerProc struct {
	id int
	ln *os.File // the slot's data listener, inherited by every incarnation

	// All fields below are guarded by the Supervisor mutex.
	state      string // "running", "backoff", "exited"
	cmd        *exec.Cmd
	stdin      io.WriteCloser
	restarts   int
	expectExit bool
}

// restartBackoff is the respawn delay after the n-th consecutive crash.
func restartBackoff(restarts int) time.Duration {
	d := 100 * time.Millisecond << uint(restarts-1)
	if restarts <= 0 {
		d = 100 * time.Millisecond
	}
	if d > 3200*time.Millisecond {
		d = 3200 * time.Millisecond
	}
	return d
}

// NewSupervisor prepares a supervisor. The cluster spawns no workers
// until Submit.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.Cluster == "" {
		cfg.Cluster = "tencentrec"
	}
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "trcluster-")
		if err != nil {
			return nil, err
		}
		cfg.Dir = dir
	} else if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	return &Supervisor{cfg: cfg, completedc: make(chan struct{})}, nil
}

// Completed returns a channel closed once the submitted topology drains
// to completion (source exhausted and every worker drained).
func (s *Supervisor) Completed() <-chan struct{} { return s.completedc }

// Submit plans the spec, opens one data listener per worker slot and
// spawns the worker processes.
func (s *Supervisor) Submit(spec *Spec) error {
	plan, err := PlanSpec(spec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return fmt.Errorf("cluster: supervisor is shutting down")
	}
	if s.spec != nil {
		return fmt.Errorf("cluster: a topology is already running")
	}
	s.spec, s.plan = spec, plan
	s.workers = make([]*workerProc, plan.Workers)
	s.addrs = make([]string, plan.Workers)
	for i := range s.workers {
		s.workers[i] = &workerProc{id: i}
	}
	for i, w := range s.workers {
		if w.ln, s.addrs[i], err = listen(); err != nil {
			break
		}
	}
	if err == nil {
		for _, w := range s.workers {
			if err = s.spawnLocked(w); err != nil {
				break
			}
		}
	}
	if err != nil {
		// Roll back so a corrected resubmit is possible.
		for _, w := range s.workers {
			w.expectExit = true
			if w.cmd != nil {
				_ = w.cmd.Process.Kill()
			}
			if w.ln != nil {
				w.ln.Close()
			}
		}
		s.spec, s.plan, s.workers, s.addrs = nil, nil, nil, nil
	}
	return err
}

// listen opens a worker slot's data listener and returns it as the file
// every incarnation inherits, with its address.
func listen() (*os.File, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	defer ln.Close() // the file is a duplicate that keeps the socket open
	f, err := ln.(*net.TCPListener).File()
	return f, ln.Addr().String(), err
}

// spawnLocked starts one worker process and hands it its assignment.
// Caller holds s.mu.
func (s *Supervisor) spawnLocked(w *workerProc) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("cluster: cannot resolve own binary for workers: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), envWorkerFlag+"=1")
	cmd.ExtraFiles = []*os.File{w.ln}
	logf, err := os.OpenFile(filepath.Join(s.cfg.Dir, fmt.Sprintf("worker-%d.log", w.id)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd.Stdout, cmd.Stderr = logf, logf
	stdin, err := cmd.StdinPipe()
	if err != nil {
		logf.Close()
		return err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("cluster: spawn worker %d: %w", w.id, err)
	}
	// A worker that dies before reading this is reaped and respawned by
	// its monitor like any other crash.
	_ = gob.NewEncoder(stdin).Encode(assignment{
		Cluster: s.cfg.Cluster, ID: w.id, Spec: s.spec, Plan: s.plan, Addrs: s.addrs,
	})
	w.cmd, w.stdin, w.state = cmd, stdin, "running"
	go s.monitor(w, cmd, logf)
	return nil
}

// monitor reaps a worker process. An exit the supervisor asked for
// (drain, shutdown) ends the slot; exit 0 from the source worker is its
// exhaustion report and starts the drain cascade; anything else is a
// crash, respawned after a backoff that doubles per consecutive restart
// so a crash-looping worker cannot spin the host.
func (s *Supervisor) monitor(w *workerProc, cmd *exec.Cmd, logf *os.File) {
	err := cmd.Wait()
	logf.Close()
	s.mu.Lock()
	if w.cmd != cmd { // superseded by a newer incarnation
		s.mu.Unlock()
		return
	}
	switch {
	case w.expectExit || s.closing:
		w.state = "exited"
		s.mu.Unlock()
		return
	case err == nil && w.id == 0:
		w.expectExit, w.state = true, "exited"
		s.mu.Unlock()
		go s.drainCascade(w.id)
		return
	}
	w.restarts++
	w.state = "backoff"
	backoff := restartBackoff(w.restarts)
	s.mu.Unlock()

	time.Sleep(backoff)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing || w.expectExit || w.cmd != cmd {
		w.state = "exited"
		return
	}
	if err := s.spawnLocked(w); err != nil {
		fmt.Fprintf(os.Stderr, "cluster: respawn worker %d: %v\n", w.id, err)
		w.state = "exited"
	}
}

// Kill sends SIGKILL to worker id's current process without marking the
// exit expected, so the supervisor restarts it: the chaos hook.
func (s *Supervisor) Kill(id int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.workers) || s.workers[id].cmd == nil {
		return fmt.Errorf("cluster: no worker %d", id)
	}
	return s.workers[id].cmd.Process.Kill()
}

// Restarts reports how many times worker id has been respawned after a
// crash.
func (s *Supervisor) Restarts(id int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.workers) {
		return 0
	}
	return s.workers[id].restarts
}

// drainCascade shuts workers down upstream-first. Each worker is drained
// only after every upstream worker's process has exited, so its ingress
// connections have delivered everything before it stops.
func (s *Supervisor) drainCascade(exhausted int) {
	s.mu.Lock()
	order := append([]int(nil), s.plan.DrainOrder...)
	s.mu.Unlock()
	for _, id := range order {
		if id != exhausted {
			s.mu.Lock()
			wp := s.workers[id]
			wp.expectExit = true
			if wp.state == "running" {
				wp.stdin.Close()
			}
			s.mu.Unlock()
		}
		s.waitExit(id, 30*time.Second)
	}
	s.complete()
}

// complete closes the Completed channel, once.
func (s *Supervisor) complete() {
	s.mu.Lock()
	if !s.completed {
		s.completed = true
		close(s.completedc)
	}
	s.mu.Unlock()
}

// waitExit polls until the worker's process is reaped.
func (s *Supervisor) waitExit(id int, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		done := s.workers[id].state == "exited"
		s.mu.Unlock()
		if done {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Close tears the cluster down: every worker is killed (no restarts) and
// the data listeners close.
func (s *Supervisor) Close() {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return
	}
	s.closing = true
	var procs []*os.Process
	for _, wp := range s.workers {
		wp.expectExit = true
		if wp.cmd != nil && wp.state != "exited" {
			procs = append(procs, wp.cmd.Process)
		}
	}
	s.mu.Unlock()
	for _, p := range procs {
		_ = p.Kill()
	}
	for i, wp := range s.workers {
		s.waitExit(i, 5*time.Second)
		wp.ln.Close()
	}
	s.complete()
}
