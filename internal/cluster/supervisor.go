package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tencentrec/internal/stream"
)

// Supervisor is the cluster master: it accepts a topology Spec, plans
// the component→worker placement, spawns one OS process per worker (a
// re-execution of the configured binary with TR_CLUSTER_WORKER=1), and
// keeps the cluster alive — a crashed worker is respawned with
// exponential backoff and re-registers with a fresh data address, which
// peers pick up through /cluster/plan when their connections fail.
//
// Control plane (HTTP):
//
//	POST /cluster/submit          submit a Spec (JSON body)
//	GET  /cluster/status          cluster + per-worker state
//	GET  /cluster/plan            live peer addresses (polled by workers)
//	POST /cluster/register        worker → supervisor registration
//	POST /cluster/exhausted       source worker reports spouts done
//	POST /cluster/kill?worker=N   SIGKILL a worker (it will be restarted)
//	POST /cluster/stop            tear the cluster down
//	POST /control/rebalance       proxied to the worker hosting the component
//	GET  /cluster/metrics         one-shot aggregated worker metrics
//	GET  /cluster/metrics/stream  the same, as live SSE events
type Supervisor struct {
	cfg SupervisorConfig
	ln  net.Listener
	srv *http.Server
	hc  *http.Client

	mu         sync.Mutex
	spec       *Spec
	plan       *Plan
	version    int
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
	// Addr is the control listen address; default 127.0.0.1:0.
	Addr string
	// WorkerArgv is the command used to start workers; defaults to
	// re-executing the current binary, whose main (or TestMain) must call
	// MaybeWorker first.
	WorkerArgv []string
	// ExtraEnv is appended to the workers' environment.
	ExtraEnv []string
}

// workerProc tracks one worker slot across process incarnations.
type workerProc struct {
	id int

	// All fields below are guarded by the Supervisor mutex.
	state       string // "starting", "running", "backoff", "exited"
	cmd         *exec.Cmd
	pid         int
	dataAddr    string
	httpAddr    string
	incarnation uint64
	restarts    int
	expectExit  bool
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

// NewSupervisor starts the control-plane listener. The cluster spawns no
// workers until Submit.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.Cluster == "" {
		cfg.Cluster = "tencentrec"
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
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
	if len(cfg.WorkerArgv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("cluster: cannot resolve own binary for workers: %w", err)
		}
		cfg.WorkerArgv = []string{exe}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Supervisor{
		cfg:        cfg,
		ln:         ln,
		hc:         &http.Client{Timeout: 30 * time.Second},
		completedc: make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/submit", s.handleSubmit)
	mux.HandleFunc("GET /cluster/status", s.handleStatus)
	mux.HandleFunc("GET /cluster/plan", s.handlePlan)
	mux.HandleFunc("POST /cluster/register", s.handleRegister)
	mux.HandleFunc("POST /cluster/exhausted", s.handleExhausted)
	mux.HandleFunc("POST /cluster/kill", s.handleKill)
	mux.HandleFunc("POST /cluster/stop", func(w http.ResponseWriter, _ *http.Request) {
		go s.Close()
		fmt.Fprintln(w, "stopping")
	})
	mux.HandleFunc("POST /control/rebalance", s.handleRebalance)
	mux.HandleFunc("GET /cluster/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.aggregate())
	})
	mux.HandleFunc("GET /cluster/metrics/stream", s.handleMetricsStream)
	s.srv = &http.Server{Handler: mux}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// URL returns the control-plane base URL.
func (s *Supervisor) URL() string { return "http://" + s.ln.Addr().String() }

// Completed returns a channel closed once the submitted topology drains
// to completion (source exhausted and every worker drained).
func (s *Supervisor) Completed() <-chan struct{} { return s.completedc }

// Submit plans the spec and spawns the worker processes.
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
	for i := range s.workers {
		s.workers[i] = &workerProc{id: i, state: "starting"}
	}
	for _, w := range s.workers {
		if err := s.spawnLocked(w); err != nil {
			// Roll back so a corrected resubmit is possible.
			for _, started := range s.workers {
				started.expectExit = true
				if started.cmd != nil {
					_ = started.cmd.Process.Kill()
				}
			}
			s.spec, s.plan, s.workers = nil, nil, nil
			return err
		}
	}
	return nil
}

// spawnLocked starts one worker process. Caller holds s.mu.
func (s *Supervisor) spawnLocked(w *workerProc) error {
	argv := s.cfg.WorkerArgv
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), s.cfg.ExtraEnv...)
	cmd.Env = append(cmd.Env,
		envWorkerFlag+"=1",
		envSupervisor+"="+s.URL(),
		envWorkerID+"="+strconv.Itoa(w.id),
		envCluster+"="+s.cfg.Cluster,
	)
	logf, err := os.OpenFile(filepath.Join(s.cfg.Dir, fmt.Sprintf("worker-%d.log", w.id)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("cluster: spawn worker %d: %w", w.id, err)
	}
	w.cmd, w.pid, w.state = cmd, cmd.Process.Pid, "starting"
	go s.monitor(w, cmd, logf)
	return nil
}

// monitor reaps a worker process and respawns it unless the exit was
// expected (drain, kill during shutdown). Backoff doubles per consecutive
// restart so a crash-looping worker cannot spin the host.
func (s *Supervisor) monitor(w *workerProc, cmd *exec.Cmd, logf *os.File) {
	_ = cmd.Wait()
	logf.Close()
	s.mu.Lock()
	if w.cmd != cmd { // superseded by a newer incarnation
		s.mu.Unlock()
		return
	}
	if w.expectExit || s.closing {
		w.state = "exited"
		s.mu.Unlock()
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

func (s *Supervisor) handleSubmit(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	spec, err := ParseSpec(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.Submit(spec); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	s.mu.Lock()
	plan := s.plan
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(plan)
}

func (s *Supervisor) peersLocked() []planPeer {
	peers := make([]planPeer, 0, len(s.workers))
	for _, wp := range s.workers {
		peers = append(peers, planPeer{
			ID: wp.id, State: wp.state, DataAddr: wp.dataAddr, HTTPAddr: wp.httpAddr,
			Incarnation: wp.incarnation, PID: wp.pid, Restarts: wp.restarts,
		})
	}
	return peers
}

func (s *Supervisor) handleStatus(w http.ResponseWriter, _ *http.Request) {
	spoutKinds, boltKinds := kindNames()
	s.mu.Lock()
	st := map[string]interface{}{
		"cluster":     s.cfg.Cluster,
		"state":       "idle",
		"workers":     s.peersLocked(),
		"spout_kinds": spoutKinds,
		"bolt_kinds":  boltKinds,
	}
	if s.spec != nil {
		st["topology"] = s.spec.Name
		st["assign"] = s.plan.Assign
		st["state"] = "running"
	}
	if s.completed {
		st["state"] = "completed"
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}

func (s *Supervisor) handlePlan(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	resp := planResp{Version: s.version, Peers: s.peersLocked()}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

func (s *Supervisor) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	if s.spec == nil || req.Worker < 0 || req.Worker >= len(s.workers) {
		s.mu.Unlock()
		http.Error(w, "no such worker slot", http.StatusNotFound)
		return
	}
	wp := s.workers[req.Worker]
	wp.dataAddr, wp.httpAddr = req.DataAddr, req.HTTPAddr
	wp.pid = req.PID
	wp.incarnation++
	wp.state = "running"
	s.version++
	resp := registerResp{Incarnation: wp.incarnation, Spec: s.spec, Plan: s.plan}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// handleExhausted: the source worker's spouts finished and every lineage
// resolved; it exits on its own right after this call. Cascade the drain
// downstream in plan order.
func (s *Supervisor) handleExhausted(w http.ResponseWriter, r *http.Request) {
	id, _ := strconv.Atoi(r.URL.Query().Get("worker"))
	s.mu.Lock()
	if id < 0 || id >= len(s.workers) {
		s.mu.Unlock()
		http.Error(w, "no such worker", http.StatusNotFound)
		return
	}
	s.workers[id].expectExit = true
	s.mu.Unlock()
	go s.drainCascade(id)
	fmt.Fprintln(w, "ok")
}

func (s *Supervisor) handleKill(w http.ResponseWriter, r *http.Request) {
	id, _ := strconv.Atoi(r.URL.Query().Get("worker"))
	s.mu.Lock()
	var proc *os.Process
	if id >= 0 && id < len(s.workers) && s.workers[id].cmd != nil {
		proc = s.workers[id].cmd.Process
	}
	s.mu.Unlock()
	if proc == nil {
		http.Error(w, "no such worker", http.StatusNotFound)
		return
	}
	// SIGKILL, and expectExit stays false: the monitor restarts the
	// worker. This is the chaos hook the kill soak leans on.
	_ = proc.Kill()
	fmt.Fprintf(w, "killed worker %d (pid %d)\n", id, proc.Pid)
}

// handleRebalance proxies a rebalance request to the worker hosting the
// component, preserving the in-process endpoint's contract (404 for an
// unknown component, 400 for a bad request).
func (s *Supervisor) handleRebalance(w http.ResponseWriter, r *http.Request) {
	req, ok := stream.DecodeRebalance(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	var target string
	ok = false
	if s.plan != nil {
		var id int
		if id, ok = s.plan.Assign[req.Component]; ok {
			target = s.workers[id].httpAddr
		}
	}
	s.mu.Unlock()
	if !ok {
		http.Error(w, "unknown component "+req.Component, http.StatusNotFound)
		return
	}
	if target == "" {
		http.Error(w, "worker not running", http.StatusServiceUnavailable)
		return
	}
	payload, _ := json.Marshal(req) // two plain fields: cannot fail
	resp, err := s.hc.Post("http://"+target+"/control/rebalance", "application/json", bytes.NewReader(payload))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// drainCascade shuts workers down upstream-first. Each worker is drained
// only after every upstream worker's process has exited, so its ingress
// connections have delivered everything before it stops.
func (s *Supervisor) drainCascade(exhausted int) {
	s.mu.Lock()
	order := append([]int(nil), s.plan.DrainOrder...)
	s.mu.Unlock()
	for _, id := range order {
		if id == exhausted {
			s.waitExit(id, 30*time.Second)
			continue
		}
		s.mu.Lock()
		wp := s.workers[id]
		wp.expectExit = true
		target := wp.httpAddr
		idle := wp.state == "exited" || target == ""
		s.mu.Unlock()
		if idle {
			continue
		}
		resp, err := s.hc.Post("http://"+target+"/drain", "", nil)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		s.waitExit(id, 30*time.Second)
	}
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

// metricSeries mirrors the obsv JSON exposition row: counters/gauges
// carry a value, histograms an opaque summary object passed through.
type metricSeries struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  *int64            `json:"value,omitempty"`
	Hist   json.RawMessage   `json:"histogram,omitempty"`
}

// aggregate merges every running worker's /debug/vars: counter and gauge
// series are summed per (family, labels) across workers; histograms keep
// per-worker rows tagged with a "worker" label.
func (s *Supervisor) aggregate() map[string]interface{} {
	s.mu.Lock()
	type tgt struct {
		id   int
		addr string
	}
	var targets []tgt
	for _, wp := range s.workers {
		if wp.state == "running" && wp.httpAddr != "" {
			targets = append(targets, tgt{wp.id, wp.httpAddr})
		}
	}
	completed := s.completed
	s.mu.Unlock()

	sums := make(map[string]map[string]*metricSeries) // family → label key → row
	hists := make(map[string][]metricSeries)
	polled := 0
	cl := &http.Client{Timeout: 2 * time.Second}
	for _, t := range targets {
		resp, err := cl.Get("http://" + t.addr + "/debug/vars")
		if err != nil {
			continue
		}
		var vars map[string][]metricSeries
		err = json.NewDecoder(resp.Body).Decode(&vars)
		resp.Body.Close()
		if err != nil {
			continue
		}
		polled++
		for family, rows := range vars {
			for i := range rows {
				row := rows[i]
				if row.Hist != nil {
					if row.Labels == nil {
						row.Labels = map[string]string{}
					}
					row.Labels["worker"] = strconv.Itoa(t.id)
					hists[family] = append(hists[family], row)
					continue
				}
				if row.Value == nil {
					continue
				}
				key := labelKey(row.Labels)
				fam := sums[family]
				if fam == nil {
					fam = make(map[string]*metricSeries)
					sums[family] = fam
				}
				if agg := fam[key]; agg != nil {
					*agg.Value += *row.Value
				} else {
					v := *row.Value
					fam[key] = &metricSeries{Labels: row.Labels, Value: &v}
				}
			}
		}
	}

	families := make(map[string][]metricSeries, len(sums)+len(hists))
	for family, fam := range sums {
		keys := make([]string, 0, len(fam))
		for k := range fam {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		rows := make([]metricSeries, 0, len(fam))
		for _, k := range keys {
			rows = append(rows, *fam[k])
		}
		families[family] = rows
	}
	for family, rows := range hists {
		families[family] = append(families[family], rows...)
	}
	return map[string]interface{}{
		"workers_polled": polled,
		"completed":      completed,
		"families":       families,
	}
}

func labelKey(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte(';')
	}
	return b.String()
}

// handleMetricsStream serves the aggregate as server-sent events, one
// snapshot every interval (default 500ms), with a terminal "completed"
// event once the topology drains.
func (s *Supervisor) handleMetricsStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	interval := 500 * time.Millisecond
	if ms, err := strconv.Atoi(r.URL.Query().Get("interval_ms")); err == nil && ms > 0 {
		interval = time.Duration(ms) * time.Millisecond
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	emit := func(event string) {
		data, _ := json.Marshal(s.aggregate())
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
	}
	emit("metrics")
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.completedc:
			emit("completed")
			return
		case <-tick.C:
			emit("metrics")
		}
	}
}

// Close tears the cluster down: every worker is killed (no restarts) and
// the control listener shuts.
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
	for i := range s.workers {
		s.waitExit(i, 5*time.Second)
	}
	_ = s.srv.Close()
	s.mu.Lock()
	if !s.completed {
		s.completed = true
		close(s.completedc)
	}
	s.mu.Unlock()
}
