package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tencentrec/internal/obsv"
)

// Harness spans: recorded only in the traced run, from the benchmark's
// own files, around the public calls into the system. They stay in
// memory until the run ends and are written beside the system's own
// sampled tuple traces.

// spanEvery samples one harness span per this many publishes or
// queries; probes and phases are always recorded.
const spanEvery = 16

// span is one timed interval. Spans of one action, query or probe share
// (Kind, ID); Parent names the enclosing span (a phase, or "run").
type span struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	ID      int64  `json:"id"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

type spans struct {
	mu     sync.Mutex
	origin time.Time
	parent string
	list   []span
}

func newSpans() *spans { return &spans{origin: time.Now(), parent: "run"} }

func (s *spans) add(name, kind string, id int64, start, end time.Time) {
	s.mu.Lock()
	s.list = append(s.list, span{
		Name: name, Kind: kind, ID: id, Parent: s.parent,
		StartNS: int64(start.Sub(s.origin)), EndNS: int64(end.Sub(s.origin)),
	})
	s.mu.Unlock()
}

// phase records fn as a child of the run and makes it the parent of
// every span added while it runs. Phases run one at a time.
func (s *spans) phase(name string, fn func()) {
	if s == nil {
		fn()
		return
	}
	start := time.Now()
	s.mu.Lock()
	s.parent = name
	s.mu.Unlock()
	fn()
	s.mu.Lock()
	s.parent = "run"
	s.mu.Unlock()
	s.add(name, "phase", 0, start, time.Now())
}

// durations returns the length of every span called name, nanoseconds.
func (s *spans) durations(name string) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int64
	for _, sp := range s.list {
		if sp.Name == name {
			out = append(out, sp.EndNS-sp.StartNS)
		}
	}
	return out
}

// traceFile is what a traced run leaves in out/<workload>.trace.json.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Spans    []span               `json:"spans"`
	Tuples   []obsv.TraceSnapshot `json:"tuple_traces"`
}

func (s *spans) write(outDir, workload string, seed int64, tuples []obsv.TraceSnapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := os.Create(filepath.Join(outDir, workload+".trace.json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(traceFile{Workload: workload, Seed: seed, Spans: s.list, Tuples: tuples}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
