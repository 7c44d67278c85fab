package cluster

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tencentrec/internal/stream"
)

func soakSpec() *Spec {
	return &Spec{
		Name: "t", Workers: 3,
		Spouts: []ComponentSpec{{Name: "src", Kind: "actions", Parallelism: 1}},
		Bolts: []ComponentSpec{
			{Name: "mid", Kind: "relay", Inputs: []InputSpec{{Source: "src"}}},
			{Name: "sink", Kind: "count", Inputs: []InputSpec{{Source: "mid", Grouping: "field", Fields: []string{"item"}}}},
		},
	}
}

func TestPlanSpecDeterministic(t *testing.T) {
	a, err := PlanSpec(soakSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanSpec(soakSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("planning is not deterministic:\n%+v\n%+v", a, b)
	}
	if a.Assign["src"] != 0 {
		t.Errorf("spout on worker %d, want 0", a.Assign["src"])
	}
	if a.Assign["mid"] == 0 || a.Assign["sink"] == 0 {
		t.Errorf("bolts landed on the spout worker: %v", a.Assign)
	}
	if a.Assign["mid"] == a.Assign["sink"] {
		t.Errorf("bolts not spread: %v", a.Assign)
	}
}

func TestPlanDrainOrderUpstreamFirst(t *testing.T) {
	s := soakSpec()
	s.Assign = map[string]int{"mid": 1, "sink": 2}
	p, err := PlanSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2}
	if !reflect.DeepEqual(p.DrainOrder, want) {
		t.Errorf("drain order = %v, want %v", p.DrainOrder, want)
	}
	// Reverse the pin: the drain order must follow the dataflow, not ids.
	s = soakSpec()
	s.Assign = map[string]int{"mid": 2, "sink": 1}
	p, err = PlanSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	want = []int{0, 2, 1}
	if !reflect.DeepEqual(p.DrainOrder, want) {
		t.Errorf("drain order = %v, want %v", p.DrainOrder, want)
	}
}

func TestPlanWorkersClamped(t *testing.T) {
	s := soakSpec()
	s.Workers = 50
	p, err := PlanSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if p.Workers != 3 { // 1 + 2 bolts
		t.Errorf("workers = %d, want clamp to 3", p.Workers)
	}
}

func TestSpecValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no name", func(s *Spec) { s.Name = "" }, "needs a name"},
		{"no spouts", func(s *Spec) { s.Spouts = nil }, "no spouts"},
		{"unknown kind", func(s *Spec) { s.Bolts[0].Kind = "nope" }, "unknown class"},
		{"dup name", func(s *Spec) { s.Bolts[1].Name = "mid" }, "duplicate component"},
		{"no inputs", func(s *Spec) { s.Bolts[0].Inputs = nil }, "has no inputs"},
		{"unknown source", func(s *Spec) { s.Bolts[0].Inputs[0].Source = "ghost" }, "unknown component"},
		{"bad grouping", func(s *Spec) { s.Bolts[0].Inputs[0].Grouping = "sideways" }, "unknown grouping"},
		{"fieldless fields", func(s *Spec) { s.Bolts[1].Inputs[0].Fields = nil }, "needs fields"},
		{"spout off zero", func(s *Spec) { s.Assign = map[string]int{"src": 1} }, "worker 0"},
		{"assign unknown", func(s *Spec) { s.Assign = map[string]int{"ghost": 1} }, "unknown component"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := soakSpec()
			tc.mut(s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestSubmitRejectsAbsentGroupingField: a field grouping on a field the
// source stream does not declare is the stream builder's to refuse, and
// the supervisor asks it at submit time. While the spec validator had its
// own copy of the graph rules without this one, the spec was accepted,
// tb.Build failed inside the hosting worker, and the supervisor respawned
// that worker for ever.
func TestSubmitRejectsAbsentGroupingField(t *testing.T) {
	dir := t.TempDir()
	sup, err := NewSupervisor(SupervisorConfig{Cluster: "reject", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	err = sup.Submit(&Spec{
		Name: "reject", Workers: 2,
		Spouts: []ComponentSpec{{Name: "actions", Kind: "actions"}},
		Bolts: []ComponentSpec{{Name: "count", Kind: "count",
			Inputs: []InputSpec{{Source: "actions", Grouping: "field", Fields: []string{"nope"}}}}},
	})
	if err == nil || !strings.Contains(err.Error(), `groups on field "nope" absent from actions/default`) {
		t.Errorf("Submit = %v, want the stream builder's message", err)
	}
	if logs, _ := filepath.Glob(filepath.Join(dir, "worker-*.log")); len(logs) != 0 {
		t.Errorf("worker processes were started: %v", logs)
	}
}

// TestOutputFieldsFromKind: the outputs a worker gives an ingress proxy
// are the built graph's — the kind's declaration, or the spec's Outputs
// in its place.
func TestOutputFieldsFromKind(t *testing.T) {
	s := soakSpec()
	s.Bolts[1].Outputs = map[string]stream.Fields{"side": {"item"}}
	topo, err := s.build()
	if err != nil {
		t.Fatal(err)
	}
	g := topo.Graph()
	want := map[string]stream.Fields{"default": {"user", "item", "weight", "msgid"}}
	if got := g.Spouts[0].Outputs; !reflect.DeepEqual(got, want) {
		t.Errorf("outputs of src = %v, want %v", got, want)
	}
	if got := g.Bolts[1].Outputs; !reflect.DeepEqual(got, s.Bolts[1].Outputs) {
		t.Errorf("outputs of sink = %v, want the spec's %v", got, s.Bolts[1].Outputs)
	}
	// With Outputs on mid it no longer declares "default", and sink's
	// subscription is refused with the whole graph in view.
	s.Bolts[0].Outputs = map[string]stream.Fields{"side": {"item"}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "undeclared stream") {
		t.Errorf("Validate = %v, want an undeclared-stream error", err)
	}
}
