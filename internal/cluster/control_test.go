package cluster

import (
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
)

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

	spec := `{"name": "reject", "workers": 2,
		"spouts": [{"name": "actions", "kind": "actions"}],
		"bolts": [{"name": "count", "kind": "count",
			"inputs": [{"source": "actions", "grouping": "field", "fields": ["nope"]}]}]}`
	resp, err := http.Post(sup.URL()+"/cluster/submit", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("submit = %s, want 400 (%s)", resp.Status, body)
	}
	if !strings.Contains(string(body), `groups on field "nope" absent from actions/default`) {
		t.Errorf("submit error = %q, want the stream builder's message", body)
	}
	st := clusterStatus(t, sup.URL())
	if workers, _ := st["workers"].([]interface{}); st["state"] != "idle" || len(workers) != 0 {
		t.Errorf("after the refused submit: state %v, workers %v; want idle and none", st["state"], st["workers"])
	}
	if logs, _ := filepath.Glob(filepath.Join(dir, "worker-*.log")); len(logs) != 0 {
		t.Errorf("worker processes were started: %v", logs)
	}
}

// TestClusterRebalanceRejectsNonInteger: the cluster plane reads a
// rebalance request with the decoder the single-process server uses, so a
// parallelism that is not an integer is a bad request — not parallelism 0
// addressed to whatever happens next.
func TestClusterRebalanceRejectsNonInteger(t *testing.T) {
	sup, err := NewSupervisor(SupervisorConfig{Cluster: "rebal-400", Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	for _, tc := range []struct {
		query, body string
		want        int
	}{
		{"?component=c&parallelism=abc", "", http.StatusBadRequest},
		{"", "{not json", http.StatusBadRequest},
		{"?component=c&parallelism=2", "", http.StatusNotFound}, // well-formed, nothing submitted
	} {
		resp, err := http.Post(sup.URL()+"/control/rebalance"+tc.query, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("rebalance%s %q = %s, want %d", tc.query, tc.body, resp.Status, tc.want)
		}
	}
}
