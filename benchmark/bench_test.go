package main

import (
	"bytes"
	"os"
	"testing"
	"time"

	"tencentrec/internal/topology"
)

// TestQuiescenceIsCompletion holds the detector to its claim on a small
// dense fixture: once it fires, nothing moves for a full second. It also
// records the finding that motivated it: System.Drain returns while
// tuples are still in flight.
func TestQuiescenceIsCompletion(t *testing.T) {
	w, _ := findWorkload(wIngestDense)
	in := generate(w, 7, 6)
	r, err := openRig(w, t.TempDir(), -1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	// The detector treats ticked and un-ticked components differently and
	// must know every one.
	known := map[string]bool{topology.UnitSpout: true}
	for _, u := range untickedUnits {
		known[u] = true
	}
	for _, u := range tickedUnits {
		known[u] = true
	}
	for name := range r.sys.Metrics().Components {
		if !known[name] {
			t.Errorf("component %s is in neither untickedUnits nor tickedUnits", name)
		}
	}
	start := time.Now()
	for _, a := range append(in.warmup, in.bulk...) {
		r.publish(a)
	}
	type drained struct {
		after       time.Duration
		transferred int64
		err         error
	}
	drainDone := make(chan drained, 1)
	go func() {
		err := r.sys.Drain(time.Minute)
		drainDone <- drained{time.Since(start), r.sys.Metrics().Transferred, err}
	}()
	q, err := r.q.wait(r.published.Load(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	quiet := r.sys.Metrics()
	time.Sleep(time.Second)
	after := r.sys.Metrics()
	if after.Transferred != quiet.Transferred {
		t.Errorf("transferred moved %d → %d in the second after quiescence", quiet.Transferred, after.Transferred)
	}
	for name, c := range after.Components {
		if c.Emitted != quiet.Components[name].Emitted {
			t.Errorf("%s emitted %d more tuples after quiescence", name, c.Emitted-quiet.Components[name].Emitted)
		}
	}
	d := <-drainDone
	if d.err != nil {
		t.Fatalf("Drain: %v", d.err)
	}
	t.Logf("quiescent after %v with %d tuples transferred; Drain returned after %v with %d transferred",
		q.at.Sub(start).Round(time.Millisecond), quiet.Transferred, d.after.Round(time.Millisecond), d.transferred)
	if d.transferred < quiet.Transferred {
		t.Logf("finding: Drain returned with %d tuple deliveries still to come", quiet.Transferred-d.transferred)
	}
}

// exactCounts ingests a workload's warm-up and bulk slices at smoke size
// and returns the layer counts that depend only on the inputs.
func exactCounts(t *testing.T, w workload, seed int64) (digest [32]byte, counts map[string]float64) {
	t.Helper()
	const seconds = 1
	in := generate(w, seed, seconds)
	r, err := openRig(w, t.TempDir(), -1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if _, err := r.bulk(in.warmup, nil); err != nil {
		t.Fatal(err)
	}
	s0 := takeSnapshot(r.sys)
	b, err := r.bulk(in.bulk, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := takeSnapshot(r.sys)
	L := map[string]float64{}
	ingestLayers(L, s0, s1, float64(b.n), b.elapsed)
	counts = map[string]float64{
		"topology.pairs_per_action": pairsPerAction(L["topology.fanout_per_action"], in),
	}
	for _, name := range []string{
		"topology.fanout_per_action",
		"topology.pretreatment.executed_per_action",
		"topology.userHistory.executed_per_action",
	} {
		counts[name] = L[name]
	}
	return in.digest(), counts
}

// TestDeterminism: the same seed gives byte-identical inputs and
// identical exact counts on the ingest workloads; another seed gives
// other inputs.
func TestDeterminism(t *testing.T) {
	for _, name := range []string{wIngestSparse, wIngestDense} {
		w, _ := findWorkload(name)
		d1, c1 := exactCounts(t, w, 11)
		d2, c2 := exactCounts(t, w, 11)
		if d1 != d2 {
			t.Errorf("%s: seed 11 generated different inputs twice", name)
		}
		for k, v := range c1 {
			if c2[k] != v {
				t.Errorf("%s: %s = %v then %v at one seed", name, k, v, c2[k])
			}
			if v <= 0 {
				t.Errorf("%s: %s = %v, want a positive count", name, k, v)
			}
		}
		if d3 := generate(w, 12, 1).digest(); d3 == d1 {
			t.Errorf("%s: seeds 11 and 12 generated the same inputs", name)
		}
	}
}

// TestSmoke runs every workload for two seconds with the checks on, and
// one of them traced, so the harness keeps compiling and passing its own
// output checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	out := t.TempDir()
	for _, w := range workloads {
		rep, err := measure(runOpts{w: w, seed: 3, seconds: 2, outDir: out})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct {
			t.Errorf("%s: %d of %d operations failed their checks", w.name, rep.Failed, rep.Attempted)
		}
		for _, d := range endToEnd {
			if rep.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, d.Name, rep.Metrics[d.Name].Value)
			}
		}
	}
	w, _ := findWorkload(wServeMix)
	rep, err := measure(runOpts{w: w, seed: 3, seconds: 2, traced: true, outDir: out})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Errorf("traced %s: %d of %d operations failed their checks", w.name, rep.Failed, rep.Attempted)
	}
	if got, want := len(rep.Metrics), len(perLayer()); got != want {
		t.Errorf("traced run reported %d per-layer metrics, want %d", got, want)
	}
	if hot, cold := rep.Metrics["serving.hot_cache_hit_share"].Value, rep.Metrics["serving.cold_cache_hit_share"].Value; hot <= cold {
		t.Errorf("hot phase cache hit share %.2f, cold %.2f: the phases do not separate the cache", hot, cold)
	}
	if _, err := os.Stat(out + "/" + w.name + ".trace.json"); err != nil {
		t.Errorf("traced run left no trace file: %v", err)
	}
}

// TestManifest holds the committed BENCHMARK.json to the metric tables.
func TestManifest(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifest()) {
		t.Error("BENCHMARK.json differs from the tables in metrics.go; regenerate it with `bash benchmark/run.sh -manifest > BENCHMARK.json`")
	}
	if n := len(perLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
