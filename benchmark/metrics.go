package main

import (
	"encoding/json"
	"sort"
)

// metricDef is one row of BENCHMARK.json. The tables below are the
// single source: `-manifest` prints BENCHMARK.json from them and a test
// holds the committed file to it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are what a user of the system sees, measured with tracing
// off. The driver wants every one of them from every workload, so each
// has one definition and every workload runs the phase that measures it.
// Bound is the share of the parent's median by which a later change may
// worsen the metric. All are 0.25, the most the driver accepts: ten-run
// spreads on the reference VM are 0.05-0.19 for everything that takes CPU
// time (README "Bounds"), and a bound must be at least the spread for the
// benchmark itself to be accepted.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_cpu_us_per_action", "us", "lower", 0.25},
	{"query_p50_us", "us", "lower", 0.25},
	{"freshness_p50_ms", "ms", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.25},
}

// perLayer lists every per-layer metric of the traced run by module.
func perLayer() []metricDef {
	defs := []metricDef{
		{Name: "tdaccess.publish_p50_us", Unit: "us", Better: "lower"},
		{Name: "tdaccess.consume_lag_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "tdaccess.backlog_end", Unit: "count", Better: "lower"},
		{Name: "tdaccess.probe_send_us", Unit: "us", Better: "lower"},
		{Name: "tdaccess.probe_poll_us", Unit: "us", Better: "lower"},

		{Name: "stream.transferred_per_action", Unit: "count", Better: "lower"},
		{Name: "stream.queue_wait_p50_us", Unit: "us", Better: "lower"},
		{Name: "stream.ticks_skipped", Unit: "count", Better: "lower"},
		{Name: "stream.dropped", Unit: "count", Better: "lower"},
		{Name: "stream.backpressure_paused_ms", Unit: "ms", Better: "lower"},
		{Name: "stream.probe_hop_ns", Unit: "ns", Better: "lower"},

		{Name: "topology.pairs_per_action", Unit: "count", Better: "lower"},
		{Name: "topology.fanout_per_action", Unit: "count", Better: "lower"},
		{Name: "topology.sequential_ratio", Unit: "ratio", Better: "higher"},
		{Name: "topology.similar_mismatch_share", Unit: "ratio", Better: "lower"},

		{Name: "core.sequential_actions_per_s", Unit: "1/s", Better: "higher"},
		{Name: "core.probe_recommend_us", Unit: "us", Better: "lower"},
		{Name: "core.probe_topn_us", Unit: "us", Better: "lower"},
		{Name: "combiner.probe_add_ns", Unit: "ns", Better: "lower"},
		{Name: "combiner.probe_flush_us_per_key", Unit: "us", Better: "lower"},
		{Name: "cache.probe_get_ns", Unit: "ns", Better: "lower"},
		{Name: "window.probe_add_encoded_ns", Unit: "ns", Better: "lower"},
		{Name: "statecodec.probe_history_upsert_ns", Unit: "ns", Better: "lower"},
		{Name: "statecodec.probe_list_merge_ns", Unit: "ns", Better: "lower"},
		{Name: "statecodec.probe_decode_history_ns", Unit: "ns", Better: "lower"},
		{Name: "statecodec.probe_decode_list_ns", Unit: "ns", Better: "lower"},

		{Name: "tdstore.retries", Unit: "count", Better: "lower"},
		{Name: "tdstore.route_refreshes", Unit: "count", Better: "lower"},
		{Name: "tdstore.probe_get_ns", Unit: "ns", Better: "lower"},
		{Name: "tdstore.probe_batch_put_us_per_key", Unit: "us", Better: "lower"},

		{Name: "ldb.wal_bytes_per_action", Unit: "B", Better: "lower"},
		{Name: "ldb.fsyncs", Unit: "count", Better: "lower"},
		{Name: "ldb.memtable_flushes", Unit: "count", Better: "lower"},
		{Name: "ldb.compactions", Unit: "count", Better: "lower"},
		{Name: "ldb.compaction_bytes", Unit: "B", Better: "lower"},
		{Name: "ldb.block_cache_hit_share", Unit: "ratio", Better: "higher"},
		{Name: "ldb.sstables_end", Unit: "count", Better: "lower"},
		{Name: "ldb.probe_put_ns", Unit: "ns", Better: "lower"},
		{Name: "ldb.probe_get_ns", Unit: "ns", Better: "lower"},

		{Name: "serving.cache_hit_share", Unit: "ratio", Better: "higher"},
		{Name: "serving.hot_cache_hit_share", Unit: "ratio", Better: "higher"},
		{Name: "serving.cold_cache_hit_share", Unit: "ratio", Better: "higher"},
		{Name: "serving.tail_cache_hit_share", Unit: "ratio", Better: "higher"},
		{Name: "serving.negative_hits", Unit: "count", Better: "higher"},
		{Name: "serving.coalesced_per_query", Unit: "ratio", Better: "higher"},
		{Name: "serving.store_gets_per_query", Unit: "ratio", Better: "lower"},
		{Name: "serving.batch_keys_per_batch", Unit: "ratio", Better: "higher"},
		{Name: "serving.hedges", Unit: "count", Better: "lower"},
		{Name: "serving.hedge_wins", Unit: "count", Better: "higher"},
		{Name: "serving.evictions", Unit: "count", Better: "lower"},

		{Name: "http.recommend_p50_us", Unit: "us", Better: "lower"},
		{Name: "http.similar_p50_us", Unit: "us", Better: "lower"},
		{Name: "http.hot_p50_us", Unit: "us", Better: "lower"},
		{Name: "http.handler_overhead_us", Unit: "us", Better: "lower"},
		{Name: "http.query_hot_per_s", Unit: "1/s", Better: "higher"},
		{Name: "http.query_hot_p50_us", Unit: "us", Better: "lower"},
		{Name: "http.query_hot_p99_us", Unit: "us", Better: "lower"},
		{Name: "http.query_cold_p50_us", Unit: "us", Better: "lower"},
		{Name: "http.query_cold_p99_us", Unit: "us", Better: "lower"},
		{Name: "http.similar_cold_p50_us", Unit: "us", Better: "lower"},
		{Name: "http.query_p99_us", Unit: "us", Better: "lower"},

		{Name: "obsv.prometheus_expose_us", Unit: "us", Better: "lower"},
		{Name: "obsv.trace_overhead_share", Unit: "ratio", Better: "lower"},

		{Name: "cluster.probe_wire_encode_us", Unit: "us", Better: "lower"},
		{Name: "cluster.probe_wire_decode_us", Unit: "us", Better: "lower"},
		{Name: "cluster.probe_loopback_us", Unit: "us", Better: "lower"},

		{Name: "system.freshness_p95_ms", Unit: "ms", Better: "lower"},
		{Name: "system.freshness_samples", Unit: "count", Better: "higher"},
		{Name: "system.query_samples", Unit: "count", Better: "higher"},
		{Name: "system.generator_late_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "system.gc_pause_total_ms", Unit: "ms", Better: "lower"},
		{Name: "system.peak_rss_mb", Unit: "MB", Better: "lower"},
		{Name: "system.bulk_actions_per_s", Unit: "1/s", Better: "higher"},
		{Name: "system.bulk_cores", Unit: "cores", Better: "lower"},
		{Name: "system.bulk_cpu_us_per_action", Unit: "us", Better: "lower"},
	}
	for _, u := range layerUnits {
		defs = append(defs,
			metricDef{Name: "topology." + u + ".executed_per_action", Unit: "count", Better: "lower"},
			metricDef{Name: "topology." + u + ".exec_avg_us", Unit: "us", Better: "lower"},
			metricDef{Name: "topology." + u + ".exec_p99_us", Unit: "us", Better: "lower"},
			metricDef{Name: "topology." + u + ".busy_share", Unit: "ratio", Better: "lower"},
		)
	}
	for _, op := range storeOps {
		defs = append(defs,
			metricDef{Name: "tdstore.ops_per_action." + op, Unit: "count", Better: "lower"},
			metricDef{Name: "tdstore.op_p50_us." + op, Unit: "us", Better: "lower"},
		)
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].Name < defs[j].Name })
	return defs
}

// runSeconds is BENCHMARK.json's run_seconds: the measured seconds of
// one run, split over the workload's phases.
const runSeconds = 20

// manifest renders BENCHMARK.json.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range perLayer() {
		m.PerLayer = append(m.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	return append(b, '\n')
}
