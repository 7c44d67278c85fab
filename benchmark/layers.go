package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"time"

	"tencentrec"
	"tencentrec/internal/obsv"
	"tencentrec/internal/stream"
	"tencentrec/internal/topology"
)

// Layers are measured from outside: the counters System.Metrics() and
// System.Registry() already export, sampled at phase boundaries and
// differenced, so a layer metric covers exactly one phase of one run.

// readRegistry parses Registry.WriteJSON into the sum of each counter or
// gauge family over its label values. Histograms are read from the live
// objects instead (see snapshot), because the dump carries only
// cumulative quantiles.
func readRegistry(reg *obsv.Registry) map[string]float64 {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return nil
	}
	var raw map[string][]struct {
		Value *int64 `json:"value"`
	}
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		return nil
	}
	out := make(map[string]float64, len(raw))
	for name, rows := range raw {
		for _, r := range rows {
			if r.Value != nil {
				out[name] += float64(*r.Value)
			}
		}
	}
	return out
}

// storeOps are the TDStore client operations reported per action.
var storeOps = []string{"get", "put", "incr", "batch_get", "batch_put"}

// storeReadOps are the operations a query can cause.
var storeReadOps = []string{"get", "batch_get", "replica_batch_get"}

// layerUnits are the topology components reported one by one.
var layerUnits = []string{
	topology.UnitPretreatment, topology.UnitUserHistory, topology.UnitItemCount,
	topology.UnitPairCount, topology.UnitResultStorage, topology.UnitDB,
}

// snapshot is every exported counter at one instant.
type snapshot struct {
	stream *stream.MetricsSnapshot
	reg    map[string]float64
	ops    map[string]obsv.HistogramSnapshot // tdstore_op_seconds by op
	lag    obsv.HistogramSnapshot            // tdaccess_consume_lag_seconds
}

func takeSnapshot(sys *tencentrec.System) snapshot {
	reg := sys.Registry()
	s := snapshot{
		stream: sys.Metrics(),
		reg:    readRegistry(reg),
		ops:    make(map[string]obsv.HistogramSnapshot),
		lag:    reg.Histogram("tdaccess_consume_lag_seconds", "").Snapshot(),
	}
	for _, op := range append(append([]string{"delete"}, storeOps...), "replica_batch_get") {
		s.ops[op] = reg.Histogram("tdstore_op_seconds", "", "op", op).Snapshot()
	}
	return s
}

// counter is a counter or gauge family's value, summed over its labels.
func (s snapshot) counter(name string) float64 { return s.reg[name] }

// histSub returns the observations b gained over a.
func histSub(b, a obsv.HistogramSnapshot) obsv.HistogramSnapshot {
	d := b
	d.Count -= a.Count
	d.Sum -= a.Sum
	for i := range d.Buckets {
		d.Buckets[i] -= a.Buckets[i]
	}
	return d
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ingestLayers derives the per-action layer metrics of the bulk phase, in
// which n actions went from publish to quiescence.
func ingestLayers(out map[string]float64, from, to snapshot, n float64, wall time.Duration) {
	out["stream.transferred_per_action"] = ratio(float64(to.stream.Transferred-from.stream.Transferred), n)
	var skipped, dropped int64
	for name, c := range to.stream.Components {
		skipped += c.TicksSkipped - from.stream.Components[name].TicksSkipped
		dropped += c.Dropped - from.stream.Components[name].Dropped
	}
	out["stream.ticks_skipped"] = float64(skipped)
	out["stream.dropped"] = float64(dropped)
	out["stream.backpressure_paused_ms"] = (to.counter("stream_backpressure_paused_nanos_total") -
		from.counter("stream_backpressure_paused_nanos_total")) / 1e6
	for _, u := range layerUnits {
		c1, c0 := to.stream.Components[u], from.stream.Components[u]
		executed := float64(c1.Executed - c0.Executed)
		// Execute latency is one histogram per component and every
		// Execute call observes it, so Executed is its count.
		busy := float64(c1.AvgExecute)*float64(c1.Executed) - float64(c0.AvgExecute)*float64(c0.Executed)
		out["topology."+u+".executed_per_action"] = ratio(executed, n)
		out["topology."+u+".exec_avg_us"] = ratio(busy, executed) / 1e3
		out["topology."+u+".exec_p99_us"] = float64(c1.P99Execute) / 1e3
		out["topology."+u+".busy_share"] = ratio(busy, float64(max(c1.Tasks, 1))*float64(wall))
	}
	uh1, uh0 := to.stream.Components[topology.UnitUserHistory], from.stream.Components[topology.UnitUserHistory]
	out["topology.fanout_per_action"] = ratio(float64(uh1.Emitted-uh0.Emitted), n)
	for _, op := range storeOps {
		d := histSub(to.ops[op], from.ops[op])
		out["tdstore.ops_per_action."+op] = ratio(float64(d.Count), n)
		out["tdstore.op_p50_us."+op] = float64(d.Quantile(0.5)) / 1e3
	}
	out["tdstore.retries"] = to.counter("tdstore_retries_total") - from.counter("tdstore_retries_total")
	out["tdstore.route_refreshes"] = to.counter("tdstore_route_refreshes_total") - from.counter("tdstore_route_refreshes_total")
	lag := histSub(to.lag, from.lag)
	out["tdaccess.consume_lag_p50_ms"] = float64(lag.Quantile(0.5)) / 1e6

	delta := func(name string) float64 { return to.counter(name) - from.counter(name) }
	out["ldb.wal_bytes_per_action"] = ratio(delta("tdstore_engine_wal_bytes_total"), n)
	out["ldb.fsyncs"] = delta("tdstore_engine_fsyncs_total")
	out["ldb.memtable_flushes"] = delta("tdstore_engine_memtable_flushes_total")
	out["ldb.compactions"] = delta("tdstore_engine_compactions_total")
	out["ldb.compaction_bytes"] = delta("tdstore_engine_compaction_bytes_total")
	hits, misses := delta("tdstore_engine_block_cache_hits_total"), delta("tdstore_engine_block_cache_misses_total")
	out["ldb.block_cache_hit_share"] = ratio(hits, hits+misses)
	out["ldb.sstables_end"] = to.counter("tdstore_engine_sstables")
}

// servingWindow is the serving tier's counters over one query phase.
type servingWindow struct {
	hitShare, negHits, coalesced, storeGets, batchKeys, batches, hedges, hedgeWins, evictions float64
}

func servingDelta(from, to snapshot) servingWindow {
	d := func(name string) float64 { return to.counter(name) - from.counter(name) }
	hits, misses := d("serving_cache_hits_total"), d("serving_cache_misses_total")
	var gets float64
	for _, op := range storeReadOps {
		gets += float64(histSub(to.ops[op], from.ops[op]).Count)
	}
	return servingWindow{
		hitShare:  ratio(hits, hits+misses),
		negHits:   d("serving_cache_negative_hits_total"),
		coalesced: d("serving_coalesced_total"),
		storeGets: gets,
		batchKeys: d("serving_batch_keys_total"),
		batches:   d("serving_batches_total"),
		hedges:    d("serving_hedges_total"),
		hedgeWins: d("serving_hedge_wins_total"),
		evictions: d("serving_cache_evictions_total"),
	}
}

// queueWaitP50 is the median Start−Enqueue over the system's sampled
// tuple waterfalls, microseconds.
func queueWaitP50(traces []obsv.TraceSnapshot) float64 {
	var waits []int64
	for _, t := range traces {
		for _, s := range t.Spans {
			waits = append(waits, s.Start-s.Enqueue)
		}
	}
	return median(waits) / 1e3
}

// busiest names the component with the largest busy share.
func busiest(layer map[string]float64) string {
	units := append([]string(nil), layerUnits...)
	sort.SliceStable(units, func(i, j int) bool {
		return layer["topology."+units[i]+".busy_share"] > layer["topology."+units[j]+".busy_share"]
	})
	return units[0]
}
