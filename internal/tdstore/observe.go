package tdstore

import (
	"tencentrec/internal/obsv"
	"tencentrec/internal/tdstore/engine"
)

// clientOp indexes the per-operation latency histograms of an
// instrumented client.
type clientOp int

const (
	clientGet clientOp = iota
	clientPut
	clientDelete
	clientBatchGet
	clientBatchPut
	numClientOps
)

// clientOpLabels are the op label values of tdstore_op_seconds.
var clientOpLabels = [numClientOps]string{
	"get", "put", "delete", "batch_get", "batch_put",
}

// clientInstruments holds the pre-resolved instruments of an
// instrumented Client. The struct is reached through one nil-checked
// pointer, so an uninstrumented client pays a predictable branch and an
// instrumented one never resolves a label on the hot path.
type clientInstruments struct {
	ops [numClientOps]*obsv.Histogram
}

// Instrument binds the client's operation latencies to the registry as
// tdstore_op_seconds{op} per-operation histograms (nanosecond
// observations exposed in seconds). Call it at setup, before the client
// is shared across goroutines.
func (cl *Client) Instrument(r *obsv.Registry) {
	ins := &clientInstruments{}
	for op, label := range clientOpLabels {
		ins.ops[op] = r.Histogram("tdstore_op_seconds", "TDStore client operation latency by op.", "op", label)
	}
	cl.ins = ins
}

// begin and observe bracket one public operation, as
// `defer cl.observe(op, cl.begin())`. An uninstrumented client reads no
// clock and records nothing.
func (cl *Client) begin() int64 {
	if cl.ins == nil {
		return 0
	}
	return obsv.Now()
}

func (cl *Client) observe(op clientOp, start int64) {
	if ins := cl.ins; ins != nil {
		ins.ops[op].Observe(obsv.Now() - start)
	}
}

// Instrument exposes the cluster's durable-engine internals as
// tdstore_engine_* series: WAL traffic and fsyncs, memtable flushes,
// compaction work, block-cache effectiveness, WAL replay volume and the
// live SSTable count, summed over every resident engine that reports
// stats (engine.StatsReporter; in-memory engines contribute nothing).
// Each engine's one-time recovery cost is recorded into the
// tdstore_engine_recovery_seconds histogram at call time, so call this
// after the cluster is built — and after a restore, so the replayed WAL
// counters reflect the recovery.
func (c *Cluster) Instrument(r *obsv.Registry) {
	sum := func(pick func(engine.Stats) int64) func() int64 {
		return func() int64 {
			var total int64
			c.engines(func(eng engine.Engine) {
				if sr, ok := eng.(engine.StatsReporter); ok {
					total += pick(sr.EngineStats())
				}
			})
			return total
		}
	}
	r.CounterFunc("tdstore_engine_wal_bytes_total", "Bytes appended to engine write-ahead logs.",
		sum(func(s engine.Stats) int64 { return s.WALBytes }))
	r.CounterFunc("tdstore_engine_fsyncs_total", "Engine fsync calls (WAL syncs and table syncs).",
		sum(func(s engine.Stats) int64 { return s.WALFsyncs }))
	r.CounterFunc("tdstore_engine_memtable_flushes_total", "Memtable flushes to SSTables.",
		sum(func(s engine.Stats) int64 { return s.MemtableFlushes }))
	r.CounterFunc("tdstore_engine_compactions_total", "Completed SSTable compactions.",
		sum(func(s engine.Stats) int64 { return s.Compactions }))
	r.CounterFunc("tdstore_engine_compaction_bytes_total", "Bytes read and written by compactions.",
		sum(func(s engine.Stats) int64 { return s.CompactionBytes }))
	r.CounterFunc("tdstore_engine_block_cache_hits_total", "SSTable reads served by the block cache.",
		sum(func(s engine.Stats) int64 { return s.BlockCacheHits }))
	r.CounterFunc("tdstore_engine_block_cache_misses_total", "SSTable reads that missed the block cache.",
		sum(func(s engine.Stats) int64 { return s.BlockCacheMisses }))
	r.CounterFunc("tdstore_engine_replayed_wal_records_total", "WAL records replayed into memtables at engine open.",
		sum(func(s engine.Stats) int64 { return s.ReplayedWALRecords }))
	r.CounterFunc("tdstore_engine_torn_wal_tails_total", "Torn WAL tails truncated at engine open.",
		sum(func(s engine.Stats) int64 { return s.TornWALTails }))
	r.GaugeFunc("tdstore_engine_sstables", "Live SSTables across all engines.",
		sum(func(s engine.Stats) int64 { return s.Tables }))
	rec := r.Histogram("tdstore_engine_recovery_seconds",
		"Per-engine open/recovery wall time (WAL replay included).")
	c.engines(func(eng engine.Engine) {
		if sr, ok := eng.(engine.StatsReporter); ok {
			rec.Observe(sr.EngineStats().RecoveryNanos)
		}
	})
}
