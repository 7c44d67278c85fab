#!/bin/sh
# check.sh - repo hygiene gate: vet, formatting, and race tests on the
# state-bearing packages. Run via `make check` or directly.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== the documents name tests, benchmarks and DESIGN.md sections that exist"
go test -run '^TestDocsNameCodeThatExists$' .

echo "== go test -race elastic parallelism and delivery (rebalance of a keyed stream, a spout stopped by a full queue, restart stress, write-behind flush hook and its failed flush, ordered tick round, idle rounds, keyed runs, one tuple per delivery, a failed re-Prepare's counted drops)"
go test -race -run 'TestRebalance|TestSpoutStopsAtQueueCapacity|TestQueueDepthKnobValidation|TestStressFieldsGroupingUnderRestarts|TestBatchFlusher|TestTickRound|TestTickEmissions|TestRun|TestDelivery|TestFailedRePrepareDrainsAndCountsDrops' ./internal/stream/

# One delivery path: the spout commits after every poll, a restarted task
# keeps its queue, and checkpoint replay recovers across processes. These
# two soaks are the proof that restarts, rebalances and faults lose nothing.
echo "== go test -race -count=5 the chaos soak and the cold-restart soak"
go test -race -count=5 -run '^(TestChaosSoakLosesNothing|TestColdRestartChaosSoak)$' ./internal/topology/

echo "== go test -race serving tier (TTL, negative cache and its drop on write, a read that straddles Invalidate, a failed store read, LRU, mixed load)"
go test -race -run 'TestCache|TestNegativeCache|TestInvalidate|TestInvalidateDuringRead|TestStoreErrorCachesNothing|TestLRU|TestGetBatch|TestConcurrentMixedLoad' ./internal/serving/

echo "== go test -race ldb crash recovery (torn WAL, failpoints, crash-reopen conformance, cold restart), a batch as one WAL append, the sorted table index and its merge, failed replica applies counted, replicas applying a drain in the host's order, write-behind result lists and their thresholds, one list write per round, pairCount store ops and job list against its reference, failed flush reads, first-round scores, a result slate read before Invalidate left uncached"
go test -race -run 'TestTornWAL|TestFailpoint|TestGroupCommit|TestLDBCrashReopenResumeConformance|TestClusterCheckpointRestore|TestColdRestartChaosSoak|TestPutBatch|TestEnginePutBatch|TestDurableEnginePutBatchReopen|TestTable|TestCompactStreamsNewestVersion|TestReplicaApplyErrorsCounted|TestReplicasApplyHostOrder|TestWriteBehind|TestThresholds|TestResultListsLandOncePerRound|TestPairCount|TestItemCountFlushReadError|TestFirstTickRound|TestResultCacheDropsSlateReadBeforeInvalidate' \
	./internal/tdstore/engine/... ./internal/tdstore/ ./internal/topology/

# The test skips itself unless exactly one tick round had run when it read
# the lists; a guard that skips every time gates nothing.
echo "== first tick round scores exactly: at least four of five -race runs assert rather than skip"
first_out=$(go test -race -count=5 -v -run '^TestFirstTickRoundScoresExactly$' ./internal/topology/ 2>&1) || {
	echo "$first_out"
	exit 1
}
echo "$first_out" | grep -E '^(--- |ok)'
if [ "$(echo "$first_out" | grep -c '^--- PASS: TestFirstTickRoundScoresExactly')" -lt 4 ]; then
	echo "check: TestFirstTickRoundScoresExactly skipped in more than one of five -race runs" >&2
	exit 1
fi

echo "== go test -race (stream, topology incl. chaos soak, tdaccess, tdstore, serving, obsv)"
go test -race ./internal/stream/... ./internal/topology/... ./internal/tdaccess/... ./internal/tdstore/... ./internal/serving/ ./internal/obsv/

echo "== go test -race the recommender killed -9 mid-tail and restored from its checkpoint, the wire codec"
go test -race -run '^TestSystemKill9RestoreSoak$' .
go test -race ./internal/cluster/

# internal/cluster is a codec, not a runtime: it opens no sockets, starts
# no processes and speaks no gob.
echo "== internal/cluster imports no net, os/exec or encoding/gob outside its tests"
if go list -f '{{join .Imports "\n"}}' ./internal/cluster/ | grep -E '^(net(/.*)?|os/exec|encoding/gob)$'; then
	echo "check: a non-test file in internal/cluster imports net, os/exec or encoding/gob" >&2
	exit 1
fi

# The benchmark is its own module (benchmark/go.mod): the root go vet and
# go test neither compile nor run it, and it measures the runtime above.
echo "== benchmark module: vet, tests, smoke run of all four workloads"
(cd benchmark && go vet ./... && go test ./...)
bash benchmark/run.sh -smoke

# A plain emit allocates its Values slice and nothing else, to one
# subscriber or to two: each delivery's tuple comes from the pool.
# A 20-row run allocates its own slices and nothing else, however many rows
# it holds: the emitter's rows, values and boxed run (3), and for a split
# over 4 tasks the parts' rows and values and a boxed run per part (6 more).
# The run ceilings leave room for each part's pooled tuple missing the free
# list when the emitter runs ahead of the drainers (one more per part); an
# allocation per row would cross either.
echo "== transport benchmarks (smoke), an emit allocates its Values, a run only its own slices"
run_out=$(go test -run=NONE -bench='BenchmarkEmitRoute|BenchmarkHashValues|BenchmarkEmitRun' -benchmem -benchtime=2000x ./internal/stream/)
echo "$run_out"
if echo "$run_out" | awk '/^BenchmarkEmitR(oute|un)\// { max = ($1 ~ /^BenchmarkEmitRoute/) ? 1 : ($1 ~ /tasks=1/) ? 4 : 13; for (i = 1; i <= NF; i++) if ($(i+1) == "allocs/op" && $i > max) exit 1; seen++ } END { if (seen != 4) exit 1 }'; then
	:
else
	echo "check: an emit allocates beyond its Values, or a run beyond its own slices" >&2
	exit 1
fi

echo "== observability hot path stays allocation-free"
obsv_out=$(go test -run=NONE -bench='BenchmarkHistogramObserve$|BenchmarkCounterAdd$' \
	-benchmem -benchtime=10000x ./internal/obsv/)
echo "$obsv_out"
if echo "$obsv_out" | awk '/^Benchmark/ { for (i = 1; i <= NF; i++) if ($(i+1) == "allocs/op" && $i != 0) exit 1 }'; then
	:
else
	echo "check: observability hot path allocates" >&2
	exit 1
fi

echo "== store benchmarks (smoke)"
go test -run=NONE -bench='BenchmarkMDBConcurrent|BenchmarkStoreParallel' -benchtime=100x ./internal/tdstore/...

# A Put allocates the client's copy of the value and nothing else: the
# host's engine, the replication queue and every slave's engine keep that
# one copy. A 64-key batch allocates its 64 value copies (a BatchGet, the
# engine's 64 copy-outs) and at most 5 more however many servers it spans:
# the items, the groups, the client's value slice or a BatchGet's two
# result slices. The groups go out one after another on the caller's
# goroutine, so the send does not escape. With a copy per engine, a map of
# groups and a slice grown per group they were 2 to 3, 93 and 227.
echo "== store write and batch paths: one copy per value, a fixed handful per batch"
store_out=$(go test -run=NONE -bench='BenchmarkStoreParallel(Put|BatchGet|BatchPut)$' -benchmem -benchtime=5000x ./internal/tdstore/)
echo "$store_out"
if echo "$store_out" | awk '/^BenchmarkStoreParallel/ { max = ($1 ~ /^BenchmarkStoreParallelPut/) ? 1 : 64 + 5; for (i = 1; i <= NF; i++) if ($(i+1) == "allocs/op" && $i > max) exit 1; seen++ } END { if (seen != 3) exit 1 }'; then
	:
else
	echo "check: a Put allocates beyond its one value copy, or a 64-key batch beyond its copies and 5 more" >&2
	exit 1
fi

echo "== statecodec fuzz smoke (decoders + delta frames)"
for target in FuzzDecodeHistory FuzzDecodeList FuzzDecodeProfile \
	FuzzHistoryDelta FuzzListDelta FuzzDecodeFloat; do
	go test -run=NONE -fuzz="^${target}\$" -fuzztime=5s ./internal/statecodec/
done

# Both start from whole files, and go test spends its default minute
# minimizing each input that widens coverage before it fuzzes on; bound
# that so five seconds are spent on new inputs.
echo "== file-reader fuzz smoke (checkpoint manifest, LDB WAL and table, topology description as Fig. 7 XML)"
go test -run=NONE -fuzz='^FuzzLoadCheckpoint$' -fuzztime=5s -fuzzminimizetime=100x ./internal/tdstore/
go test -run=NONE -fuzz='^FuzzLDBOpen$' -fuzztime=5s -fuzzminimizetime=100x ./internal/tdstore/engine/ldb/
go test -run=NONE -fuzz='^FuzzDecodeXML$' -fuzztime=5s -fuzzminimizetime=100x ./internal/topology/

echo "== ingest edge fuzz smoke (action frame decoder, TDAccess segment recovery)"
go test -run=NONE -fuzz='^FuzzDecodeAction$' -fuzztime=5s ./internal/topology/
go test -run=NONE -fuzz='^FuzzRecoverSegment$' -fuzztime=5s ./internal/tdaccess/

echo "== cluster wire fuzz smoke (frame reader + batch decoder)"
go test -run=NONE -fuzz='^FuzzWireFrame$' -fuzztime=5s ./internal/cluster/

echo "== front-end fuzz smoke (list encoder against encoding/json, query reader against url.Values)"
go test -run=NONE -fuzz='^FuzzScoredJSON$' -fuzztime=5s .
go test -run=NONE -fuzz='^FuzzQueryValue$' -fuzztime=5s .

# An LDB read of a key in a table allocates the benchmark's key string and
# the copy-out: the Bloom filter and the search over the table's sorted
# keys allocate nothing. A million reads, so that the first pass over the
# 5,000 keys, whose block-cache misses allocate five times each, does not
# lift the average past 2.
echo "== an LDB table read allocates at most 2 times"
ldb_out=$(go test -run=NONE -bench='BenchmarkLDBGet$' -benchmem -benchtime=1000000x ./internal/tdstore/engine/ldb/)
echo "$ldb_out"
if echo "$ldb_out" | awk '/^Benchmark/ { for (i = 1; i <= NF; i++) if ($(i+1) == "allocs/op" && $i > 2) exit 1; seen = 1 } END { if (!seen) exit 1 }'; then
	:
else
	echo "check: an LDB table read allocates more than 2 times" >&2
	exit 1
fi

echo "== codec append paths and top-K insert stay allocation-free"
zero_out=$(go test -run=NONE \
	-bench='BenchmarkHistoryUpsertDelta$|BenchmarkListMergeDelta$|BenchmarkAddEncoded$|BenchmarkTopNHeap$' \
	-benchmem -benchtime=10000x ./internal/statecodec/ ./internal/window/ ./internal/core/)
echo "$zero_out"
if echo "$zero_out" | awk '/^Benchmark/ { for (i = 1; i <= NF; i++) if ($(i+1) == "allocs/op" && $i != 0) exit 1 }'; then
	:
else
	echo "check: codec delta path or top-K insert allocates" >&2
	exit 1
fi

# Publish -> Poll(256) -> DecodeAction is 5 allocations per action: the
# encoded frame, the message key, and the user, item and action strings
# (the poll's buffer and result slice are shared by its 256 messages).
# With JSON on this edge and one pread pair per message it was 14.
echo "== ingest edge stays at 5 allocs per action"
edge_out=$(go test -run=NONE -bench='BenchmarkIngestEdge$' -benchmem -benchtime=100000x .)
echo "$edge_out"
if echo "$edge_out" | awk '/^Benchmark/ { for (i = 1; i <= NF; i++) if ($(i+1) == "allocs/op" && $i > 5) exit 1 }'; then
	:
else
	echo "check: the ingest edge allocates more than 5 times per action" >&2
	exit 1
fi

# A query the serving tier's cache answers allocates its cache key and
# its Content-Type header value: the query is read in place and the list
# is appended into a pooled buffer. With url.Values and encoding/json on
# this path it was 11.
echo "== a cached query allocates at most 3 times"
hit_out=$(go test -run=NONE -bench='BenchmarkHTTPCachedQuery$' -benchmem -benchtime=20000x .)
echo "$hit_out"
if echo "$hit_out" | awk '/^Benchmark/ { for (i = 1; i <= NF; i++) if ($(i+1) == "allocs/op" && $i > 3) exit 1; seen = 1 } END { if (!seen) exit 1 }'; then
	:
else
	echo "check: a cached query allocates more than 3 times" >&2
	exit 1
fi

# What one flush of 4,096 combined pairs still allocates is chunks many
# pairs share (the sim run, batch slices, the store's copies of the 128
# item counts): 619 in all, 0.15 per pair. With a boxed score per pair and
# a value arena under the per-sim tuples it was 4,814; anything per pair or
# per sim row (a box, a key string, a map entry) would cross a quarter per
# pair again.
echo "== pairCount flush stays at or under a quarter alloc per pair, 2 sim rows per pair"
flush_out=$(go test -run=NONE -bench='BenchmarkPairCountFlush$' -benchmem -benchtime=200x .)
echo "$flush_out"
if echo "$flush_out" | awk '/^Benchmark/ { ok = 0; for (i = 1; i <= NF; i++) { if ($(i+1) == "allocs/op" && $i > 1024) exit 1; if ($(i+1) == "sims/pair" && $i == 2) ok = 1 }; if (!ok) exit 1; seen = 1 } END { if (!seen) exit 1 }'; then
	:
else
	echo "check: a pairCount flush allocates more than once per four pairs, or does not emit two sim rows per pair" >&2
	exit 1
fi

echo "== Go lines, total and non-test (scripts/loc.sh), and the documents' bytes"
sh scripts/loc.sh | tail -n 1
wc -c DESIGN.md EXPERIMENTS.md README.md

echo "check: OK"
