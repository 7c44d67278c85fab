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

echo "== go test -race elastic parallelism (rebalance, backpressure, overflow, restart stress, write-behind flush hook, ordered tick round)"
go test -race -run 'TestRebalance|TestBurst|TestBackpressure|TestOverflow|TestStressFieldsGroupingUnderRestarts|TestBatchFlusher|TestTickRound' ./internal/stream/

echo "== go test -race serving tier (singleflight, TTL, negative cache, hedged reads)"
go test -race -run 'TestSingleflight|TestCoalesced|TestCache|TestNegativeCache|TestInvalidate|TestLRU|TestGetBatch|TestHedge|TestConcurrentMixedLoad' ./internal/serving/

echo "== go test -race ldb crash recovery (torn WAL, failpoints, crash-reopen conformance, cold restart), write-behind result lists, pairCount store ops and job list against its reference, failed flush reads, first-round scores"
go test -race -run 'TestTornWAL|TestFailpoint|TestGroupCommit|TestLDBCrashReopenResumeConformance|TestClusterCheckpointRestore|TestColdRestartChaosSoak|TestWriteBehind|TestPairCount|TestItemCountFlushReadError|TestFirstTickRound' \
	./internal/tdstore/engine/... ./internal/tdstore/ ./internal/topology/

echo "== go test -race (stream, topology incl. chaos soak, tdaccess, tdstore, serving, obsv)"
go test -race ./internal/stream/... ./internal/topology/... ./internal/tdaccess/... ./internal/tdstore/... ./internal/serving/ ./internal/obsv/

echo "== go test -race cluster runtime (wire codecs, planning, supervisor + 2 real worker processes, kill -9 soak)"
go test -race ./internal/cluster/

# The benchmark is its own module (benchmark/go.mod): the root go vet and
# go test neither compile nor run it, and it measures the runtime above.
echo "== benchmark module: vet, tests, smoke run of all four workloads"
(cd benchmark && go vet ./... && go test ./...)
bash benchmark/run.sh -smoke

echo "== transport benchmarks (smoke)"
go test -run=NONE -bench='BenchmarkEmitRoute|BenchmarkHashValues' -benchtime=100x ./internal/stream/

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

echo "== statecodec fuzz smoke (decoders + delta frames)"
for target in FuzzDecodeHistory FuzzDecodeList FuzzDecodeProfile \
	FuzzHistoryDelta FuzzListDelta FuzzDecodeFloat; do
	go test -run=NONE -fuzz="^${target}\$" -fuzztime=5s ./internal/statecodec/
done

# Both start from whole files, and go test spends its default minute
# minimizing each input that widens coverage before it fuzzes on; bound
# that so five seconds are spent on new inputs.
echo "== file-reader fuzz smoke (checkpoint manifest, topology description as Fig. 7 XML and as cluster spec JSON)"
go test -run=NONE -fuzz='^FuzzLoadCheckpoint$' -fuzztime=5s -fuzzminimizetime=100x ./internal/tdstore/
go test -run=NONE -fuzz='^FuzzSpec$' -fuzztime=5s -fuzzminimizetime=100x ./internal/cluster/

echo "== ingest edge fuzz smoke (action frame decoder, TDAccess segment recovery)"
go test -run=NONE -fuzz='^FuzzDecodeAction$' -fuzztime=5s ./internal/topology/
go test -run=NONE -fuzz='^FuzzRecoverSegment$' -fuzztime=5s ./internal/tdaccess/

echo "== cluster wire fuzz smoke (frame reader + batch/ack/hello decoders)"
go test -run=NONE -fuzz='^FuzzWireFrame$' -fuzztime=5s ./internal/cluster/

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

# What one flush of 4,096 combined pairs still allocates is each pair's
# boxed score and chunks many pairs share (value arena, batch slices, the
# store's copies of the 128 item counts): 4,814 in all, 1.2 per pair. With
# the pair stage building its keys through the interner it was 17,108; a
# key string or a map entry per pair would cross two per pair again.
echo "== pairCount flush stays at or under 2 allocs per pair, 2 sim tuples per pair"
flush_out=$(go test -run=NONE -bench='BenchmarkPairCountFlush$' -benchmem -benchtime=200x .)
echo "$flush_out"
if echo "$flush_out" | awk '/^Benchmark/ { ok = 0; for (i = 1; i <= NF; i++) { if ($(i+1) == "allocs/op" && $i > 8192) exit 1; if ($(i+1) == "sims/pair" && $i == 2) ok = 1 }; if (!ok) exit 1; seen = 1 } END { if (!seen) exit 1 }'; then
	:
else
	echo "check: a pairCount flush allocates more than twice per pair, or does not emit two sim tuples per pair" >&2
	exit 1
fi

echo "== Go lines, total and non-test (scripts/loc.sh)"
sh scripts/loc.sh | tail -n 1

echo "check: OK"
