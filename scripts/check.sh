#!/bin/sh
# check.sh - repo hygiene gate: vet, formatting, and race tests on the
# state-bearing packages. Run via `make check` or directly.
set -eu

cd "$(dirname "$0")/.."

# run_tests PATTERN ARG... runs go test -run PATTERN ARG..., after checking
# that every alternative of PATTERN names a test, fuzz target or example
# in the packages among ARG (the arguments that begin with "."): go test
# passes silently when a -run list matches nothing, so a renamed or deleted
# test would drop out of its step unseen. PATTERN is a|b|c or ^(a|b|c)$
# with no nested groups; in the anchored form each alternative is anchored.
run_tests() {
	pattern=$1
	shift
	pkgs=
	for arg in "$@"; do
		case $arg in .*) pkgs="$pkgs $arg" ;; esac
	done
	names=$(go test -list . $pkgs | grep -E '^(Test|Fuzz|Example)')
	case $pattern in
	'^('*')$')
		alts=${pattern#'^('}
		alts=${alts%')$'}
		pre='^('
		post=')$'
		;;
	*)
		alts=$pattern
		pre=
		post=
		;;
	esac
	for alt in $(echo "$alts" | tr '|' ' '); do
		if ! echo "$names" | grep -qE "$pre$alt$post"; then
			echo "check: -run alternative $alt matches no test in$pkgs" >&2
			exit 1
		fi
	done
	go test -run "$pattern" "$@"
}

echo "== go vet ./..."
go vet ./...

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== the documents name tests, benchmarks and DESIGN.md sections that exist; every exported name under internal/ has a shipped caller or is a listed test hook"
run_tests '^(TestDocsNameCodeThatExists|TestInternalAPIHasAShippedCaller)$' .

echo "== go test -race elastic parallelism and delivery (rebalance of a keyed stream, a spout stopped by a full queue, rebalance stress, write-behind flush hook and its failed flush, ordered tick round, idle rounds, keyed runs, one tuple per delivery, a failed Prepare's counted drops, spouts opened before any polls)"
run_tests 'TestRebalance|TestSpoutStopsAtQueueCapacity|TestQueueDepthKnobValidation|TestStressFieldsGroupingUnderRebalance|TestBatchFlusher|TestTickRound|TestTickEmissions|TestRun|TestDelivery|TestFailedPrepareDrainsAndCountsDrops|TestSpoutsOpenBeforeAnyPolls' -race ./internal/stream/

# One delivery path: the spout commits after every poll, a rebalance
# flushes the retiring tasks, and checkpoint replay recovers across
# processes, the process being the failure unit. These two soaks, with the
# combiner on as every System runs it, are the proof that rebalances,
# faults armed on broker partitions (Broker.FailPartition) and a cold
# restart lose nothing.
echo "== go test -race -count=5 the chaos soak and the cold-restart soak"
run_tests '^(TestChaosSoakLosesNothing|TestColdRestartChaosSoak)$' -race -count=5 ./internal/topology/

echo "== go test -race serving tier (TTL, negative cache and its drop on write, a read that straddles Invalidate, a failed store read, LRU, mixed load)"
run_tests 'TestCache|TestNegativeCache|TestInvalidate|TestInvalidateDuringRead|TestStoreErrorCachesNothing|TestLRU|TestGetBatch|TestConcurrentMixedLoad' -race ./internal/serving/

echo "== go test -race ldb crash recovery (crash-reopen conformance against the model at the last flush, no file touched until a flush, cold restart), reads of mapped tables racing Compact, Close and Crash, a batch read back whole after a reopen, the sorted table index and its merge, the MDB table against a map and its stripes spread within one instance, write-behind result lists and their thresholds, one list write per round, pairCount store ops and job list against its reference, failed flush reads, first-round scores, a result slate read before Invalidate left uncached"
run_tests 'TestLDBCrashReopenResumeConformance|TestWritesTouchNoFileUntilAFlush|TestReadsRacingCloseAndCompaction|TestClusterCheckpointRestore|TestColdRestartChaosSoak|TestEnginePutBatch|TestDurableEnginePutBatchReopen|TestTable|TestCompactStreamsNewestVersion|TestMemoryMatchesMapReference|TestStripesSpreadKeysOfOneInstance|TestWriteBehind|TestThresholds|TestResultListsLandOncePerRound|TestPairCount|TestItemCountFlushReadError|TestFirstTickRound|TestResultCacheDropsSlateReadBeforeInvalidate' \
	-race ./internal/tdstore/engine/... ./internal/tdstore/ ./internal/topology/

# The test skips itself unless exactly one tick round had run when it read
# the lists; a guard that skips every time gates nothing.
echo "== first tick round scores exactly: at least four of five -race runs assert rather than skip"
first_out=$(run_tests '^TestFirstTickRoundScoresExactly$' -race -count=5 -v ./internal/topology/ 2>&1) || {
	echo "$first_out"
	exit 1
}
echo "$first_out" | grep -E '^(--- |ok)'
if [ "$(echo "$first_out" | grep -c '^--- PASS: TestFirstTickRoundScoresExactly')" -lt 4 ]; then
	echo "check: TestFirstTickRoundScoresExactly skipped in more than one of five -race runs" >&2
	exit 1
fi

echo "== go test -race the sparse offset index (every read against a decode of the segment files, the index a reopen recovers, corruption on the way to a record, readers sharing segment hints beside an appender)"
run_tests 'TestSparseIndex|TestReadFrom' -race ./internal/tdaccess/

echo "== go test -race (stream, topology incl. chaos soak, tdaccess, tdstore incl. the store stress of writers and readers with no lock above an engine, serving, obsv)"
go test -race ./internal/stream/... ./internal/topology/... ./internal/tdaccess/... ./internal/tdstore/... ./internal/serving/ ./internal/obsv/

echo "== go test -race the recommender killed -9 mid-tail and restored from its checkpoint, the wire codec"
run_tests '^TestSystemKill9RestoreSoak$' -race .
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

# A Put allocates the client's KV of the value (the key's length, the key
# and the value in one string) and nothing else: the instance's engine
# keeps that one KV. A 64-key batch allocates its 64 KVs (a BatchGet, the
# engine's 64 copy-outs) and at most 5 more however many instances it
# spans: the items, the client's KV slice or a BatchGet's two result
# slices (it measured 2 and 3). The runs go out one after another on the
# caller's goroutine, so the send does not escape. With a copy per
# engine, a map of groups and a slice grown per group they were 2 to 3, 93
# and 227.
echo "== store write and batch paths: one copy per value, a fixed handful per batch"
store_out=$(go test -run=NONE -bench='BenchmarkStoreParallel(Put|BatchGet|BatchPut)$' -benchmem -benchtime=5000x ./internal/tdstore/)
echo "$store_out"
if echo "$store_out" | awk '/^BenchmarkStoreParallel/ { max = ($1 ~ /^BenchmarkStoreParallelPut/) ? 1 : 64 + 5; for (i = 1; i <= NF; i++) if ($(i+1) == "allocs/op" && $i > max) exit 1; seen++ } END { if (seen != 3) exit 1 }'; then
	:
else
	echo "check: a Put allocates beyond its one value copy, or a 64-key batch beyond its copies and 5 more" >&2
	exit 1
fi

# What the store keeps per key after a collection: 36,000 puts of
# 175-byte values into 3 servers, one copy per key. It measured 223.0
# B/key: one 192-byte KV and one MDB index entry of 17-byte slots at a
# little over half full. With a slave copy per instance, its index entry
# beside the host's, it was 256.0; with a map[string][]byte per stripe as
# well, the key string and the value copy apart, it was 369.7. The bound
# is the measured value plus a tenth.
echo "== what the store keeps per key stays at or under 245 bytes"
resident_out=$(go test -run=NONE -bench='BenchmarkStoreResidentBytes$' -benchtime=1x ./internal/tdstore/)
echo "$resident_out"
if echo "$resident_out" | awk '/^BenchmarkStoreResidentBytes/ { for (i = 1; i <= NF; i++) if ($(i+1) == "B/key" && $i > 245) exit 1; seen = 1 } END { if (!seen) exit 1 }'; then
	:
else
	echo "check: the store keeps more than 245 bytes per key" >&2
	exit 1
fi

# What a partition log keeps in memory per MiB it has written: a million
# 47-byte records (the action frame of the benchmark) in 4 MiB segments.
# It measured 2,559 B/MiB: one 8-byte entry per 4 KiB of file and one per
# segment, at the capacity append grew the slices to. With the byte
# position of every record it was 220,962. The bound is the measured value
# plus a tenth.
echo "== a partition log's index stays at or under 2815 bytes per MiB of log"
index_out=$(go test -run=NONE -bench='BenchmarkLogResidentIndex$' -benchtime=1x ./internal/tdaccess/)
echo "$index_out"
if echo "$index_out" | awk '/^BenchmarkLogResidentIndex/ { for (i = 1; i <= NF; i++) if ($(i+1) == "B/MiB" && $i > 2815) exit 1; seen = 1 } END { if (!seen) exit 1 }'; then
	:
else
	echo "check: a partition log keeps more than 2815 bytes of index per MiB of log" >&2
	exit 1
fi

# A publish copies its record into the active segment's mapping under the
# log's lock, the only lock it takes: no system call and no allocation.
# With a write(2) per record through a bufio.Writer it also allocated
# nothing, and cost 939-1,129 ns/op against 203-238 through the mapping.
# Both cases are held: one partition, and keyless sends from every P to 4.
echo "== a publish allocates nothing"
send_out=$(go test -run=NONE -bench='BenchmarkProducerSend(Parallel)?$' -benchmem -benchtime=100000x ./internal/tdaccess/)
echo "$send_out"
if echo "$send_out" | awk '/^BenchmarkProducerSend/ { for (i = 1; i <= NF; i++) if ($(i+1) == "allocs/op" && $i != 0) exit 1; seen++ } END { if (seen != 2) exit 1 }'; then
	:
else
	echo "check: a publish allocates" >&2
	exit 1
fi

echo "== statecodec fuzz smoke (decoders + delta frames)"
for target in FuzzDecodeHistory FuzzDecodeList FuzzDecodeProfile \
	FuzzHistoryDelta FuzzListDelta FuzzDecodeFloat; do
	go test -run=NONE -fuzz="^${target}\$" -fuzztime=5s ./internal/statecodec/
done

echo "== windowed counter codec fuzz smoke (in-place AddEncoded/SumEncoded against the decoded Counter)"
go test -run=NONE -fuzz='^FuzzCounterEncoded$' -fuzztime=5s ./internal/window/

# Both start from whole files, and go test spends its default minute
# minimizing each input that widens coverage before it fuzzes on; bound
# that so five seconds are spent on new inputs.
echo "== file-reader fuzz smoke (checkpoint manifest, LDB table beside a stray wal.log, topology description as Fig. 7 XML)"
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
# the copy-out of the table's mapping: the Bloom filter and the search
# over the table's sorted keys allocate nothing. With a heap block cache
# in front of the table, its first pass over the 5,000 keys allocated
# five times a read.
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

# What a stored history spends per entry: 1,000 entries of the 5-byte ids
# i1000 to i1999 in one frame. An entry is its id's one-byte length, the
# id, the rating and the timestamp: 1+k+16 bytes for a k-byte id, 22 here.
# With the session that version 1 entries also held it was 1+k+24.
echo "== a stored history entry of a k-byte id takes at most 1+k+16 bytes"
entry_out=$(go test -run=NONE -bench='BenchmarkHistoryEntryBytes$' -benchtime=1x ./internal/statecodec/)
echo "$entry_out"
if echo "$entry_out" | awk '/^BenchmarkHistoryEntryBytes/ { b = -1; k = -1; for (i = 1; i <= NF; i++) { if ($(i+1) == "B/entry") b = $i; if ($(i+1) == "id_bytes") k = $i }; if (b < 0 || k < 0 || b > 1 + k + 16) exit 1; seen = 1 } END { if (!seen) exit 1 }'; then
	:
else
	echo "check: a stored history entry takes more than 1+k+16 bytes for a k-byte id" >&2
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
# item counts, the one string of the interval's pc: keys): 661 in all,
# 0.16 per pair, of which about 40 are the first flush's key copies in the
# task cache and the store, spread over the 200 flushes. With a boxed score per pair and
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

# What a pairCount task keeps per pair it has seen, over the 100,000 pairs
# between a task fed 50,000 and one fed 150,000: a 16-byte record and its
# 8-byte index slot, with the slack of both tables. It measured 33.2 B/pair.
# With a 48-byte entry in a map[string]*pairState it was 105.6, and the
# pair's pc: key string besides, which the store shared. The bound is the
# measured value plus a tenth.
echo "== what pairCount keeps per pair it has seen stays at or under 36 bytes"
pairs_out=$(go test -run=NONE -bench='BenchmarkPairCountResidentBytes$' -benchtime=1x ./internal/topology/)
echo "$pairs_out"
if echo "$pairs_out" | awk '/^BenchmarkPairCountResidentBytes/ { for (i = 1; i <= NF; i++) if ($(i+1) == "B/pair" && $i > 36) exit 1; seen = 1 } END { if (!seen) exit 1 }'; then
	:
else
	echo "check: pairCount keeps more than 36 bytes per pair it has seen" >&2
	exit 1
fi

echo "== Go lines, total and non-test (scripts/loc.sh), and the documents' bytes"
sh scripts/loc.sh | tail -n 1
wc -c DESIGN.md EXPERIMENTS.md README.md

echo "check: OK"
