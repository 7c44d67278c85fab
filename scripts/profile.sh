#!/bin/sh
# profile.sh - capture CPU and allocation profiles of the six headline
# hot paths (the CF pipeline, the serving-tier read mix, the ingest
# edge: publish, poll, decode, one pairCount flush, one query the
# serving cache answers, and the sparse state path of a System whose task
# caches miss) into profiles/, plus a text top-25 of each so a diff
# review doesn't need pprof installed.
#
# Usage: scripts/profile.sh [iterations]
#   iterations: -benchtime=Nx for the pipeline bench (default 20000);
#               the serving mix runs at 2.5x that, the ingest edge at
#               25x, the 4096-pair flush at 1/40, the cached query
#               at 50x and the sparse state path at 2.5x, matching their
#               per-op cost.
set -eu

cd "$(dirname "$0")/.."

iters="${1:-20000}"
mkdir -p profiles

profile() {
	name="$1"
	bench="$2"
	bt="$3"
	echo "== $name ($bench, ${bt}x)"
	go test -run=NONE -bench="$bench" -benchtime="${bt}x" -count=1 \
		-cpuprofile="profiles/${name}.cpu.out" \
		-memprofile="profiles/${name}.mem.out" \
		-o "profiles/${name}.test" .
	go tool pprof -top -nodecount=25 "profiles/${name}.test" \
		"profiles/${name}.cpu.out" >"profiles/${name}.cpu.txt"
	go tool pprof -top -nodecount=25 -sample_index=alloc_space \
		"profiles/${name}.test" "profiles/${name}.mem.out" >"profiles/${name}.mem.txt"
	echo "   profiles/${name}.cpu.txt profiles/${name}.mem.txt"
}

profile pipeline 'BenchmarkPipelineThroughput$' "$iters"
profile serving_mix 'BenchmarkHTTPServingMix' "$((iters * 5 / 2))"
profile ingest_edge 'BenchmarkIngestEdge$' "$((iters * 25))"
profile paircount_flush 'BenchmarkPairCountFlush$' "$((iters / 40))"
profile cached_query 'BenchmarkHTTPCachedQuery$' "$((iters * 50))"
profile state_path_sparse 'BenchmarkStatePathSparse$' "$((iters * 5 / 2))"

echo "profile: wrote CPU/alloc profiles and top-25 summaries to profiles/"
