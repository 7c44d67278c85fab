#!/bin/sh
# loc.sh - Go line counts per package, total and non-test, for the
# "net-negative" criterion code-diet PRs quote. benchmark/ is its own
# module, measures the code rather than being part of it, and is left out.
#
# Usage: scripts/loc.sh [dir]   (default: the repository this script is in)
set -eu

cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*' \
	-not -path './.git/*' -exec wc -l {} + |
	awk '$2 != "total" {
		pkg = $2
		sub(/\/[^\/]*$/, "", pkg)
		all[pkg] += $1
		if ($2 !~ /_test\.go$/) src[pkg] += $1
	}
	END { for (p in all) print p, all[p], src[p] + 0 }' |
	sort |
	awk 'BEGIN { printf "%-40s %8s %8s\n", "package", "total", "non-test" }
	{ printf "%-40s %8d %8d\n", $1, $2, $3; t += $2; s += $3 }
	END { printf "%-40s %8d %8d\n", "TOTAL", t, s }'
