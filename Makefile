.PHONY: build test check bench loc

build:
	go build ./...

test:
	go test ./...

# check runs the hygiene gate: vet, gofmt, and race tests on the
# packages that share mutable state across goroutines.
check:
	sh scripts/check.sh

# bench runs the repo benchmark declared in BENCHMARK.json.
bench:
	bash benchmark/run.sh

# loc prints Go line counts per package, total and non-test (benchmark/
# excluded): the number a code-diet PR compares with its parent.
loc:
	sh scripts/loc.sh
