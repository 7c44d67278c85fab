.PHONY: build test check bench

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
