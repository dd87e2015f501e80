#!/usr/bin/env bash
# Tier-1 verification gate: build, vet (of this module and of the
# perfbench module, which imports it), formatting, the full test suite
# (which includes the build-contract matrix, internal/experiment
# TestBuildContracts, the simulator golden digests and adaptd's open-loop
# admission test, cmd/adaptd TestOpenLoopAdmission, the report's
# cold/warm run, cmd/report TestReportColdWarm, and every other command's
# in-process main_test.go), and the concurrent packages under the race
# detector.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== go vet (perfbench) =="
# perfbench is its own module over this one's internal packages: vetting
# it type-checks every call it makes, so an API change that breaks the
# benchmark fails here rather than in a benchmark run.
go -C perfbench vet ./...

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go test =="
go test ./...

echo "== go test -race =="
# The packages with real concurrency: the build's simulation pool and
# the contract matrix (experiment), request handling and admission
# (serve, and adaptd's open-loop test), the atomic metrics and the store.
go test -race ./internal/experiment ./internal/serve ./cmd/adaptd \
    ./internal/obs ./internal/store
# The default worker count is GOMAXPROCS: race-check the default build's
# identity and its pool shutdown both at one worker and pipelined.
go test -race -cpu 1,2 -run 'TestDefaultWorkersMatchSequential|TestBuildStopsPoolOnExit' \
    ./internal/experiment

echo "verify: all gates passed"
