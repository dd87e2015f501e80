#!/usr/bin/env bash
# Tier-1 verification gate: build, vet, formatting, the full test suite
# (which includes the build-contract matrix, internal/experiment
# TestBuildContracts, and the simulator golden digests), the concurrent
# packages under the race detector, and one adaptd end-to-end smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

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
# the contract matrix (experiment), request handling and the shadow
# worker (serve), and the atomic metrics, store and surrogate.
go test -race ./internal/experiment ./internal/serve ./internal/obs \
    ./internal/store ./internal/surrogate
# The default worker count is GOMAXPROCS: race-check the default build's
# identity and its pool shutdown both at one worker and pipelined.
go test -race -cpu 1,2 -run 'TestDefaultWorkersMatchSequential|TestBuildStopsPoolOnExit' \
    ./internal/experiment

echo "== adaptd open-loop admission/shadow smoke =="
# First-boot a model, shadow it with the same file, rate-limit only the
# background class, and offer open-loop Poisson load with a Zipf-skewed
# pool. The background class must shed (its 10% share of -rps 600 far
# exceeds the 20/s bucket) while interactive and batch shed nothing,
# every class must report windowed latency quantiles, and the
# self-shadow must agree with the active model exactly.
work=$(mktemp -d /tmp/verify-adaptd.XXXXXX)
trap 'rm -rf "$work"' EXIT
out="$work/openloop.txt"
go run ./cmd/adaptd -model "$work/adaptd.model" -counter-set basic \
    -train-scale test -shadow "$work/adaptd.model" \
    -admission -admission-rate background=20:5 \
    -loadgen -loadgen-mode open -rps 600 -loadgen-requests 900 \
    -loadgen-zipf 1.1 >"$out" 2>/dev/null
fail() {
    echo "open-loop smoke: $1" >&2
    cat "$out" >&2
    exit 1
}
grep -q 'requests=900 ok=[0-9]* rejected=[0-9]* clientErr=0 serverErr=0 transportErr=0' "$out" ||
    fail "report shows request errors"
shed_of() { grep "^class $1" "$out" | grep -o 'shed=[0-9]*' | head -1 | cut -d= -f2 || true; }
bg_shed=$(shed_of background)
[ -n "$bg_shed" ] && [ "$bg_shed" -gt 0 ] || fail "background class did not shed under a 20/s bucket"
for cls in interactive batch; do
    shed=$(shed_of "$cls")
    [ -n "$shed" ] && [ "$shed" -eq 0 ] || fail "$cls class shed (shed=$shed); only background may shed"
done
for cls in interactive batch background; do
    grep "class $cls" "$out" | awk '
        /p50=/ {
            for (i = 1; i <= NF; i++) {
                if ($i ~ /^p50=/) { p50 = substr($i, 5); sub(/s$/, "", p50) }
                if ($i ~ /^p99=/) { p99 = substr($i, 5); sub(/s$/, "", p99) }
            }
            if (p50 + 0 > 0 && p99 + 0 > 0) found = 1
        }
        END { exit !found }' || fail "$cls class p50/p99 missing or zero"
done
grep -q 'paramAgreement=1\.000 decisionMatch=1\.000' "$out" ||
    fail "self-shadow disagreed with the active model"
echo "open-loop smoke: background shed $bg_shed, interactive/batch shed 0, self-shadow agreement 1.000"

echo "verify: all gates passed"
