#!/usr/bin/env bash
# Hot-path benchmark harness: runs the sim-core, cache-model and soft-max
# training benchmarks, prints a before/after table against the recorded
# pre-overhaul baseline (scripts/bench_baseline.txt) and writes the
# machine-readable comparison to BENCH_sim.json. See README "Performance".
#
#   scripts/bench.sh                  # ~1 min
#   BENCHTIME=2s scripts/bench.sh     # longer, steadier runs
#   OUT=/tmp/b.json scripts/bench.sh  # alternate JSON path
#
# The recorded baseline is machine-specific (see the header of
# bench_baseline.txt); on other hardware read the ratios, not the
# absolute numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-1s}"
out="${OUT:-BENCH_sim.json}"
raw=$(mktemp /tmp/bench-raw.XXXXXX.txt)
trap 'rm -f "$raw"' EXIT

echo "== go test -bench, sim core (benchtime $benchtime) =="
go test -run XXX -bench 'BenchmarkSimRun|BenchmarkSimRunCollect' \
    -benchmem -benchtime "$benchtime" ./internal/cpu | tee "$raw"

echo "== go test -bench, cache model (benchtime $benchtime) =="
go test -run XXX -bench 'BenchmarkCacheAccess|BenchmarkHierarchyAccess|BenchmarkProfilerObserve' \
    -benchmem -benchtime "$benchtime" ./internal/cache | tee -a "$raw"

echo "== go test -bench, soft-max training (benchtime $benchtime) =="
go test -run XXX -bench 'BenchmarkTrain' \
    -benchmem -benchtime "$benchtime" ./internal/softmax | tee -a "$raw"

echo
echo "== cmd/report -scale test -skip-slow wall clock (best of 3) =="
# End-to-end pipeline wall clock, recorded alongside the microbenchmarks.
# The baseline constant below is the best-of-3 interleaved measurement of
# the pre-overhaul binary (commit c86856f) on the same otherwise-idle
# machine as bench_baseline.txt.
report_baseline_s=2.68
go build -o /tmp/bench-report ./cmd/report
report_s=""
for _ in 1 2 3; do
    t0=$(date +%s.%N)
    /tmp/bench-report -scale test -skip-slow >/dev/null
    t1=$(date +%s.%N)
    dt=$(awk -v a="$t0" -v b="$t1" 'BEGIN{printf "%.2f", b-a}')
    echo "  run: ${dt}s"
    if [ -z "$report_s" ] || awk -v n="$dt" -v c="$report_s" 'BEGIN{exit !(n < c)}'; then
        report_s="$dt"
    fi
done
rm -f /tmp/bench-report
echo "  best: ${report_s}s (pre-overhaul baseline: ${report_baseline_s}s)"

echo
echo "== vs recorded pre-overhaul baseline =="
go run ./scripts/benchdiff scripts/bench_baseline.txt "$raw"
go run ./scripts/benchdiff -json \
    -extra "report_test_scale_s=$report_s" \
    -extra "report_test_scale_baseline_s=$report_baseline_s" \
    scripts/bench_baseline.txt "$raw" >"$out"
echo
echo "wrote $out"
