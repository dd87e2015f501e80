#!/usr/bin/env bash
# Tier-1 verification gate: build, vet, formatting, the full test suite,
# and the serving subsystem under the race detector (it is the only
# package with real request-level concurrency). CLAUDE.md points here.
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

echo "== golden digests (simulator byte-identity) =="
# Fast tripwire for the hot-path optimisations: any change to simulation
# results must either keep these digests bit-identical or bump
# store.SimVersion (see CLAUDE.md). -count=1 defeats the test cache.
go test -count=1 -run TestGoldenDigests ./internal/cpu

echo "== go test -race internal/experiment =="
# Exercises the WithWorkers build fan-out (workers_test.go) under the
# race detector.
go test -race ./internal/experiment

echo "== go test -race internal/serve =="
go test -race ./internal/serve

echo "== go test -race internal/obs =="
go test -race ./internal/obs

echo "== go test -race internal/store =="
go test -race ./internal/store

echo "== go test -race internal/surrogate =="
go test -race ./internal/surrogate

echo "== report -trace smoke =="
trace_out=$(mktemp /tmp/verify-trace.XXXXXX.json)
cache_dir=$(mktemp -d /tmp/verify-store.XXXXXX)
cold_out=$(mktemp /tmp/verify-cold.XXXXXX)
warm_out=$(mktemp /tmp/verify-warm.XXXXXX)
warm_err=$(mktemp /tmp/verify-warmerr.XXXXXX)
sur_off_out=$(mktemp /tmp/verify-suroff.XXXXXX)
sur_off_err=$(mktemp /tmp/verify-surofferr.XXXXXX)
sur_on_out=$(mktemp /tmp/verify-suron.XXXXXX)
sur_on_err=$(mktemp /tmp/verify-suronerr.XXXXXX)
cold_man=$(mktemp /tmp/verify-coldman.XXXXXX.json)
warm_man=$(mktemp /tmp/verify-warmman.XXXXXX.json)
fab_dir=$(mktemp -d /tmp/verify-fabric.XXXXXX)
fab_out=$(mktemp /tmp/verify-fabout.XXXXXX)
fab_err=$(mktemp /tmp/verify-faberr.XXXXXX)
merged_dir=$(mktemp -d /tmp/verify-merged.XXXXXX)
replay_out=$(mktemp /tmp/verify-replay.XXXXXX)
replay_err=$(mktemp /tmp/verify-replayerr.XXXXXX)
replay_man=$(mktemp /tmp/verify-replayman.XXXXXX.json)
bad_dir=$(mktemp -d /tmp/verify-badstore.XXXXXX)
trap 'rm -rf "$trace_out" "$cache_dir" "$cold_out" "$warm_out" "$warm_err" "$sur_off_out" "$sur_off_err" "$sur_on_out" "$sur_on_err" "$cold_man" "$warm_man" "$fab_dir" "$fab_out" "$fab_err" "$merged_dir" "$replay_out" "$replay_err" "$replay_man" "$bad_dir"' EXIT
go run ./cmd/report -scale test -skip-slow -trace "$trace_out" >"$sur_off_out" 2>"$sur_off_err"
go run ./scripts/checktrace "$trace_out"

echo "== report result-store cold/warm smoke =="
go run ./cmd/report -scale test -skip-slow -cache-dir "$cache_dir" -manifest "$cold_man" >"$cold_out" 2>/dev/null
go run ./cmd/report -scale test -skip-slow -cache-dir "$cache_dir" -manifest "$warm_man" >"$warm_out" 2>"$warm_err"
if ! cmp -s "$cold_out" "$warm_out"; then
    echo "store smoke: cold and warm runs differ on stdout" >&2
    diff "$cold_out" "$warm_out" | head -20 >&2
    exit 1
fi
warm_rate=$(grep -o 'storeHitRate=[0-9.]*' "$warm_err" | tail -1 | cut -d= -f2)
if [ -z "$warm_rate" ]; then
    echo "store smoke: warm run printed no storeHitRate" >&2
    exit 1
fi
if ! awk -v r="$warm_rate" 'BEGIN { exit !(r >= 0.90) }'; then
    echo "store smoke: warm store hit rate $warm_rate < 0.90" >&2
    exit 1
fi
echo "store smoke: warm run byte-identical, hit rate $warm_rate"

echo "== run-manifest smoke =="
# The cold and warm runs above each wrote a manifest. Their deterministic
# sections (scale, seeds, dataset digest, span-tree digest, span counts)
# must match exactly — obsdiff exits 1 naming the first differing field —
# and the warm manifest's timing section must record the >=90% store hit
# rate. obsdiff itself is a thin main over internal/obs, which the -race
# gate above already covers.
go run ./cmd/obsdiff "$cold_man" "$warm_man"
man_rate=$(grep -o '"storeHitRate": [0-9.]*' "$warm_man" | grep -o '[0-9.]*$')
if [ -z "$man_rate" ]; then
    echo "manifest smoke: warm manifest has no storeHitRate" >&2
    exit 1
fi
if ! awk -v r="$man_rate" 'BEGIN { exit !(r >= 0.90) }'; then
    echo "manifest smoke: warm manifest storeHitRate $man_rate < 0.90" >&2
    exit 1
fi
echo "manifest smoke: deterministic sections match, warm storeHitRate $man_rate"

echo "== surrogate search smoke =="
# The surrogate is an opt-in accelerator: with the flag off the report must
# stay byte-identical to the baseline run, and with it on the search must
# spend at most half the exact simulations (README "Surrogate search").
if ! cmp -s "$sur_off_out" "$cold_out"; then
    echo "surrogate smoke: surrogate-off run differs from the baseline report" >&2
    diff "$sur_off_out" "$cold_out" | head -20 >&2
    exit 1
fi
go run ./cmd/report -scale test -skip-slow -surrogate >"$sur_on_out" 2>"$sur_on_err"
off_sims=$(grep -o 'searchSims=[0-9]*' "$sur_off_err" | tail -1 | cut -d= -f2)
on_sims=$(grep -o 'searchSims=[0-9]*' "$sur_on_err" | tail -1 | cut -d= -f2)
if [ -z "$off_sims" ] || [ -z "$on_sims" ] || [ "$on_sims" -eq 0 ]; then
    echo "surrogate smoke: missing searchSims in report logs (off='$off_sims' on='$on_sims')" >&2
    exit 1
fi
if [ $((2 * on_sims)) -gt "$off_sims" ]; then
    echo "surrogate smoke: search sims only dropped ${off_sims} -> ${on_sims} (< 2x)" >&2
    exit 1
fi
if ! grep -q 'surrogate summary' "$sur_on_err"; then
    echo "surrogate smoke: no surrogate summary line in the -surrogate run" >&2
    exit 1
fi
echo "surrogate smoke: search sims $off_sims -> $on_sims"

echo "== fabric sharded-build smoke =="
# A 2-shard fabric build (shard, merge, warm final build) must reproduce
# the plain sequential run exactly: byte-identical stdout, and the fleet
# paying in total exactly the sequential build's search simulations (the
# last searchSims= line is the process total: shard sims + a warm final
# build paying zero). See README "Distributed builds".
go run ./cmd/report -scale test -skip-slow -fabric 2 -cache-dir "$fab_dir" >"$fab_out" 2>"$fab_err"
if ! cmp -s "$fab_out" "$cold_out"; then
    echo "fabric smoke: -fabric 2 stdout differs from the sequential run" >&2
    diff "$fab_out" "$cold_out" | head -20 >&2
    exit 1
fi
fab_sims=$(grep -o ' searchSims=[0-9]*' "$fab_err" | tail -1 | cut -d= -f2)
if [ -z "$fab_sims" ] || [ "$fab_sims" -ne "$off_sims" ]; then
    echo "fabric smoke: fabric run paid $fab_sims search sims, sequential paid $off_sims" >&2
    exit 1
fi
# Merge the driver's registry and every shard's private store into one
# canonical directory: every overlap must dedupe, nothing may diverge.
go run ./cmd/storectl merge "$merged_dir" "$fab_dir" "$fab_dir"/fabric/shard-*
go run ./cmd/storectl verify "$merged_dir"
go run ./cmd/storectl stats "$merged_dir"
# The plain pipeline replayed from the merged registry must be
# byte-identical to the cold sequential run — stdout, manifest
# deterministic section, zero fresh search sims, >=90% store hit rate.
go run ./cmd/report -scale test -skip-slow -cache-dir "$merged_dir" -manifest "$replay_man" >"$replay_out" 2>"$replay_err"
if ! cmp -s "$replay_out" "$cold_out"; then
    echo "fabric smoke: replay from the merged store differs from the sequential run" >&2
    diff "$replay_out" "$cold_out" | head -20 >&2
    exit 1
fi
go run ./cmd/obsdiff "$cold_man" "$replay_man"
replay_sims=$(grep -o ' searchSims=[0-9]*' "$replay_err" | tail -1 | cut -d= -f2)
if [ -z "$replay_sims" ] || [ "$replay_sims" -ne 0 ]; then
    echo "fabric smoke: replay from the merged store paid $replay_sims fresh search sims, want 0" >&2
    exit 1
fi
replay_rate=$(grep -o '"storeHitRate": [0-9.]*' "$replay_man" | grep -o '[0-9.]*$')
if [ -z "$replay_rate" ] || ! awk -v r="$replay_rate" 'BEGIN { exit !(r >= 0.90) }'; then
    echo "fabric smoke: merged-store replay hit rate '$replay_rate' < 0.90" >&2
    exit 1
fi
# Other shard counts must reproduce the same run too. Seed each from the
# merged registry (storectl merge into a fresh dir), so the gate also
# proves store hits are indistinguishable from fresh simulations through
# the whole fabric path: every shard replays warm, zero sims are paid,
# and stdout still matches.
for n in 1 4; do
    n_dir=$(mktemp -d /tmp/verify-fab$n.XXXXXX)
    n_out=$(mktemp /tmp/verify-fab${n}out.XXXXXX)
    n_err=$(mktemp /tmp/verify-fab${n}err.XXXXXX)
    go run ./cmd/storectl merge "$n_dir" "$merged_dir" >/dev/null
    go run ./cmd/report -scale test -skip-slow -fabric $n -cache-dir "$n_dir" >"$n_out" 2>"$n_err"
    if ! cmp -s "$n_out" "$cold_out"; then
        echo "fabric smoke: -fabric $n stdout differs from the sequential run" >&2
        diff "$n_out" "$cold_out" | head -20 >&2
        rm -rf "$n_dir" "$n_out" "$n_err"
        exit 1
    fi
    n_sims=$(grep -o ' searchSims=[0-9]*' "$n_err" | tail -1 | cut -d= -f2)
    rm -rf "$n_dir" "$n_out" "$n_err"
    if [ -z "$n_sims" ] || [ "$n_sims" -ne 0 ]; then
        echo "fabric smoke: warm -fabric $n run paid $n_sims search sims, want 0" >&2
        exit 1
    fi
done
# storectl verify must catch a flipped byte (CRC) with a non-zero exit.
cp "$merged_dir/results.log" "$merged_dir/simversion" "$bad_dir/"
orig_byte=$(od -An -tu1 -j24 -N1 "$bad_dir/results.log" | tr -d ' ')
printf "$(printf '\\%03o' $((orig_byte ^ 255)))" \
    | dd of="$bad_dir/results.log" bs=1 seek=24 count=1 conv=notrunc 2>/dev/null
if go run ./cmd/storectl verify "$bad_dir" >/dev/null 2>&1; then
    echo "fabric smoke: storectl verify missed a flipped byte" >&2
    exit 1
fi
# ... and a SimVersion mismatch, which merge must also refuse.
cp "$merged_dir/results.log" "$bad_dir/"
echo 999 >"$bad_dir/simversion"
if go run ./cmd/storectl verify "$bad_dir" >/dev/null 2>&1; then
    echo "fabric smoke: storectl verify missed a simversion mismatch" >&2
    exit 1
fi
if go run ./cmd/storectl merge "$merged_dir" "$bad_dir" >/dev/null 2>&1; then
    echo "fabric smoke: storectl merge accepted a simversion mismatch" >&2
    exit 1
fi
echo "fabric smoke: shards 1/2/4 byte-identical, merge verified, corruption and version skew caught"

echo "== adaptd batch loadgen smoke =="
# Boot the daemon against the warm result store (training replays from
# disk), fire the deterministic load generator in batch mode, and require a
# clean report plus a populated batch-size histogram in the metrics dump.
model_dir=$(mktemp -d /tmp/verify-adaptd.XXXXXX)
loadgen_out=$(mktemp /tmp/verify-loadgen.XXXXXX)
trap 'rm -rf "$trace_out" "$cache_dir" "$cold_out" "$warm_out" "$warm_err" "$sur_off_out" "$sur_off_err" "$sur_on_out" "$sur_on_err" "$cold_man" "$warm_man" "$fab_dir" "$fab_out" "$fab_err" "$merged_dir" "$replay_out" "$replay_err" "$replay_man" "$bad_dir" "$model_dir" "$loadgen_out"' EXIT
go run ./cmd/adaptd -model "$model_dir/adaptd.model" -counter-set basic \
    -train-scale test -cache-dir "$cache_dir" \
    -loadgen -loadgen-requests 512 -loadgen-batch 64 >"$loadgen_out" 2>/dev/null
if ! grep -q 'requests=512 ok=512 rejected=0 clientErr=0 serverErr=0 transportErr=0' "$loadgen_out"; then
    echo "batch loadgen smoke: report shows errors or losses" >&2
    grep 'requests=' "$loadgen_out" >&2 || cat "$loadgen_out" >&2
    exit 1
fi
batch_count=$(grep -o '^adaptd_batch_size_count [0-9]*' "$loadgen_out" | awk '{print $2}')
if [ -z "$batch_count" ] || [ "$batch_count" -eq 0 ]; then
    echo "batch loadgen smoke: adaptd_batch_size_count missing or zero" >&2
    grep 'adaptd_batch' "$loadgen_out" >&2 || true
    exit 1
fi
# The final report now includes the /v1/status windowed latency SLOs;
# /v1/predict just served the whole schedule, so its p50 and p99 must be
# present and non-zero.
slo_line=$(grep 'slo /v1/predict' "$loadgen_out" || true)
if [ -z "$slo_line" ]; then
    echo "batch loadgen smoke: no /v1/predict SLO line in the report" >&2
    exit 1
fi
if ! echo "$slo_line" | awk '{
    for (i = 1; i <= NF; i++) {
        if ($i ~ /^p50=/) { p50 = substr($i, 5); sub(/s$/, "", p50) }
        if ($i ~ /^p99=/) { p99 = substr($i, 5); sub(/s$/, "", p99) }
    }
    exit !(p50 + 0 > 0 && p99 + 0 > 0)
}'; then
    echo "batch loadgen smoke: /v1/predict p50/p99 missing or zero: $slo_line" >&2
    exit 1
fi
echo "batch loadgen smoke: 512/512 ok, $batch_count batched kernel calls, ${slo_line# }"

echo "== adaptd open-loop admission/shadow smoke =="
# Reboot the daemon on the model the batch smoke just trained, shadowed by
# the same file, with admission control rate-limiting the background class
# only, and offer open-loop Poisson load with a Zipf-skewed pool. The
# background class must shed (its 10% share of -rps 600 far exceeds the
# 20/s bucket) while interactive and batch shed nothing, every class must
# report windowed latency quantiles, and the self-shadow must agree with
# the active model exactly.
open_out=$(mktemp /tmp/verify-openloop.XXXXXX)
trap 'rm -rf "$trace_out" "$cache_dir" "$cold_out" "$warm_out" "$warm_err" "$sur_off_out" "$sur_off_err" "$sur_on_out" "$sur_on_err" "$cold_man" "$warm_man" "$fab_dir" "$fab_out" "$fab_err" "$merged_dir" "$replay_out" "$replay_err" "$replay_man" "$bad_dir" "$model_dir" "$loadgen_out" "$open_out"' EXIT
go run ./cmd/adaptd -model "$model_dir/adaptd.model" -counter-set basic \
    -shadow "$model_dir/adaptd.model" \
    -admission -admission-rate background=20:5 \
    -loadgen -loadgen-mode open -rps 600 -loadgen-requests 900 \
    -loadgen-zipf 1.1 >"$open_out" 2>/dev/null
if ! grep -q 'requests=900 ok=[0-9]* rejected=[0-9]* clientErr=0 serverErr=0 transportErr=0' "$open_out"; then
    echo "open-loop smoke: report shows request errors" >&2
    grep 'requests=' "$open_out" >&2 || cat "$open_out" >&2
    exit 1
fi
bg_shed=$(grep '^class background' "$open_out" | grep -o 'shed=[0-9]*' | head -1 | cut -d= -f2)
if [ -z "$bg_shed" ] || [ "$bg_shed" -eq 0 ]; then
    echo "open-loop smoke: background class did not shed under a 20/s bucket" >&2
    grep '^class ' "$open_out" >&2 || true
    exit 1
fi
for cls in interactive batch; do
    shed=$(grep "^class $cls" "$open_out" | grep -o 'shed=[0-9]*' | head -1 | cut -d= -f2)
    if [ -z "$shed" ] || [ "$shed" -ne 0 ]; then
        echo "open-loop smoke: $cls class shed (shed=$shed); only background may shed here" >&2
        grep '^class ' "$open_out" >&2 || true
        exit 1
    fi
done
for cls in interactive batch background; do
    if ! grep "class $cls" "$open_out" | awk '
        /p50=/ {
            for (i = 1; i <= NF; i++) {
                if ($i ~ /^p50=/) { p50 = substr($i, 5); sub(/s$/, "", p50) }
                if ($i ~ /^p99=/) { p99 = substr($i, 5); sub(/s$/, "", p99) }
            }
            if (p50 + 0 > 0 && p99 + 0 > 0) found = 1
        }
        END { exit !found }'; then
        echo "open-loop smoke: $cls class p50/p99 missing or zero" >&2
        grep "class $cls" "$open_out" >&2 || true
        exit 1
    fi
done
if ! grep -q 'paramAgreement=1\.000 decisionMatch=1\.000' "$open_out"; then
    echo "open-loop smoke: self-shadow disagreed with the active model" >&2
    grep 'shadow' "$open_out" >&2 || true
    exit 1
fi
echo "open-loop smoke: background shed $bg_shed, interactive/batch shed 0, self-shadow agreement 1.000"

echo "verify: all gates passed"
