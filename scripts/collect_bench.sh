#!/bin/sh
# Collect one JSON report per bench into an output directory:
#   scripts/collect_bench.sh <build-dir> [out-dir]
#
# Writes BENCH_<name>.json for every bench with --json support (the
# hand-rolled benches via the shared bench_report.hpp schema, plus
# bench_crypto_micro via google-benchmark's native emitter),
# TRACE_<name>.json chrome://tracing span files and EVENTS_<name>.jsonl
# flight-recorder logs for the telemetry-instrumented ones (empty stubs
# in CONVOLVE_TELEMETRY=OFF builds). A bench whose acceptance gate fails
# still has its report collected; the combined gate status is the
# script's exit code.
#
# Diff a collected run against the committed snapshot with:
#   build/tools/bench_diff bench/baseline/BENCH_enclave_service.json \
#       <out-dir>/BENCH_bench_enclave_service.json \
#       --counter=requests_per_second:higher
# and join the service run's artifacts with:
#   build/tools/obs_report --events=<out-dir>/EVENTS_bench_enclave_service.jsonl \
#       --metrics=<out-dir>/METRICS_bench_enclave_service.json \
#       --trace=<out-dir>/TRACE_bench_enclave_service.json
set -u

if [ $# -lt 1 ]; then
    echo "usage: $0 <build-dir> [out-dir]" >&2
    exit 2
fi
build_dir=$1
out_dir=${2:-"$build_dir/bench-reports"}

if [ ! -d "$build_dir/bench" ]; then
    echo "collect_bench: no bench/ under '$build_dir' (not a build dir?)" >&2
    exit 2
fi
mkdir -p "$out_dir" || exit 2

status=0

# validate <report-file>: schema-check through tools/check_bench_json
# (skipped with a note when the validator is not built).
validate() {
    checker="$build_dir/tools/check_bench_json"
    if [ ! -x "$checker" ]; then
        echo "collect_bench: NOTE $1 not schema-checked (check_bench_json not built)" >&2
        return
    fi
    if ! "$checker" < "$1"; then
        echo "collect_bench: $1 failed schema validation" >&2
        status=1
    fi
}

# run <bench-binary> <args...>: BENCH_<name>.json + TRACE_<name>.json,
# schema-validated.
run() {
    name=$1
    shift
    bin="$build_dir/bench/$name"
    if [ ! -x "$bin" ]; then
        echo "collect_bench: SKIP $name (not built)" >&2
        return
    fi
    if "$bin" "$@" --json --trace-out="$out_dir/TRACE_$name.json" \
        --metrics-out="$out_dir/METRICS_$name.json" \
        --events-out="$out_dir/EVENTS_$name.jsonl" \
        > "$out_dir/BENCH_$name.json"; then
        echo "collect_bench: $name ok"
    else
        echo "collect_bench: $name gate FAILED (report still written)" >&2
        status=1
    fi
    validate "$out_dir/BENCH_$name.json"
}

run bench_rv32 --steps=200000 --min-speedup=0
run bench_sca --unmasked-traces=1024 --min-masked-ratio=4 --sigma=0.5
# Scaling gate auto-skips on hosts with fewer than 8 hardware threads;
# the fork-speedup gate always applies.
run bench_enclave_service --requests=128 --spawn-reps=32
run bench_leakage_verify
run bench_rv32static
run bench_table1_dse

# google-benchmark bench: native JSON emitter, no telemetry flags.
# (bare double for --benchmark_min_time: the "0.01s" suffix form only
# exists in google-benchmark >= 1.8)
micro="$build_dir/bench/bench_crypto_micro"
if [ -x "$micro" ]; then
    if "$micro" --benchmark_format=json --benchmark_min_time=0.01 \
        > "$out_dir/BENCH_bench_crypto_micro.json"; then
        echo "collect_bench: bench_crypto_micro ok"
    else
        echo "collect_bench: bench_crypto_micro FAILED" >&2
        status=1
    fi
else
    echo "collect_bench: SKIP bench_crypto_micro (not built)" >&2
fi

echo "collect_bench: reports in $out_dir"
exit $status
