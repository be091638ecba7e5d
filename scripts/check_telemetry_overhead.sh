#!/bin/sh
# Zero-overhead gate for the telemetry layer: the ON build's throughput
# must be within `tolerance` (default 2%) of the OFF build's on the two
# paths where instrumentation would hurt most -- the rv32 bytecode engine's
# ALU-bound loop (per-instruction counters) and the enclave service's
# request loop (spans, per-tenant families, flight-recorder events).
# Run as:
#   scripts/check_telemetry_overhead.sh <on-build-dir> <off-build-dir> [tol]
#
# Both builds must already contain bench/bench_rv32 and
# bench/bench_enclave_service.
#
# Measurement discipline: shared/virtualized hosts swing individual
# wall-clock samples by 2x (host steal hits CPU time just as hard, so
# getrusage is no refuge), and a single A/B run -- or a best-of-N, which
# only measures who drew the luckier quiet window -- is meaningless.
# Instead the script runs ON and OFF strictly back-to-back N times, so
# each pair shares whatever load burst is in progress, and takes the
# MEDIAN of the per-pair throughput ratios. On a quiet host this
# converges well inside 1%; on a busy shared host the noise floor of the
# median is ~3-5%, so callers there should pass a tolerance of 0.05 and
# rely on the ON-vs-OFF disassembly of the hot loop staying identical
# for the last few percent.
set -u

if [ $# -lt 2 ]; then
    echo "usage: $0 <on-build-dir> <off-build-dir> [tolerance]" >&2
    exit 2
fi
on_dir=$1
off_dir=$2
tol=${3:-0.02}

for bin in "$on_dir/bench/bench_rv32" "$off_dir/bench/bench_rv32" \
           "$on_dir/bench/bench_enclave_service" \
           "$off_dir/bench/bench_enclave_service"; do
    if [ ! -x "$bin" ]; then
        echo "check_telemetry_overhead: missing $bin" >&2
        exit 2
    fi
done

# rv32_ips <build-dir>: insns_per_second of one ALU-only rv32_alu/bytecode
# run.
rv32_ips() {
    "$1/bench/bench_rv32" --json --steps=10000000 --min-speedup=0 \
            --threads=1 --only=alu |
        awk '/"name": "rv32_alu\/bytecode"/ {f=1} f && /"insns_per_second"/ {
                 gsub(/[^0-9.]/, ""); print; exit }'
}

# service_rps <build-dir>: requests_per_second of a single-thread sweep
# point of the enclave service's request loop (events + spans + families
# all live on this path in the ON build).
service_rps() {
    "$1/bench/bench_enclave_service" --json --requests=128 --spawn-reps=2 \
            --sweep=1 --min-fork-speedup=0 |
        awk '/"name": "enclave_service\/requests\/threads:1"/ {f=1}
             f && /"requests_per_second"/ {
                 gsub(/[^0-9.]/, ""); print; exit }'
}

# gate <label> <sampler> <pairs>: paired-median ON/OFF ratio vs $tol.
gate() {
    label=$1
    sampler=$2
    pairs=$3
    ratios=""
    i=0
    while [ $i -lt $pairs ]; do
        i=$((i + 1))
        on=$($sampler "$on_dir")
        off=$($sampler "$off_dir")
        if [ -z "$on" ] || [ -z "$off" ]; then
            echo "check_telemetry_overhead: $label produced no sample" >&2
            exit 2
        fi
        ratios="$ratios $(awk -v a="$on" -v b="$off" \
            'BEGIN { printf "%.6f", a / b }')"
    done
    median_ratio=$(printf '%s\n' $ratios | sort -n |
        sed -n "$((($pairs + 1) / 2))p")
    echo "$label: per-pair ON/OFF throughput ratios ($pairs pairs):"
    printf '  %s\n' $ratios
    awk -v r="$median_ratio" -v tol="$tol" -v l="$label" 'BEGIN {
        printf "%s median ON/OFF ratio: %.4f (tolerance: >= %.4f)\n",
               l, r, 1 - tol
        exit (r >= 1 - tol) ? 0 : 1
    }' || return 1
}

fail=0
gate "rv32_alu/bytecode" rv32_ips 25 || fail=1
gate "enclave_service/requests" service_rps 9 || fail=1

if [ $fail -eq 0 ]; then
    echo "check_telemetry_overhead: PASS"
else
    echo "check_telemetry_overhead: FAIL (telemetry costs more than tolerance)" >&2
fi
exit $fail
