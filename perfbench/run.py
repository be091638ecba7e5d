#!/usr/bin/env python3
"""Repository benchmark: build the workload program, run a workload, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload run_short --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test [--seed 1]

Builds the repository's libraries and the workload program (perfbench/src)
into .bench_build/ with CMake, then runs it in its own process. Its stdout
is forwarded, except its last line: the program reports metric values by
name only, and this script attaches each metric's unit from BENCHMARK.json
(the one place names and units are defined) and prints one JSON object
{"correct", "attempted", "failed", "metrics"} as the last line. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics (a layer
the workload does not exercise reads 0) and writes the spans as a Chrome
trace to .bench_build/traces/.

--self-test pins determinism: two traced runs with one seed must print
identical exact values (response digest, shed ratio, steps and CoW pages
per request, unseal reject ratio, TVLA max |t|), a second seed must change
the inputs, and every run must pass its correctness checks.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD, "perfbench_workload")
WORKLOADS = ["run_short", "run_cow", "mixed_tenants", "sca_campaign"]


def run_timeout_s(seconds):
    # Around each timed window the program also spends untimed time on
    # warm-up, set-up and the oracle, which on mixed_tenants costs about as
    # much as serving.
    return max(175.0, 4 * seconds + 60)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally. Output goes to stderr so
    the last stdout line stays the result."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench_workload",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def metric_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def with_units(workload, values, trace):
    """Attach BENCHMARK.json's units to the program's {name: value}.
    Every end-to-end metric must be there; a per-layer metric the workload
    does not exercise reads 0. A name BENCHMARK.json does not define fails."""
    units = metric_units(trace)
    extra = sorted(set(values) - set(units))
    missing = [] if trace else sorted(set(units) - set(values))
    if extra or missing:
        fail("%s: metrics not in BENCHMARK.json %s, missing %s"
             % (workload, extra, missing))
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()}


def run_workload(workload, seed, seconds, trace):
    """Run one workload in its own process; return (text, result, exact):
    the program's stdout without its last line, the result with units, and
    the exact values it printed."""
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [PROGRAM, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    timeout = run_timeout_s(seconds)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %.0f s" % (workload, timeout))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s printed nothing (exit %d)" % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s: last line is not JSON" % workload)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    result["metrics"] = with_units(workload, result["metrics"], trace)
    exact = {}
    for line in lines:
        if line.startswith("exact:"):
            exact = dict(kv.split("=", 1) for kv in line.split()[1:])
    if proc.returncode not in (0, 1) or (proc.returncode == 1) == result["correct"]:
        fail("%s: exit %d with correct=%s"
             % (workload, proc.returncode, result["correct"]))
    return "".join(l + "\n" for l in lines[:-1]), result, exact


def self_test(seed):
    ok = True
    for w in WORKLOADS:
        _, r1, e1 = run_workload(w, seed, 1, True)
        _, r2, e2 = run_workload(w, seed, 1, True)
        _, r3, e3 = run_workload(w, seed + 1, 1, True)
        _, r4, _ = run_workload(w, seed + 1, 1, False)
        checks = {
            "every run correct": all(r["correct"] and r["failed"] == 0
                                     for r in (r1, r2, r3, r4)),
            "same seed, same exact values": e1 == e2 and bool(e1),
            "second seed changes the inputs": e1 != e3,
        }
        for name, passed in checks.items():
            print("%-14s %-32s %s" % (w, name, "PASS" if passed else "FAIL"))
            ok = ok and passed
        print("%-14s exact(seed %d): %s" % (w, seed, e1))
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload or --self-test is required")
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build()
    if args.self_test:
        return self_test(args.seed)
    status = 0
    for w in WORKLOADS if args.workload == "all" else [args.workload]:
        text, result, _ = run_workload(w, args.seed, args.seconds,
                                       bool(args.trace))
        sys.stdout.write(text)
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
