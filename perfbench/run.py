#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark (and the library it links, from ../src) with CMake
into the build directory, runs one workload in its own process and passes
its result through. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload bulk_atm|city_churn|media_chaos|all \
        --seed N --seconds S --trace 0|1 [--inject-deliver-ns NS]

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer metrics. --workload all runs the three workloads one after
another, each in its own process, and prints one result line per workload
with a "workload" key added. The build directory is $CARGO_TARGET_DIR when
set, else .bench_build, relative to the current directory.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk_atm", "city_churn", "media_chaos")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure and build under a lock; build output goes to stderr."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inject-deliver-ns", type=int, default=0,
                    help="busy-wait per delivered unit in the benchmark-owned delivery "
                         "callback (sensitivity self-check only)")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: library sources (src/) not found next to perfbench/")
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    if args.workload != "all":
        return run_workload(binary, args.workload, args)
    codes = [run_workload(binary, w, args, tag=True) for w in WORKLOADS]
    return next((c for c in codes if c != 0), 0)


def run_workload(binary, workload, args, tag=False):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.inject_deliver_ns:
        cmd += ["--inject-deliver-ns", str(args.inject_deliver_ns)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"perfbench: {workload}: no result (exit {proc.returncode})")
        return proc.returncode or 1
    for line in lines[:-1]:
        log(line)
    result = json.loads(lines[-1])

    # The metric set must be exactly what BENCHMARK.json promises.
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    code = proc.returncode
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        log(f"perfbench: {workload}: metric set differs from BENCHMARK.json: missing "
            f"{missing} extra {extra} unit mismatch {wrong}")
        result["correct"] = False
        code = code or 3
    if tag:
        result = {"workload": workload, **result}
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
