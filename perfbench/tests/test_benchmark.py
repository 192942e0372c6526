#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/tests/test_benchmark.py arithmetic   # ~1 s after the build
    python3 perfbench/tests/test_benchmark.py sensitivity  # ~8 min
    python3 perfbench/tests/test_benchmark.py              # both

arithmetic  runs the C++ self-test of the benchmark's own arithmetic
            (percentiles and their sample counts, success fractions under
            fan-out and refused opens, layer attribution summing to the
            traced total, timed-phase windows).

sensitivity injects a fixed busy-wait per delivered unit into the
            benchmark-owned delivery callback and checks that
            - units_per_wall_s on bulk_atm and city_churn falls by the share
              the busy-wait predicts, within the metric's bound;
            - the traced run books the added time to that callback's span
              (app.self_ms);
            - virtual-time results do not move, and media_chaos, which has
              no benchmark-owned delivery callback, keeps identical exact
              results and stays inside every bound.

Run from the repository root; builds into $CARGO_TARGET_DIR or .bench_build.
"""
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
SEED = 7
SECONDS = 6
INJECT_NS = 20_000
MEDIA_RUNS = 3

sys.path.insert(0, PERFBENCH)
import run  # noqa: E402  (perfbench/run.py: the build step)


def end_to_end():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def bench(workload, trace, inject=0, seconds=SECONDS):
    cmd = [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        cmd += ["--inject-deliver-ns", str(inject)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-3000:])
        raise SystemExit(f"benchmark failed: {' '.join(cmd)}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    passes = [(float(w), float(u)) for w, u in
              re.findall(r"\[pass \d+\] wall ([\d.]+)s cpu [\d.]+s units ([\d.]+)", p.stderr)]
    return {k: v["value"] for k, v in result["metrics"].items()}, passes


failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def arithmetic():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    run.build(build_dir)
    p = subprocess.run([os.path.join(build_dir, "perfbench_selftest")])
    check(p.returncode == 0, "benchmark arithmetic self-test")


def sensitivity():
    spec = end_to_end()
    tol = spec["units_per_wall_s"]["bound"]
    for workload in ("bulk_atm", "city_churn"):
        # Alternate plain and injected runs so a drift in host speed
        # between runs reaches both sides alike.
        base, base_passes = bench(workload, 0)
        slow, slow_passes = bench(workload, 0, INJECT_NS)
        _, more_base = bench(workload, 0)
        _, more_slow = bench(workload, 0, INJECT_NS)
        base_passes += more_base
        slow_passes += more_slow
        units = base_passes[0][1]
        wall = statistics.median(w for w, _ in base_passes)
        added_s = units * INJECT_NS * 1e-9
        predicted = units / (wall + added_s)
        measured = units / statistics.median(w for w, _ in slow_passes)
        print(f"     {workload}: {units / wall:.0f} -> {measured:.0f} units/s, "
              f"predicted {predicted:.0f} (+{added_s:.3f}s on {wall:.3f}s per pass)")
        check(abs(measured / predicted - 1) <= tol,
              f"{workload}: units_per_wall_s falls by the predicted share within {tol}")
        for k, v in base.items():
            if k.startswith("vt.") or k.endswith("_fraction"):
                check(slow[k] == v, f"{workload}: {k} unchanged by a host-side busy-wait")

        t_base, _ = bench(workload, 1)
        t_slow, _ = bench(workload, 1, INJECT_NS)
        booked = t_slow["app.self_ms"] - t_base["app.self_ms"]
        want = added_s * 1e3
        print(f"     {workload}: app.self_ms {t_base['app.self_ms']:.1f} -> "
              f"{t_slow['app.self_ms']:.1f} ms, injected {want:.1f} ms")
        check(0.8 * want <= booked <= 1.25 * want,
              f"{workload}: traced run books the busy-wait to the delivery span")

    # media_chaos has no benchmark-owned delivery callback: the injection
    # must leave its exact results identical and its host metrics inside
    # their bounds (medians of alternating runs, as bounds apply to medians).
    runs = [bench("media_chaos", 0, INJECT_NS if i % 2 else 0)[0] for i in range(2 * MEDIA_RUNS)]
    base, slow = runs[0::2], runs[1::2]
    for k in base[0]:
        if k.startswith("vt.") or k.endswith("_fraction"):
            check(all(r[k] == base[0][k] for r in runs),
                  f"media_chaos: {k} unchanged with the injection armed")
            continue
        v = statistics.median(r[k] for r in base)
        w = statistics.median(r[k] for r in slow)
        worse = (v - w) / v if spec[k]["better"] == "higher" else (w - v) / v
        check(worse <= spec[k]["bound"],
              f"media_chaos: {k} inside its bound with the injection armed ({worse:+.3f})")


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else "all"
    if what in ("arithmetic", "all"):
        arithmetic()
    if what in ("sensitivity", "all"):
        sensitivity()
    print("benchmark tests:", "OK" if not failures else f"{len(failures)} FAILED")
    sys.exit(1 if failures else 0)
