#!/usr/bin/env python3
"""Alternating-pair comparison of two source trees on the repository benchmark.

    python3 tools/perf_pairs.py --base ../base --head . --workload all \\
        --pairs 5 --seconds 2 [--seed 1] [--build-root DIR] [--record FILE]
    python3 tools/perf_pairs.py --replay FILE

Pair i runs `python3 <tree>/perfbench/run.py --workload W --seed (seed + i)
--seconds S --trace 0` in each tree; the base runs first in even pairs and
the head first in odd ones, so drift of the host over the session falls on
both sides alike. Each tree builds into its own CARGO_TARGET_DIR
(<build-root>/base and <build-root>/head, default .perf_pairs/).

For every workload and every end-to-end metric of the head's
BENCHMARK.json it prints each side's median and quartiles, the pairs the
head wins, the change of the medians in %, the pairs the head loses by
more than the metric's bound ("worse" follows the metric's `better`
direction), and a verdict (docs: choosing-metrics, "Measuring in a small
sandbox"):

  gain          the head wins >= 9/10 of the pairs (ties count for
                neither) and the medians differ, in its favour, by more
                than the base's interquartile range;
  unresolved    the base's interquartile range, relative to its median,
                exceeds the metric's bound, and not every head run beats
                every base run;
  worse         the head's median is worse than the base's by more than
                the bound;
  within bound  otherwise.

The verdict is reported only; it does not change the exit status.

Exit status: 1 when any run is not `correct`, or when for any metric the
head loses by more than its bound in at least 4 of every 5 pairs
(ceil(0.8 * pairs)); 2 when a run produces no result; 0 otherwise.
--record writes every run so that --replay can re-judge it without running.
"""
import argparse
import json
import math
import os
import subprocess
import sys

WORKLOADS = ("bulk_atm", "city_churn", "media_chaos")
LOSS_SHARE = 0.8  # 4 of 5 pairs
GAIN_SHARE = 0.9  # 9 of 10 pairs


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def quantile(values, q):
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def relative_change(base, head):
    if base == head:
        return 0.0
    if base == 0:
        return math.copysign(math.inf, head)
    return (head - base) / abs(base)


def worse_by(metric, base, head):
    """How much worse the head is than the base, as a fraction (<= 0: not worse)."""
    change = relative_change(base, head)
    return change if metric["better"] == "lower" else -change


def metric_verdict(metric, base, head):
    """The choosing-metrics verdict on one metric's paired runs."""
    wins = sum(worse_by(metric, b, h) < 0 for b, h in zip(base, head))
    med_base, med_head = quantile(base, 0.5), quantile(head, 0.5)
    iqr = quantile(base, 0.75) - quantile(base, 0.25)
    if (wins >= GAIN_SHARE * len(base) and worse_by(metric, med_base, med_head) < 0
            and abs(med_head - med_base) > iqr):
        return "gain"
    spread = iqr / abs(med_base) if med_base else (math.inf if iqr else 0.0)
    every_head_beats = all(worse_by(metric, b, h) < 0 for b in base for h in head)
    if spread > metric["bound"] and not every_head_beats:
        return "unresolved"
    if worse_by(metric, med_base, med_head) > metric["bound"]:
        return "worse"
    return "within bound"


def run_one(tree, build_dir, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=env, cwd=tree)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(proc.stderr[-3000:])
        raise RuntimeError(f"{' '.join(cmd)} in {tree}: no result (exit {proc.returncode})")
    return json.loads(lines[-1])


def collect(args):
    build_root = os.path.abspath(args.build_root)
    sides = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    for w in workloads:
        runs[w] = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"seed": seed}
            for side in order:
                pair[side] = run_one(sides[side], os.path.join(build_root, side), w, seed,
                                     args.seconds)
                log(f"{w} pair {i + 1}/{args.pairs} seed {seed} {side}: "
                    f"correct={pair[side]['correct']}")
            runs[w].append(pair)
    with open(os.path.join(sides["head"], "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    return {"end_to_end": end_to_end, "runs": runs}


def judge(record, out=sys.stdout):
    """Print the pair table of every workload; return the exit status."""
    status = 0
    for workload, pairs in record["runs"].items():
        n = len(pairs)
        limit = math.ceil(LOSS_SHARE * n)
        seeds = [p["seed"] for p in pairs]
        print(f"\n{workload}: {n} pairs, seeds {seeds[0]}..{seeds[-1]}", file=out)
        for side in ("base", "head"):
            bad = [p["seed"] for p in pairs if not p[side]["correct"]]
            if bad:
                print(f"  {side} runs not correct: seeds {bad}", file=out)
                status = 1
        rows = [("metric", "base median [q1, q3]", "head median [q1, q3]", "wins", "change",
                 "lost>bound", "verdict")]
        for metric in record["end_to_end"]:
            name = metric["name"]
            if any(name not in p[s]["metrics"] for p in pairs for s in ("base", "head")):
                continue
            vals = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in ("base", "head")}
            wins = sum(worse_by(metric, b, h) < 0 for b, h in zip(vals["base"], vals["head"]))
            lost = sum(worse_by(metric, b, h) > metric["bound"]
                       for b, h in zip(vals["base"], vals["head"]))
            med = {s: quantile(v, 0.5) for s, v in vals.items()}
            cells = {s: f"{med[s]:.6g} [{quantile(v, 0.25):.6g}, {quantile(v, 0.75):.6g}]"
                     for s, v in vals.items()}
            change = relative_change(med["base"], med["head"]) * 100
            flag = ""
            if lost >= limit:
                flag = "  FAIL"
                status = 1
            rows.append((name, cells["base"], cells["head"], f"{wins}/{n}", f"{change:+.1f}%",
                         f"{lost}/{n}{flag}", metric_verdict(metric, vals["base"], vals["head"])))
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        for r in rows:
            print("  " + "  ".join(c.ljust(w) if i == 0 else c.rjust(w)
                                   for i, (c, w) in enumerate(zip(r, widths))).rstrip(), file=out)
    verdict = "FAIL" if status else "ok"
    print(f"\nperf_pairs: {verdict} (a metric fails when the head loses by more than its "
          f"bound in >= {LOSS_SHARE:.0%} of pairs; every run must be correct)", file=out)
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", help="source tree of the parent")
    ap.add_argument("--head", help="source tree of the change")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=2.0)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--build-root", default=".perf_pairs")
    ap.add_argument("--record", help="write every run as JSON to this file")
    ap.add_argument("--replay", help="judge a file written by --record instead of running")
    args = ap.parse_args()

    if args.replay:
        with open(args.replay) as f:
            record = json.load(f)
    else:
        if not args.base or not args.head or args.pairs < 1:
            ap.error("--base, --head and --pairs >= 1 are required unless --replay is given")
        try:
            record = collect(args)
        except (RuntimeError, OSError, ValueError) as e:
            log(f"perf_pairs: {e}")
            return 2
        if args.record:
            with open(args.record, "w") as f:
                json.dump(record, f, indent=1)
    return judge(record)


if __name__ == "__main__":
    sys.exit(main())
