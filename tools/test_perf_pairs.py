#!/usr/bin/env python3
"""The slowdown rule of tools/perf_pairs.py on recorded results.

    python3 tools/test_perf_pairs.py

Each case writes a record in the --record format and judges it with
--replay: a head that loses by more than a metric's bound in 4 of 5 pairs
exits 1, in 3 of 5 exits 0, and a run that is not correct exits 1. The
verdict cases check the per-metric verdict column: gain, unresolved,
worse and within bound.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(HERE, "perf_pairs.py")
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    END_TO_END = json.load(f)["end_to_end"]

BASE = {"units_per_wall_s": 1000.0, "units_per_cpu_s": 1000.0, "setup_s": 0.001,
        "peak_rss_mb": 100.0, "vt.goodput_mbps": 50.0}


def result(scale=None, correct=True):
    """One run.py result line; `scale` multiplies chosen metrics."""
    scale = scale or {}
    metrics = {m["name"]: {"value": BASE.get(m["name"], 0.5) * scale.get(m["name"], 1.0),
                           "unit": m["unit"]} for m in END_TO_END}
    return {"correct": correct, "attempted": 1, "failed": 0, "metrics": metrics}


def record(heads, bases=None):
    bases = bases or [result() for _ in heads]
    pairs = [{"seed": i + 1, "base": b, "head": h} for i, (b, h) in enumerate(zip(bases, heads))]
    return {"end_to_end": END_TO_END, "runs": {"bulk_atm": pairs}}


def judge(rec):
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(rec, f)
    try:
        proc = subprocess.run([sys.executable, TOOL, "--replay", f.name],
                              capture_output=True, text=True)
    finally:
        os.unlink(f.name)
    return proc.returncode, proc.stdout


class SlowdownRule(unittest.TestCase):
    def test_identical_sides_pass(self):
        code, out = judge(record([result() for _ in range(5)]))
        self.assertEqual(code, 0, out)

    def test_four_of_five_losses_beyond_the_bound_fail(self):
        slow = {"units_per_wall_s": 0.5}  # bound 0.25, higher is better
        code, out = judge(record([result(slow)] * 4 + [result()]))
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL", out)

    def test_three_of_five_losses_pass(self):
        slow = {"units_per_wall_s": 0.5}
        code, out = judge(record([result(slow)] * 3 + [result()] * 2))
        self.assertEqual(code, 0, out)

    def test_lower_is_better_metrics_lose_upwards(self):
        code, _ = judge(record([result({"setup_s": 2.0})] * 4 + [result()]))
        self.assertEqual(code, 1)
        code, _ = judge(record([result({"setup_s": 0.5})] * 5))  # a gain
        self.assertEqual(code, 0)

    def test_losses_within_the_bound_pass(self):
        code, out = judge(record([result({"units_per_wall_s": 0.8})] * 5))  # -20% < 25%
        self.assertEqual(code, 0, out)

    def test_a_run_that_is_not_correct_fails(self):
        code, out = judge(record([result()] * 4 + [result(correct=False)]))
        self.assertEqual(code, 1, out)


class Verdicts(unittest.TestCase):
    """One case per verdict, on units_per_wall_s (bound 0.25, higher is better)."""

    @staticmethod
    def runs(values):
        return [result({"units_per_wall_s": v}) for v in values]

    def verdict(self, bases, heads):
        code, out = judge(record(self.runs(heads), self.runs(bases)))
        row = next(l for l in out.splitlines() if l.split()[:1] == ["units_per_wall_s"])
        return code, row

    def test_gain_needs_nine_of_ten_wins_beyond_the_base_iqr(self):
        bases = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
        heads = [1.20, 1.21, 1.19, 1.22, 1.18, 1.20, 1.23, 1.17, 0.90, 1.21]  # 9 of 10
        code, row = self.verdict(bases, heads)
        self.assertEqual(code, 0)
        self.assertTrue(row.endswith(" gain"), row)
        heads[0] = 0.90  # 8 of 10: no longer a gain, but within the bound
        code, row = self.verdict(bases, heads)
        self.assertTrue(row.endswith(" within bound"), row)

    def test_unresolved_when_the_base_spreads_wider_than_the_bound(self):
        bases = [0.5, 1.5, 0.6, 1.4, 1.0]  # IQR 0.8 of a median of 1.0 > 0.25
        heads = [1.1, 1.0, 0.9, 1.2, 1.0]
        code, row = self.verdict(bases, heads)
        self.assertEqual(code, 0)
        self.assertTrue(row.endswith(" unresolved"), row)
        # Unless every head run beats every base run.
        code, row = self.verdict(bases, [2.0, 2.1, 2.2, 2.3, 2.4])
        self.assertFalse(row.endswith(" unresolved"), row)

    def test_worse_beyond_the_bound(self):
        bases = [1.0, 1.01, 0.99, 1.0, 1.0]
        code, row = self.verdict(bases, [0.6, 0.6, 0.6, 1.0, 1.0])  # 3 of 5 lost: exit 0
        self.assertEqual(code, 0)
        self.assertTrue(row.endswith(" worse"), row)

    def test_within_bound(self):
        code, row = self.verdict([1.0] * 5, [0.9] * 5)
        self.assertEqual(code, 0)
        self.assertTrue(row.endswith(" within bound"), row)


if __name__ == "__main__":
    unittest.main()
