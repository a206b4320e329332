#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at small sizes (--smoke).

Asserts that each run ends with one JSON result whose metrics are exactly
the ones BENCHMARK.json names for that trace setting, each with its unit;
that every operation passed its checks; that a fixed seed repeats its
output digest; and that bad arguments fail without printing a result.

    python3 perfbench/test_smoke.py        # from anywhere; builds first
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCH = json.load(f)
# sync-1m and event-10k run through the same command but are left out of
# BENCHMARK.json (their medians drift with the host, see CHANGES.md); they
# are smoke-tested all the same.
WORKLOADS = [w["name"] for w in BENCH["workloads"]] + ["sync-1m", "event-10k"]


def run(*args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)


def run_smoke(workload, trace, seed=1):
    out = run("--workload", workload, "--seed", str(seed), "--seconds", "1",
              "--trace", str(trace), "--smoke")
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in BENCH[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    lines, result = run_smoke(workload, trace)
                    self.assertEqual(
                        sorted(result),
                        ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], "\n".join(lines))
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(set(metrics), set(expected))
                    for name, unit in expected.items():
                        self.assertEqual(metrics[name]["unit"], unit, name)
                        self.assertIsInstance(metrics[name]["value"],
                                              (int, float), name)
                        self.assertTrue(any(
                            line.split()[:2] == ["metric", name]
                            and line.split()[-1] == unit for line in lines),
                            f"no human-readable line for {name}")
                    if trace == 0:
                        for name in expected:
                            self.assertGreater(metrics[name]["value"], 0,
                                               name)
                        self.assertTrue(any(line.startswith("failed_frac 0 ")
                                            for line in lines))

    def test_fixed_seed_repeats_its_digest(self):
        def digest(seed):
            lines, _ = run_smoke("event-10k", 0, seed)
            return [line for line in lines if line.startswith("digest ")]

        first = digest(7)
        self.assertEqual(len(first), 1)
        self.assertEqual(first, digest(7))
        self.assertNotEqual(first, digest(8))

    def test_bad_arguments_print_no_result(self):
        for args in (("--workload", "no-such-workload", "--seed", "1"),
                     ("--workload", "sync-1m", "--seed", "1", "--trace", "2"),
                     ("--seed", "1")):
            with self.subTest(args=args):
                out = run(*args, "--seconds", "1")
                self.assertNotEqual(out.returncode, 0)
                self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
