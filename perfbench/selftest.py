#!/usr/bin/env python3
"""Self-tests of the benchmark: a tiny-size run of every workload.

    python3 perfbench/selftest.py

Run it from the repository root (it builds through run.py). It checks that
every metric BENCHMARK.json names is reported with its unit in both trace
modes, that a seeded run repeats its per-layer counts and its results
digest exactly, and that a deliberately corrupted sweep result or a
mismatched repeated servd response is reported as a failure, not passed.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SWEEPS = [w for w in WORKLOADS if w.startswith("sweep-")]
COUNTS = ("calls", "gates", "transitions", "events", "ops", "vectors", "instants", "bytes")


def run(workload, trace, *extra, seed=7):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "2",
                             "--trace", str(trace), "--tiny"] + list(extra)
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, json.loads(lines[-1])


class SelfTest(unittest.TestCase):
    def test_every_metric_reported_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    code, lines, res = run(w, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"], lines)
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, want)
                    if trace == 0:
                        for name, m in res["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_counts_and_digest_repeat_at_a_fixed_seed(self):
        for w in SWEEPS:
            with self.subTest(workload=w):
                _, lines1, a = run(w, 1)
                _, lines2, b = run(w, 1)
                for name, m in a["metrics"].items():
                    if name.rsplit(".", 1)[-1] in COUNTS:
                        self.assertEqual(m["value"], b["metrics"][name]["value"], name)
                digest = [l for l in lines1 if l.startswith("digest ")]
                self.assertEqual(len(digest), 1)
                self.assertIn(digest[0], lines2)

    def test_corrupted_result_is_a_failure(self):
        for w in SWEEPS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    code, lines, res = run(w, trace, "--corrupt", "result")
                    self.assertEqual(code, 0)
                    self.assertFalse(res["correct"])
                    self.assertGreaterEqual(res["failed"], 1)
                    self.assertTrue(any("differs from sweep.Run" in l for l in lines), lines)

    def test_mismatched_repeated_response_is_a_failure(self):
        code, lines, res = run("serve-mix", 0, "--corrupt", "response")
        self.assertEqual(code, 0)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertTrue(any("repeated request answered" in l for l in lines), lines)


if __name__ == "__main__":
    sys.exit(unittest.main())
