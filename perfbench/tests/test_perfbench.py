#!/usr/bin/env python3
"""Self-tests of the benchmark, on tiny windows (about a minute).

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

Each workload runs untraced and traced. The tests check that the result
line parses and carries exactly the metrics BENCHMARK.json names, each
also printed with its unit; that the simulated fingerprint repeats
across runs and changes with the held-out seed; that the span dump has
consistent parent links; and that the benchmark refuses to run without
the simulator sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402  (the launcher: build() and build_dir())


def bench(workload, trace, *extra, seed=0):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
           "--tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    return out


def fingerprint(stdout):
    m = re.search(r"^fingerprint (\S+(?: \S+=\S+)*)", stdout, re.M)
    return m.group(1) if m else None


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def check_result(self, out, trace):
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name])
            self.assertIsInstance(metric["value"], (int, float))
            printed = re.search(rf"^{re.escape(name)} +\S+ +(\S+) ",
                                out.stdout, re.M)
            self.assertIsNotNone(printed, f"{name} not printed")
            self.assertEqual(printed.group(1), units[name])
        if not trace:
            for name in ("wall_s", "setup_s", "sim_kips", "peak_rss_mb"):
                self.assertGreater(result["metrics"][name]["value"], 0)
        self.assertRegex(out.stdout, r'(?m)^host \{"nproc":\d+,"cpu":')
        return result

    def test_untraced_fingerprints_repeat(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = bench(w, 0)
                self.check_result(first, trace=False)
                second = bench(w, 0)
                self.check_result(second, trace=False)
                fp = fingerprint(first.stdout)
                self.assertIsNotNone(fp)
                self.assertEqual(fp, fingerprint(second.stdout))
                held = bench(w, 0, "--held-out")
                self.check_result(held, trace=False)
                self.assertNotEqual(fp, fingerprint(held.stdout))

    def test_traced_run_and_span_links(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                out = bench(w, 1)
                result = self.check_result(out, trace=True)
                self.assertEqual(fingerprint(out.stdout),
                                 fingerprint(bench(w, 0).stdout))
                metrics = result["metrics"]
                self.assertGreater(metrics["core.retired"]["value"], 0)
                self.assertEqual(metrics["failed_frac"]["value"], 0)
                path = run.build_dir() / "spans" / f"{w}-seed0-tiny.json"
                doc = json.loads(path.read_text())
                self.assertIn("nproc", doc["host"])
                spans = doc["spans"]
                self.assertTrue(spans)
                for i, s in enumerate(spans):
                    self.assertEqual(s["id"], i)
                    self.assertLessEqual(s["start"], s["end"])
                    if s["parent"] is None:
                        continue
                    p = spans[s["parent"]]
                    self.assertEqual(p["run"], s["run"])
                    self.assertLessEqual(p["start"], s["start"])
                    self.assertGreaterEqual(p["end"], s["end"])
                roots = {s["name"] for s in spans if s["parent"] is None}
                self.assertIn(f"op.{w}", roots)

    def test_refuses_without_simulator_sources(self):
        # A tree with only BENCHMARK.json and perfbench/ cannot build
        # the simulator: the benchmark must fail without a result.
        tree = run.build_dir() / "selftest-bare"
        shutil.rmtree(tree, ignore_errors=True)
        shutil.copytree(BENCH, tree / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tree)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        try:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "run-4t",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tree, env=env, capture_output=True, text=True,
                timeout=180)
        finally:
            shutil.rmtree(tree, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
