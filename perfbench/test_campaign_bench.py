#!/usr/bin/env python3
"""Tests of the campaign benchmark itself, on shrunk runs of each workload.

Run from the repository root (builds the benchmark on first use):

    python3 perfbench/test_campaign_bench.py
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Runs per class in the shrunk campaign: 100 runs, the fewest that put ten
# run times beyond p90.
SHRUNK = {"network": 20, "ecu": 5}
# The layer rows (module self times inside sim.run_until plus the scenario
# call time outside it) must add up to the traced run wall time. They are
# equal by construction when the roll-up counts every span exactly once, so
# the tolerance only absorbs print rounding.
LAYER_SUM_TOLERANCE = 0.01


def run_bench(workload, trace, jobs=0, seed=7):
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--per-class", str(SHRUNK[workload]), "--jobs", str(jobs)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if result.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{result.returncode}:\n{result.stdout}\n"
                             f"{result.stderr[-2000:]}")
    return result.stdout


def digests(stdout):
    return re.findall(r"result_digest=([0-9a-f]{16})", stdout)


class CampaignBenchTest(unittest.TestCase):
    maxDiff = None

    def check_metrics(self, stdout, declared):
        lines = stdout.splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for metric in declared:
            reported = result["metrics"][metric["name"]]
            self.assertEqual(reported["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(reported["value"], (int, float))
            # ... and the human-readable "name value unit" line.
            self.assertRegex(
                stdout, rf"(?m)^{re.escape(metric['name'])} \S+ "
                        rf"{re.escape(metric['unit'])}$")
        return result["metrics"]

    def test_end_to_end_metrics_and_p90_samples(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = run_bench(workload, trace=0)
                metrics = self.check_metrics(out, SPEC["end_to_end"])
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)
                samples = re.search(r"n=(\d+), beyond p90=(\d+)", out)
                self.assertIsNotNone(samples, out)
                self.assertGreaterEqual(int(samples.group(2)), 10)
                self.assertGreaterEqual(int(samples.group(1)), 100)
                self.assertEqual(len(set(digests(out))), 1, out)

    def test_per_layer_metrics_sum_to_run_wall(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = run_bench(workload, trace=1)
                metrics = self.check_metrics(out, SPEC["per_layer"])
                # The traced pass must reproduce the untraced result.
                found = digests(out)
                self.assertEqual(len(found), 2, out)
                self.assertEqual(found[0], found[1])
                # sim.run_until is found whether it is a root span (ecu) or
                # nested under run.simulate (network).
                self.assertGreater(metrics["sim.self_ms"]["value"], 0)
                self.assertGreater(metrics["sim.events"]["value"], 0)
                rows = re.findall(r"(?m)^# layer (\S+)\s+(\S+)\s+\S+%$", out)
                self.assertIn("sim", [name for name, _ in rows])
                wall = float(re.search(r"(?m)^# run wall (\S+) ms$",
                                       out).group(1))
                self.assertAlmostEqual(wall,
                                       metrics["run.wall_ms"]["value"],
                                       delta=1e-3 * wall)
                layer_sum = sum(float(ms) for _, ms in rows)
                self.assertLessEqual(abs(layer_sum - wall),
                                     LAYER_SUM_TOLERANCE * wall,
                                     f"layers {rows} vs wall {wall}")

    def test_result_digest_identical_at_jobs_1_and_2(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                one = set(digests(run_bench(workload, trace=0, jobs=1)))
                two = set(digests(run_bench(workload, trace=0, jobs=2)))
                self.assertEqual(len(one), 1)
                self.assertEqual(one, two)

    def test_result_digest_follows_the_seed(self):
        a = set(digests(run_bench("ecu", trace=0, seed=7)))
        b = set(digests(run_bench("ecu", trace=0, seed=8)))
        self.assertNotEqual(a, b)

    def test_refuses_a_campaign_too_small_for_p90(self):
        result = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "ecu",
             "--seed", "1", "--seconds", "0", "--trace", "0",
             "--per-class", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(result.returncode, 2, result.stderr[-2000:])
        self.assertNotIn('"correct"', result.stdout)

    def test_fails_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            result = subprocess.run(
                SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(result.returncode, 0)
            self.assertNotIn('"correct"', result.stdout)


if __name__ == "__main__":
    unittest.main()
