"""Tests of the benchmark itself, at the seconds-long smoke size.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They build the benchmark binary first (cargo, offline), so the first run
takes as long as a build.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 3


def bench(*args):
    """Runs the benchmark command; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), *args],
        cwd=run.ROOT, capture_output=True, text=True, check=False,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


class BenchmarkTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()
        cls.e2e_units, cls.layer_units = run.declared_metrics()
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            cls.declared = json.load(f)

    def check_result(self, lines, units):
        out = json.loads(lines[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"], lines)
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()}, units)
        for name, m in out["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        return out

    def test_workloads_match_the_binary(self):
        self.assertEqual(tuple(w["name"] for w in self.declared["workloads"]), run.WORKLOADS)

    def test_every_workload_prints_declared_metrics(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                                    "--trace", "0", "--size", "smoke")
                self.assertEqual(code, 0)
                out = self.check_result(lines, self.e2e_units)
                for name in ("ns_per_ref", "setup_s", "mosaic_ratio"):
                    self.assertGreater(out["metrics"][name]["value"], 0, name)
                diag = json.loads(lines[-2])["diagnostics"]
                for key in ("revision", "host_cores", "wall_s", "cpu_s", "calib_ms"):
                    self.assertIn(key, diag)

    def test_traced_run_prints_declared_per_layer_metrics(self):
        code, lines = bench("--workload", "tenants-churn", "--seed", str(SEED), "--trace", "1",
                            "--size", "smoke")
        self.assertEqual(code, 0)
        self.check_result(lines, self.layer_units)

    def test_perturbed_digest_fails_every_reference(self):
        good, diag = run.run_e2e(self.exe, "fig6-gups", SEED, 1, {}, self.e2e_units, "smoke")
        self.assertTrue(good["correct"])
        recorded = diag["digest"]
        flipped = recorded[:-1] + ("0" if recorded[-1] != "0" else "1")
        for digest, ok in ((recorded, True), (flipped, False)):
            digests = {"fig6-gups": {str(SEED): digest}}
            out, _ = run.run_e2e(self.exe, "fig6-gups", SEED, 1, digests, self.e2e_units, "smoke")
            self.assertEqual(out["correct"], ok)
            self.assertEqual(out["failed"], 0 if ok else out["attempted"])

    def test_fails_without_the_repository(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fig6-gups", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=180, check=False,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
