"""Smoke test of the benchmark itself, from the root of a source checkout:

    python3 -m unittest perfbench/test_smoke.py

Runs one command per workload in both modes and checks that the last line
names every metric of BENCHMARK.json with its unit, and that the benchmark
refuses to run where the sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


class SmokeTest(unittest.TestCase):
    def test_one_command_per_workload_prints_every_metric(self):
        for workload in SPEC["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = bench(ROOT, "--workload", workload["name"], "--seed", "1",
                                 "--seconds", "1", "--trace", str(trace),
                                 "--max-commands", "1")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual((result["attempted"], result["failed"]), (1, 0))
                    want = {m["name"]: m["unit"] for m in SPEC[kind]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))

    def test_refuses_to_run_without_sources(self):
        bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
        try:
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            proc = bench(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
