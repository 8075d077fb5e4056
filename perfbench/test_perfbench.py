"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

SCALE = "0.02"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# Per-call layer times reported only by workloads that call the layer.
WHERE_CALLED = {
    "lending-eqopp": {"sim.lending.grant_probability_below_us"},
    "attention-stream": {"kernels.eta_us", "discovery.eta_interval_us"},
}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


class SmokeTest(unittest.TestCase):
    def test_benchmark_json_matches_the_command(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertEqual(
            {w["name"]: w["why"] for w in spec["workloads"]},
            {name: row[0] for name, row in workloads.WORKLOADS.items()})
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)

    def test_every_metric_is_emitted_with_its_unit(self):
        for name in workloads.WORKLOADS:
            for trace, expected in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=name, trace=trace):
                    proc = bench("--workload", name, "--seed", "5",
                                 "--seconds", "1", "--trace", str(trace),
                                 "--scale", SCALE)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), RESULT_KEYS)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        expected)
                    for metric in result["metrics"].values():
                        self.assertTrue(math.isfinite(metric["value"]))
                    if trace:
                        summary = json.loads(Path(lines[-2].split(
                            "results: ")[1]).read_text())["summary"]
                        where = set(run.PER_LAYER_WHERE_CALLED)
                        self.assertEqual(where & set(summary),
                                         WHERE_CALLED.get(name, set()))

    def test_truncated_estimates_is_a_failed_operation(self):
        real = run.run_stage

        def truncate_estimates(work, stage, spec):
            result = real(work, stage, spec)
            if stage == "monitor":
                path = Path(spec["estimates"])
                lines = path.read_text().splitlines(keepends=True)
                path.write_text("".join(lines[:len(lines) // 2]))
            return result

        out = io.StringIO()
        with mock.patch.object(run, "run_stage", truncate_estimates), \
                contextlib.redirect_stdout(out):
            code = run.main(["--workload", "lending-stream", "--seed", "5",
                             "--seconds", "0.1", "--scale", SCALE])
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["metrics"], {})

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns(
                                "results", ".work", "__pycache__"))
            proc = bench("--workload", "lending-stream", "--seed", "5",
                         "--seconds", "1", "--trace", "0", cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
