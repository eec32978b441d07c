"""Self-tests of the benchmark: small smoke runs and negative controls.

Run from the repository root:  python3 perfbench/selftest.py

Takes about a minute; most of it is the catalog bootstrap, whose range is
fixed at the catalog's own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALL_SWEEP = ["--max-vertices", "5", "--max-edges", "6"]

COMMON_UNITS = {"setup_s": "s", "setup_wall_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio"}
REPORT_UNITS = {
    "certify-8-10": {
        **COMMON_UNITS, "sweep_s": "s", "sweep_w2_s": "s", "bootstrap_s": "s", "certify_wall_s": "s",
    },
    "classify": {
        **COMMON_UNITS,
        "classify_s": "s", "classify_wall_s": "s", "classify_p50_ms": "ms",
        "classify_tail_ms": "ms", "classify_miss_frac": "ratio",
    },
}


def bench(workload: str, *extra: str, trace: int = 0) -> tuple[dict, dict]:
    """Run the benchmark; returns (report line, result line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


class SmokeRuns(unittest.TestCase):
    def check_units(self, report: dict, result: dict, workload: str, kind: str) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], report["problems"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
        self.assertEqual(printed, declared(kind))
        for metric in result["metrics"].values():
            self.assertIsInstance(metric["value"], (int, float))
        named = {name: metric["unit"] for name, metric in report["metrics"].items()}
        expected = REPORT_UNITS["certify-8-10" if workload == "certify-8-10" else "classify"]
        self.assertEqual(named, expected)

    def test_certify_small_range(self) -> None:
        report, result = bench("certify-8-10", *SMALL_SWEEP)
        self.check_units(report, result, "certify-8-10", "end_to_end")
        self.assertEqual(report["metrics"]["failed_frac"]["value"], 0)

    def test_classify_short_corpora(self) -> None:
        for workload in ("classify-symmetric", "classify-sparse"):
            report, result = bench(workload, "--corpus-limit", "3")
            self.check_units(report, result, workload, "end_to_end")
            self.assertEqual(report["classify_samples"], 3)

    def test_traced_runs_repeat_their_counts(self) -> None:
        first = bench("classify-symmetric", "--corpus-limit", "3", trace=1)
        second = bench("classify-symmetric", "--corpus-limit", "3", trace=1)
        for report, result in (first, second):
            self.check_units(report, result, "classify-symmetric", "per_layer")
            self.assertIn("classify", report["span_coverage"])
        calls = [
            {name: m["value"] for name, m in result["metrics"].items() if name.endswith(".calls")}
            for _, result in (first, second)
        ]
        self.assertEqual(calls[0], calls[1])
        self.assertGreater(calls[0]["cli.main.calls"], 0)

    def test_traced_certify_small_range(self) -> None:
        report, result = bench("certify-8-10", *SMALL_SWEEP, trace=1)
        self.check_units(report, result, "certify-8-10", "per_layer")
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        self.assertGreater(metrics["oracle.iter_graph_classes.calls"], 0)
        self.assertGreater(metrics["sweep.w2.serial_share"], 0)
        self.assertEqual(set(report["span_coverage"]), {"setup", "sweep_s", "sweep_w2_s", "bootstrap_s"})


class NegativeControls(unittest.TestCase):
    def test_corrupted_verdict_is_a_failure(self) -> None:
        report, result = bench("classify-symmetric", "--corpus-limit", "3", "--corrupt-verdict")
        self.assertFalse(result["correct"])
        self.assertGreater(report["metrics"]["failed_frac"]["value"], 0)

    def test_census_member_removed_is_a_failure(self) -> None:
        report, result = bench("certify-8-10", *SMALL_SWEEP, "--drop-census-member")
        self.assertFalse(result["correct"])
        self.assertGreater(report["metrics"]["failed_frac"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
