"""Smoke tests for the benchmark itself; stdlib only.

    python3 -m unittest discover -s bench -p "test_*.py"

Each workload runs at a tiny size (a few instances, one pass).  The tests
check that every metric named in BENCHMARK.json is reported with its unit,
and that a deliberately corrupted library answer is counted as failed.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


class SmokeTest(unittest.TestCase):
    def assert_metrics_reported(self, result: dict, names: list[dict]) -> None:
        self.assertEqual(result["failed"], 0, result["failures"])
        lines = run.report(result)
        for m in names:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])
            self.assertTrue(any(line.split()[1:2] == [m["name"]] and line.endswith(" " + m["unit"])
                                for line in lines), m["name"])

    def test_every_workload_reports_every_end_to_end_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result = run.run_workload(w["name"], seed=1, seconds=0, trace=0, limit=3,
                                          setup_samples=1)
                self.assert_metrics_reported(result, SPEC["end_to_end"])

    def test_traced_runs_report_every_per_layer_metric(self):
        for name in ("witness_search", "cli_cold"):
            with self.subTest(workload=name):
                result = run.run_workload(name, seed=1, seconds=0, trace=1, limit=2)
                self.assert_metrics_reported(result, SPEC["per_layer"])

    def test_corrupted_witness_counts_as_failed(self):
        from sftkit import equivalences as eqv

        real = eqv.search_se

        def corrupted(a, b, **bounds):
            w = real(a, b, **bounds)
            return None if w is None else eqv.SEWitness(w.r.scale(2), w.s, w.lag)

        with mock.patch.object(eqv, "search_se", corrupted):
            result = run.run_workload("witness_search", seed=1, seconds=0, trace=0,
                                      setup_samples=1)
        self.assertGreater(result["failed_ratio"], 0)
        self.assertTrue(any("verify_se" in p for _, problems in result["failures"]
                            for p in problems))

    def test_corrupted_cone_decision_counts_as_failed(self):
        from sftkit import dimension as dim

        with mock.patch.object(dim, "dg_positive", lambda t, x, *bound: dim.InCone(0)):
            result = run.run_workload("cone_order", seed=1, seconds=0, trace=0, limit=12,
                                      setup_samples=1)
        self.assertGreater(result["failed_ratio"], 0)


if __name__ == "__main__":
    unittest.main()
