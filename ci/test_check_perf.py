#!/usr/bin/env python3
"""Unit tests for ci/check_perf.py: one passing and one failing report per
gate kind (ceiling, floor, exact, the ledger's exact virtual_ns cells and
its floor_ratio cells), an unknown report name and a missing metric.

Usage: python3 ci/test_check_perf.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_perf  # noqa: E402

CKPT_OK = {"ckpt_overhead_fraction": 0.05, "restore_identical": 1.0}
BFS_OK = {"teps": 1.2e7, "bfs_identical": 1.0}
LEDGER_OK = {
    "read.virtual_ns": 1.5499999998780383,
    "read.wall_ns": 11.0,
    "read.floor_ratio": 1.45,
    "read_span.floor_ratio": 1.6,
    "eviction_cost_flatness": 1.2,
    "task_allocs_per_op": 0.0,
    "telemetry_overhead_ns": 0.05,
}
LEDGER_BASELINE = {
    "read.virtual_ns": 1.5499999998780383,
    "read.floor_ratio": 1.4,
    "read_span.floor_ratio": 1.6,
}


class CheckPerfTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name: str, metrics: dict, file: str = "cur.json") -> str:
        path = os.path.join(self.dir.name, file)
        with open(path, "w") as f:
            json.dump({"name": name, "config": {}, "metrics": metrics,
                       "series": {}}, f)
        return path

    def run_gate(self, name: str, metrics: dict, baseline=None):
        """(exit code, stdout + stderr) of check_perf on one report."""
        argv = [self.write(name, metrics)]
        if baseline is not None:
            argv.append(self.write("ledger", baseline, "base.json"))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = check_perf.main(argv)
        return code, out.getvalue()

    def test_ceiling(self):
        self.assertEqual(self.run_gate("ckpt_recovery", CKPT_OK)[0], 0)
        code, out = self.run_gate(
            "ckpt_recovery", {**CKPT_OK, "ckpt_overhead_fraction": 0.2})
        self.assertEqual(code, 1)
        self.assertIn("ckpt_overhead_fraction: 0.2 (ceiling 0.1) FAIL", out)

    def test_floor(self):
        self.assertEqual(self.run_gate("bfs", BFS_OK)[0], 0)
        code, out = self.run_gate("bfs", {**BFS_OK, "teps": 1e6})
        self.assertEqual(code, 1)
        self.assertIn("teps: 1e+06 (floor 5e+06) FAIL", out)

    def test_exact(self):
        code, out = self.run_gate("bfs", {**BFS_OK, "bfs_identical": 0.0})
        self.assertEqual(code, 1)
        self.assertIn("bfs_identical: 0 (expected 1) FAIL", out)

    def test_computed_bound(self):
        # The telemetry ceiling is 2% of the scalar read, at least 0.1 ns.
        ok = {**LEDGER_OK, "read.wall_ns": 20.0,
              "telemetry_overhead_ns": 0.39}
        self.assertEqual(self.run_gate("ledger", ok, LEDGER_BASELINE)[0], 0)
        code, out = self.run_gate(
            "ledger", {**ok, "telemetry_overhead_ns": 0.41}, LEDGER_BASELINE)
        self.assertEqual(code, 1)
        self.assertIn("telemetry_overhead_ns: 0.41 (ceiling 0.4) FAIL", out)

    def test_ledger_virtual_exact(self):
        code, out = self.run_gate("ledger", LEDGER_OK, LEDGER_BASELINE)
        self.assertEqual(code, 0, out)
        self.assertIn("perf smoke passed", out)
        moved = {**LEDGER_OK, "read.virtual_ns": 1.5500000000000003}
        code, out = self.run_gate("ledger", moved, LEDGER_BASELINE)
        self.assertEqual(code, 1)
        self.assertIn("read.virtual_ns: 1.5500000000000003 "
                      "(expected 1.5499999998780383) FAIL", out)

    def test_ledger_floor_ratio(self):
        # 1.4 * 1.25 = 1.75 is the limit at the default threshold.
        within = {**LEDGER_OK, "read.floor_ratio": 1.74}
        self.assertEqual(self.run_gate("ledger", within, LEDGER_BASELINE)[0],
                         0)
        code, out = self.run_gate(
            "ledger", {**LEDGER_OK, "read.floor_ratio": 1.76},
            LEDGER_BASELINE)
        self.assertEqual(code, 1)
        self.assertIn("read.floor_ratio: 1.7600 vs baseline 1.4000", out)
        self.assertIn("REGRESSION", out)

    def test_ledger_needs_baseline(self):
        code, out = self.run_gate("ledger", LEDGER_OK)
        self.assertEqual(code, 2)
        self.assertIn("baseline report is required", out)

    def test_unknown_column_in_baseline(self):
        code, out = self.run_gate("ledger", LEDGER_OK,
                                  {"read.wall_ns": 11.0})
        self.assertEqual(code, 1)
        self.assertIn("no gate for column 'wall_ns'", out)

    def test_unknown_name(self):
        code, out = self.run_gate("hotpath", {"scalar_ns_per_access": 3.5})
        self.assertEqual(code, 2)
        self.assertIn("no gates for report 'hotpath'", out)

    def test_missing_key(self):
        code, out = self.run_gate("ckpt_recovery",
                                  {"ckpt_overhead_fraction": 0.05})
        self.assertEqual(code, 1)
        self.assertIn("restore_identical: FAIL (metric 'restore_identical' "
                      "missing)", out)
        code, out = self.run_gate("ledger", {**LEDGER_OK},
                                  {**LEDGER_BASELINE, "fault_hdd.virtual_ns":
                                   2646464.885})
        self.assertEqual(code, 1)
        self.assertIn("fault_hdd.virtual_ns: FAIL (metric missing)", out)


if __name__ == "__main__":
    unittest.main()
