#!/usr/bin/env python3
"""Unit tests for ci/check_perf.py: one passing and one failing report per
gate kind (exact, ceiling, floor, ratio-to-baseline), a bound relative to
another metric, a gated cell missing from the report, a report name missing
from the gate file, a report with a failed repetition, and the committed
gate file.

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

GATES = {
    "drill": {"why": [], "cells": [
        ["identical", "exact", 1.0],
        ["overhead", "ceiling", 0.1],
        ["teps", "floor", 5.0e6],
        ["read.floor_ratio", "ratio", 1.4],
        ["telemetry_overhead_ns", "ceiling",
         {"of": "read.wall_ns", "times": 0.02, "min": 0.1}],
    ]},
}
OK = {
    "identical": 1.0,
    "overhead": 0.05,
    "teps": 1.2e7,
    "read.floor_ratio": 1.45,
    "read.wall_ns": 11.0,
    "telemetry_overhead_ns": 0.05,
}


class CheckPerfTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.gates = os.path.join(self.dir.name, "gates.json")
        with open(self.gates, "w") as f:
            json.dump(GATES, f)

    def tearDown(self):
        self.dir.cleanup()

    def run_gate(self, metrics: dict, name: str = "drill", failed: int = 0):
        """(exit code, stdout + stderr) of check_perf on one report."""
        path = os.path.join(self.dir.name, "report.json")
        with open(path, "w") as f:
            json.dump({"name": name, "failed": failed, "config": {},
                       "metrics": metrics, "series": {}}, f)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = check_perf.main([path, self.gates])
        return code, out.getvalue()

    def test_passing_report(self):
        code, out = self.run_gate(OK)
        self.assertEqual(code, 0, out)
        self.assertIn("perf smoke passed", out)

    def test_exact(self):
        code, out = self.run_gate({**OK, "identical": 0.0})
        self.assertEqual(code, 1)
        self.assertIn("identical: 0.0 (exact 1.0) FAIL", out)
        # Every bit counts.
        code, out = self.run_gate({**OK, "identical": 1.0000000000000002})
        self.assertEqual(code, 1)
        self.assertIn("identical: 1.0000000000000002 (exact 1.0) FAIL", out)

    def test_ceiling(self):
        self.assertEqual(self.run_gate({**OK, "overhead": 0.1})[0], 0)
        code, out = self.run_gate({**OK, "overhead": 0.2})
        self.assertEqual(code, 1)
        self.assertIn("overhead: 0.2 (ceiling 0.1) FAIL", out)

    def test_floor(self):
        self.assertEqual(self.run_gate({**OK, "teps": 5.0e6})[0], 0)
        code, out = self.run_gate({**OK, "teps": 1e6})
        self.assertEqual(code, 1)
        self.assertIn("teps: 1e+06 (floor 5e+06) FAIL", out)

    def test_ratio_to_baseline(self):
        # 1.4 * 1.25 = 1.75 is the limit at the default threshold.
        self.assertEqual(self.run_gate({**OK, "read.floor_ratio": 1.74})[0],
                         0)
        code, out = self.run_gate({**OK, "read.floor_ratio": 1.76})
        self.assertEqual(code, 1)
        self.assertIn("read.floor_ratio: 1.76 (ratio 1.75) FAIL", out)

    def test_bound_relative_to_another_metric(self):
        # The telemetry ceiling is 2% of read.wall_ns, at least 0.1 ns.
        ok = {**OK, "read.wall_ns": 20.0, "telemetry_overhead_ns": 0.39}
        self.assertEqual(self.run_gate(ok)[0], 0)
        code, out = self.run_gate({**ok, "telemetry_overhead_ns": 0.41})
        self.assertEqual(code, 1)
        self.assertIn("telemetry_overhead_ns: 0.41 (ceiling 0.4) FAIL", out)
        # A cheap read keeps the 0.1 ns noise floor.
        cheap = {**OK, "read.wall_ns": 2.0}
        self.assertEqual(
            self.run_gate({**cheap, "telemetry_overhead_ns": 0.09})[0], 0)
        code, out = self.run_gate({**cheap, "telemetry_overhead_ns": 0.11})
        self.assertEqual(code, 1)
        self.assertIn("(ceiling 0.1) FAIL", out)
        # The bound's own metric is required too.
        no_wall = dict(OK)
        del no_wall["read.wall_ns"]
        code, out = self.run_gate(no_wall)
        self.assertEqual(code, 1)
        self.assertIn("telemetry_overhead_ns: FAIL (metric 'read.wall_ns' "
                      "missing)", out)

    def test_missing_cell(self):
        metrics = dict(OK)
        del metrics["teps"]
        code, out = self.run_gate(metrics)
        self.assertEqual(code, 1)
        self.assertIn("teps: FAIL (metric 'teps' missing)", out)

    def test_unknown_report(self):
        code, out = self.run_gate(OK, name="hotpath")
        self.assertEqual(code, 2)
        self.assertIn("no gates for report 'hotpath'", out)

    def test_failed_repetition(self):
        code, out = self.run_gate(OK, failed=1)
        self.assertEqual(code, 1)
        self.assertIn("failed repetitions: 1 FAIL", out)

    def test_committed_gate_file(self):
        with open(check_perf.DEFAULT_GATES) as f:
            gates = json.load(f)
        for name, entry in gates.items():
            for key, kind, bound in entry["cells"]:
                self.assertIn(kind, check_perf.PASSES, f"{name} {key}")
                self.assertTrue(isinstance(bound, (int, float, dict)),
                                f"{name} {key}")


if __name__ == "__main__":
    unittest.main()
