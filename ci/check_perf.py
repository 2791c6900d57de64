#!/usr/bin/env python3
"""Perf gate: fail when a BENCH_*.json report breaks one of its gates.

Usage: check_perf.py REPORT.json [GATES.json] [--threshold 0.25]

GATES.json (default bench/gates.json) maps each report name to its gated
cells, each a (metric, kind, bound) triple:

  exact    the metric equals the bound;
  ceiling  the metric is at most the bound;
  floor    the metric is at least the bound;
  ratio    the metric is at most the bound, a committed baseline, times
           1 + threshold.

A bound is a number, or {"of": metric, "times": t, "min": m}, which is
max(m, t * that metric of the report). A report name without an entry is
an error; so is a missing metric and a report that recorded a failed
repetition.
"""

import argparse
import json
import operator
import os
import sys

DEFAULT_GATES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "bench", "gates.json")

PASSES = {"exact": operator.eq, "ceiling": operator.le,
          "floor": operator.ge, "ratio": operator.le}


def limit(kind: str, bound, metrics: dict, threshold: float) -> float:
    """The value a metric of `kind` is compared with (KeyError when the
    bound names a metric the report lacks)."""
    if isinstance(bound, dict):
        bound = max(bound["min"], bound["times"] * metrics[bound["of"]])
    return bound * (1.0 + threshold) if kind == "ratio" else bound


def gate(report: dict, cells: list, threshold: float) -> bool:
    """Gates one report by its cells; returns True on any failure."""
    failed = report.get("failed", 0) != 0
    if failed:
        print(f"failed repetitions: {report['failed']} FAIL")
    metrics = report.get("metrics", {})
    for key, kind, bound in cells:
        if kind not in PASSES:
            print(f"{key}: FAIL (no gate kind {kind!r})")
            failed = True
            continue
        try:
            cur = metrics[key]
            lim = limit(kind, bound, metrics, threshold)
        except KeyError as missing:
            print(f"{key}: FAIL (metric {missing} missing)")
            failed = True
            continue
        ok = PASSES[kind](cur, lim)
        # Exact cells print every digit: they compare the measured bits.
        show = repr if kind == "exact" else "{:.6g}".format
        print(f"{key}: {show(cur)} ({kind} {show(lim)}) "
              f"{'ok' if ok else 'FAIL'}")
        failed |= not ok
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report")
    parser.add_argument("gates", nargs="?", default=DEFAULT_GATES,
                        help="gate file (default bench/gates.json)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max rise of a ratio cell (default 0.25)")
    args = parser.parse_args(argv)

    with open(args.report) as f:
        report = json.load(f)
    with open(args.gates) as f:
        gates = json.load(f)
    name = report.get("name")
    if name not in gates:
        print(f"no gates for report {name!r}", file=sys.stderr)
        return 2
    if gate(report, gates[name]["cells"], args.threshold):
        print("perf smoke FAILED", file=sys.stderr)
        return 1
    print("perf smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
