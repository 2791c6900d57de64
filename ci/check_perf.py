#!/usr/bin/env python3
"""Perf gate: fail when a BENCH_*.json report breaks one of its gates.

Usage: check_perf.py CURRENT.json [BASELINE.json] [--threshold 0.25]

Every report kind has one entry in GATES, keyed by the report's "name":
ceilings (value <= bound), floors (value >= bound) and exact values. A
bound is a number or a function of the report's metrics. An entry may also
list, per gated key, the metrics that key's ratio divides; they print
beside it, so a failing self-relative wall gate names the side that moved.
A report name without an entry is an error, and so is a missing metric.

The ledger (bench/ledger) is also compared with its committed baseline
(BASELINE.json, required for it). The column in each baseline key decides
the gate: `<row>.virtual_ns` is modeled time, a pure function of the
config, and must match exactly; `<row>.floor_ratio` is wall time over a
floor measured in the same run and may be at most 1 + threshold times the
committed value. Only the cells in the baseline are gated.
"""

import argparse
import json
import sys


def telemetry_ceiling(metrics: dict) -> float:
    """Telemetry must stay off the per-element fast path: tracing may add at
    most 2% of the scalar read cost, with an absolute 0.1 ns noise floor."""
    return max(0.1, 0.02 * metrics["read.wall_ns"])


GATES = {
    # Per-layer cost ledger. Its invariants are machine-independent:
    # per-eviction cost across an 8x resident-frame spread must stay flat
    # (a full-scan victim search sat near 8), and once warm the page-task
    # buffers must be recycled.
    "ledger": {
        "ceilings": {
            "eviction_cost_flatness": 2.0,
            "task_allocs_per_op": 0.5,
            "telemetry_overhead_ns": telemetry_ceiling,
        },
        "baseline": True,
    },
    # Crash/restore drill (virtual clock): per-epoch checkpoint cost under
    # 10% of the epoch, and the crash-restored run lands on bit-identical
    # centroids.
    "ckpt_recovery": {
        "ceilings": {"ckpt_overhead_fraction": 0.10},
        "exact": {"restore_identical": 1.0},
    },
    # A rank killed mid-epoch: survivors must detect, fence, re-home and
    # converge. Ceilings are generous multiples of observed values (~1e-4
    # recovery fraction, ~0.017 retransmit overhead); survivor centroids
    # may differ from the fault-free run only by reduce-tree reassociation.
    "node_failure": {
        "ceilings": {
            "recovery_time_fraction": 0.30,
            "retransmit_overhead": 0.10,
            "max_centroid_diff": 1e-6,
        },
        "exact": {"converged": 1.0, "pages_lost": 0.0},
    },
    # Optimistic read fast path (DESIGN.md §14). hit_ratio and retry_rate
    # are counters; p99_speedup is the queue path's wall p99 over the
    # optimistic path's at 8 readers in the same run.
    "readpath": {
        "ceilings": {"retry_rate": 0.05},
        "floors": {"hit_ratio": 0.95, "p99_speedup": 3.0},
        "explain": {"p99_speedup": ("queue_p99_ns", "optimistic_p99_ns")},
    },
    # Graph500-style BFS: depths identical to the in-memory reference, and
    # a TEPS floor on the virtual clock (observed ~1.2e7).
    "bfs": {
        "floors": {"teps": 5.0e6},
        "exact": {"bfs_identical": 1.0},
    },
    # Critical-path attribution (DESIGN.md §11): coverage in [1.0, 1.05]
    # per analyzed epoch (the 5% headroom covers spans straddling epoch
    # edges), at least one epoch analyzed, and a non-degenerate attributed
    # sum (all-zero buckets also give coverage 1.0).
    "fig7_tiering": {
        "ceilings": {"critpath_coverage_max": 1.05},
        "floors": {
            "critpath_coverage_min": 1.0,
            "critpath_epochs": 1.0,
            "critpath_attributed_ms": 1.0,
        },
    },
    # Ordered index (DESIGN.md §15): the read-heavy mix's wall p99 Get
    # against its queue-path-only ablation in the same run, optimistic
    # restarts under 5%, scans in exact sorted order, and the DSM run
    # bit-exact with its std::map oracle across 3 seeds.
    "ycsb": {
        "ceilings": {"restart_rate": 0.05},
        "floors": {"p99_get_speedup": 3.0},
        "exact": {"scan_sorted": 1.0, "oracle_identical": 1.0},
        "explain": {
            "p99_get_speedup": ("c_queue_get_p99_wall_ns",
                                "c_get_p99_wall_ns"),
        },
    },
}

# (table section, label, passes, failure operator)
KINDS = (
    ("ceilings", "ceiling", lambda cur, bound: cur <= bound, ">"),
    ("floors", "floor", lambda cur, bound: cur >= bound, "<"),
    ("exact", "expected", lambda cur, bound: cur == bound, "!="),
)


def gate_table(metrics: dict, spec: dict) -> bool:
    """Gates `metrics` by one GATES entry; returns True on any failure."""
    failed = False
    for section, label, passes, op in KINDS:
        for key, bound in spec.get(section, {}).items():
            try:
                cur = metrics[key]
                bound = bound(metrics) if callable(bound) else bound
            except KeyError as missing:
                print(f"{key}: FAIL (metric {missing} missing)")
                failed = True
                continue
            status = "ok"
            if not passes(cur, bound):
                status = f"FAIL ({op} {bound:.6g})"
                failed = True
            print(f"{key}: {cur:.6g} ({label} {bound:.6g}) {status}")
            for side in spec.get("explain", {}).get(key, ()):
                print(f"  {side}: {metrics.get(side, 'missing')}")
    return failed


def gate_baseline(metrics: dict, baseline: dict, threshold: float) -> bool:
    """Gates each baseline cell by its column; returns True on any failure."""
    failed = False
    for key, base in baseline["metrics"].items():
        column = key.rpartition(".")[2]
        if key not in metrics:
            print(f"{key}: FAIL (metric missing)")
            failed = True
            continue
        cur = metrics[key]
        if column == "virtual_ns":
            ok = cur == base
            print(f"{key}: {cur!r} (expected {base!r}) "
                  f"{'ok' if ok else 'FAIL (!=)'}")
        elif column == "floor_ratio":
            limit = base * (1.0 + threshold)
            ok = cur <= limit
            print(f"{key}: {cur:.4f} vs baseline {base:.4f} "
                  f"({cur / base - 1.0:+.1%}, limit {limit:.4f}) "
                  f"{'ok' if ok else 'REGRESSION'}")
        else:
            print(f"{key}: FAIL (no gate for column {column!r})")
            ok = False
        failed |= not ok
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current")
    parser.add_argument("baseline", nargs="?", default=None,
                        help="committed baseline (required for the ledger)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max rise of a floor_ratio cell (default 0.25)")
    args = parser.parse_args(argv)

    with open(args.current) as f:
        current = json.load(f)
    name = current.get("name")
    spec = GATES.get(name)
    if spec is None:
        print(f"no gates for report {name!r}", file=sys.stderr)
        return 2
    if spec.get("baseline") and args.baseline is None:
        print(f"a baseline report is required for {name}", file=sys.stderr)
        return 2

    metrics = current.get("metrics", {})
    failed = gate_table(metrics, spec)
    if spec.get("baseline"):
        with open(args.baseline) as f:
            baseline = json.load(f)
        failed |= gate_baseline(metrics, baseline, args.threshold)

    if failed:
        print("perf smoke FAILED", file=sys.stderr)
        return 1
    print("perf smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
