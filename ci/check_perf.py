#!/usr/bin/env python3
"""Perf-smoke gate: fail when a BENCH_*.json report regresses past a gate.

Usage: check_perf.py CURRENT.json [BASELINE.json] [--threshold 0.25]

Seven report kinds are gated, keyed by the report's "name":

  hotpath        wall-clock per-access metrics compared against the
                 checked-in baseline (BASELINE.json is required). Only
                 regressions fail; improvements just print. Eviction
                 flatness and pool recycling are machine-independent and
                 asserted absolutely.
  ckpt_recovery  crash/restore invariants, all machine-independent and
                 absolute (no baseline needed): checkpoint overhead must
                 stay under 10% of the epoch time, and the restored run
                 must reproduce bit-identical results.
  node_failure   node-death recovery invariants, also absolute: the run
                 must converge despite a rank killed mid-epoch, no page
                 may be lost, and the recovery/retransmission overheads
                 must stay bounded.
  readpath       optimistic read fast path (DESIGN.md §14): the hit ratio
                 and p99 speedup over the queue path are self-relative, so
                 they gate absolutely on any machine — no baseline needed.
  bfs            Graph500-style BFS: the traversal must match the reference
                 depths exactly, and TEPS (virtual clock) must hold a floor.
  fig7_tiering   critical-path attribution coverage (DESIGN.md §11): every
                 analyzed epoch's attributed stall must fit inside the
                 measured stall (coverage in [1.0, 1.05]) and must be
                 non-degenerate. Virtual clock, so machine-independent.
  ycsb           mm::BTree ordered index (DESIGN.md §15): the read-heavy
                 mix's p99 Get speedup over its queue-path-only ablation is
                 self-relative wall clock (>= 3x), scans must come back in
                 exact sorted order, the DSM run must match its std::map
                 oracle bit-exactly across 3 seeds, and the optimistic
                 restart rate must stay under 5%.
"""

import argparse
import json
import sys

# Metrics gated relative to the baseline (lower is better).
RELATIVE_METRICS = ["scalar_ns_per_access", "span_ns_per_access"]

# Machine-independent invariants: (key, max allowed value).
ABSOLUTE_CEILINGS = [
    # O(1) eviction: per-eviction cost across an 8x resident-frame spread
    # must stay flat. The pre-rewrite full scan sat near 8.
    ("eviction_cost_flatness", 2.0),
    # Pooled payloads: once warm, page-task buffers must be recycled.
    ("task_allocs_per_op", 0.5),
]

# Telemetry must stay off the per-element fast path: tracing may add at
# most this fraction of the scalar access cost, with an absolute noise
# floor (best-of-reps wall-clock still jitters ~0.1 ns at these scales).
TELEMETRY_MAX_FRACTION = 0.02
TELEMETRY_NOISE_FLOOR_NS = 0.1

# ckpt_recovery gates (virtual-clock, so machine-independent): per-epoch
# checkpoint cost must stay under 10% of the epoch itself (ISSUE 5), and the
# crash-restored run must land on bit-identical centroids.
CKPT_CEILINGS = [
    ("ckpt_overhead_fraction", 0.10),
]
CKPT_EXACT = [
    ("restore_identical", 1.0),
]

# node_failure gates (virtual-clock, machine-independent). A rank is killed
# mid-epoch (ISSUE 6): survivors must detect, fence, re-home, and converge.
# Ceilings are generous multiples of observed values (~1e-4 recovery
# fraction, ~0.017 retransmit overhead, ~1e-14 centroid divergence).
NODE_FAILURE_CEILINGS = [
    ("recovery_time_fraction", 0.30),
    ("retransmit_overhead", 0.10),
    # Survivor centroids may diverge from the fault-free run only by
    # reduce-tree reassociation (4-rank vs 3-rank trees).
    ("max_centroid_diff", 1e-6),
]
NODE_FAILURE_EXACT = [
    ("converged", 1.0),
    ("pages_lost", 0.0),
]

# readpath gates (ISSUE 7). hit_ratio and retry_rate are pure counters;
# p99_speedup is the queue path's wall-clock p99 over the optimistic path's
# on the SAME machine in the SAME run, so it is machine-independent enough
# to gate absolutely: the fast path must be >= 3x better at 8 readers.
READPATH_CEILINGS = [
    ("retry_rate", 0.05),
]
READPATH_FLOORS = [
    ("hit_ratio", 0.95),
    ("p99_speedup", 3.0),
]

# bfs gates: exact correctness (depths identical to the in-memory
# reference) plus a TEPS floor on the virtual clock (observed ~1.2e7;
# machine-independent). Losing read-only replication or the fast path's
# round-trip savings drags TEPS well below this.
BFS_FLOORS = [
    ("teps", 5.0e6),
]
BFS_EXACT = [
    ("bfs_identical", 1.0),
]

# fig7_tiering critical-path gates (ISSUE 9). coverage = (compute +
# max(stall, attributed)) / (compute + stall) per epoch on the virtual
# clock: 1.0 means every attributed nanosecond fits inside the measured
# stall; above 1.0 the analyzer over-attributed. The 5% headroom only
# covers origin spans straddling epoch edges. At least one epoch must be
# analyzed, and attribution must be non-degenerate (all-zero buckets also
# produce coverage 1.0, so gate the attributed sum too).
FIG7_CEILINGS = [
    ("critpath_coverage_max", 1.05),
]
FIG7_FLOORS = [
    ("critpath_coverage_min", 1.0),
    ("critpath_epochs", 1.0),
    ("critpath_attributed_ms", 1.0),
]

# ycsb gates (ISSUE 10). p99_get_speedup is the queue-path ablation's
# wall-clock p99 Get latency over the latch-free run's, same machine and
# process, so it gates absolutely like readpath's. restart_rate counts
# optimistic descent restarts over all latch-free descents; the exact
# gates are pure correctness bits computed by the harness.
YCSB_CEILINGS = [
    ("restart_rate", 0.05),
]
YCSB_FLOORS = [
    ("p99_get_speedup", 3.0),
]
YCSB_EXACT = [
    ("scan_sorted", 1.0),
    ("oracle_identical", 1.0),
]


def metric(report: dict, key: str) -> float:
    """Reads a metric from the unified schema ({"metrics": {...}})."""
    return report["metrics"][key]


def gate_hotpath(current: dict, baseline: dict, threshold: float) -> bool:
    failed = False
    for key in RELATIVE_METRICS:
        cur, base = metric(current, key), metric(baseline, key)
        ratio = cur / base if base > 0 else float("inf")
        status = "ok"
        if ratio > 1.0 + threshold:
            status = "REGRESSION"
            failed = True
        print(f"{key}: {cur:.3f} vs baseline {base:.3f} "
              f"({ratio - 1.0:+.1%}) {status}")

    for key, ceiling in ABSOLUTE_CEILINGS:
        cur = metric(current, key)
        status = "ok"
        if cur > ceiling:
            status = f"FAIL (> {ceiling})"
            failed = True
        print(f"{key}: {cur:.3f} (ceiling {ceiling}) {status}")

    try:
        overhead = metric(current, "telemetry_overhead_ns")
    except KeyError:
        overhead = None
    if overhead is not None:
        ceiling = max(TELEMETRY_NOISE_FLOOR_NS,
                      TELEMETRY_MAX_FRACTION
                      * metric(current, "scalar_ns_per_access"))
        status = "ok"
        if overhead > ceiling:
            status = f"FAIL (> {ceiling:.3f})"
            failed = True
        print(f"telemetry_overhead_ns: {overhead:.3f} "
              f"(ceiling {ceiling:.3f}) {status}")
    return failed


def gate_absolute(current: dict, ceilings, exact, floors=()) -> bool:
    failed = False
    for key, ceiling in ceilings:
        cur = metric(current, key)
        status = "ok"
        if cur > ceiling:
            status = f"FAIL (> {ceiling})"
            failed = True
        print(f"{key}: {cur:.4g} (ceiling {ceiling}) {status}")
    for key, floor in floors:
        cur = metric(current, key)
        status = "ok"
        if cur < floor:
            status = f"FAIL (< {floor})"
            failed = True
        print(f"{key}: {cur:.4g} (floor {floor}) {status}")
    for key, expected in exact:
        cur = metric(current, key)
        status = "ok"
        if cur != expected:
            status = f"FAIL (!= {expected})"
            failed = True
        print(f"{key}: {cur} (expected {expected}) {status}")
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current")
    parser.add_argument("baseline", nargs="?", default=None,
                        help="baseline report (required for hotpath)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max allowed relative regression (default 0.25)")
    args = parser.parse_args()

    with open(args.current) as f:
        current = json.load(f)

    name = current.get("name", "hotpath")
    if name == "ckpt_recovery":
        failed = gate_absolute(current, CKPT_CEILINGS, CKPT_EXACT)
    elif name == "node_failure":
        failed = gate_absolute(current, NODE_FAILURE_CEILINGS,
                               NODE_FAILURE_EXACT)
    elif name == "readpath":
        failed = gate_absolute(current, READPATH_CEILINGS, [],
                               floors=READPATH_FLOORS)
    elif name == "bfs":
        failed = gate_absolute(current, [], BFS_EXACT, floors=BFS_FLOORS)
    elif name == "fig7_tiering":
        failed = gate_absolute(current, FIG7_CEILINGS, [],
                               floors=FIG7_FLOORS)
    elif name == "ycsb":
        failed = gate_absolute(current, YCSB_CEILINGS, YCSB_EXACT,
                               floors=YCSB_FLOORS)
    else:
        if args.baseline is None:
            print("a baseline report is required for hotpath gating",
                  file=sys.stderr)
            return 2
        with open(args.baseline) as f:
            baseline = json.load(f)
        failed = gate_hotpath(current, baseline, args.threshold)

    if failed:
        print("perf smoke FAILED", file=sys.stderr)
        return 1
    print("perf smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
