// Compute-cost constants and financial-cost accounting.
//
// Compute is charged to virtual clocks deterministically. Constants are
// calibrated to a plausible ~2 GHz effective scalar pipeline per process
// (the paper's Xeon Silver 4114 at 48 threads/node is heavily
// oversubscribed, so per-process throughput is modest). Absolute values do
// not matter for reproduction; the compute:I/O ratio does, and these values
// put the paper's workloads in the same regime (compute-bound in DRAM,
// I/O-sensitive when spilled).
#pragma once

#include <cstdint>

#include "mm/sim/device.h"

namespace mm::sim {

struct CostModel {
  // --- per-element compute costs (seconds) ---
  double point_distance_s = 18e-9;   // 3-D euclidean distance, one centroid
  double entropy_update_s = 10e-9;   // one feature's impurity accumulation
  double cell_update_s = 14e-9;      // one Gray-Scott stencil cell update
  double kdtree_visit_s = 12e-9;     // one k-d tree node visit
  double compare_swap_s = 4e-9;      // sort/merge element step
  double memory_access_s = 1.2e-9;   // plain std::vector element access
  // The paper reports mm::Vector adds ~2 int ops + a conditional (~5%
  // overhead on an iterative multiply workload, §III-E).
  double mm_access_overhead_s = 0.35e-9;

  // DRAM-to-DRAM copy bandwidth (eviction copies dirty bytes out of the
  // pcache; the application pays only this copy, paper §III-B).
  double memcpy_Bps = 8e9;

  // --- software-path costs (seconds) ---
  double task_dispatch_s = 1.5e-6;   // dispatch one runtime call
  double page_fault_soft_s = 0.8e-6; // library fault-path bookkeeping
  double jvm_dispatch_s = 12e-6;     // Spark-style task dispatch (JVM, ser/de)

  static const CostModel& Default();
};

/// Dollar cost of a tier composition, Fig. 7 style: sum over devices of
/// (capacity granted to the program in GB) x ($/GB).
double DollarsForCapacity(const DeviceSpec& spec, std::uint64_t bytes_granted);

}  // namespace mm::sim
