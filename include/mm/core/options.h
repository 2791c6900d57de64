// Configuration for the MegaMmap service and per-vector behavior. All
// settings are available both programmatically and via the YAML config
// (paper §III-A: "the MegaMmap configuration YAML file").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mm/ckpt/options.h"
#include "mm/core/coherence.h"
#include "mm/sim/fault.h"
#include "mm/storage/buffer_manager.h"
#include "mm/util/byte_units.h"
#include "mm/util/retry.h"
#include "mm/util/status.h"
#include "mm/util/yaml.h"

namespace mm::core {

/// Observability knobs (DESIGN.md §11). Metric counters are always live;
/// these options arm the trace recorder, the flight ring and the epoch
/// report file.
struct TelemetryOptions {
  /// Non-empty: record virtual-clock spans and write a Chrome/Perfetto
  /// trace (chrome://tracing, https://ui.perfetto.dev) here at Shutdown.
  /// Tracing is on exactly when this is set.
  std::string trace_path;
  /// Trace ring-buffer capacity in events (oldest dropped when full).
  std::uint64_t trace_capacity = 1 << 16;
  /// Minimum virtual seconds between epochs emitted by MaybeEpochReport;
  /// <= 0 disables pacing entirely (MaybeEpochReport becomes a no-op; call
  /// EpochReport directly for unthrottled epochs).
  double report_interval_s = 0.0;
  /// Non-empty: per-epoch JSON lines are appended here.
  std::string report_path;
  /// Non-empty: arms the crash flight recorder. A ring of the most recent
  /// spans (TraceRecorder::kFlightSpans) is kept even when trace_path is
  /// unset, and crash points / rank kills / kDataLoss dump
  /// `flightrec_<rank>.json` into this directory as a postmortem.
  std::string flightrec_dir;
};

/// Per-vector knobs. Page size is immutable after creation (paper §III-C:
/// "immutable after the creation of the vector").
struct VectorOptions {
  /// Page size in bytes (rounded down to a whole number of elements).
  std::uint64_t page_size = 64 * kKiB;
  /// Maximum pcache bytes per process for this vector (BoundMemory).
  std::uint64_t pcache_bytes = 16 * kMiB;
  /// Coherence policy for the current phase.
  CoherenceMode mode = CoherenceMode::kReadWriteGlobal;
  /// Minimum prefetcher score still worth recording (Algorithm 1 input).
  double min_score = 0.25;
  /// Pages fetched ahead asynchronously into the pcache during sequential
  /// or predictable transactions.
  int prefetch_depth = 4;
  /// Volatile vectors are never staged to a backend.
  bool nonvolatile = true;
};

/// What survivors do with a dead node's DSM pages after fencing it
/// (DESIGN.md §13).
enum class RecoveryPolicy {
  /// Re-home: clean pages re-stage lazily from the backend; dirty pages are
  /// replayed from the dead node's redo journal when journaled writeback is
  /// on, else surface as kDataLoss.
  kRehome,
  /// Roll back: restore every vector from the last collective checkpoint
  /// and redo the lost epoch.
  kRollback,
};

/// Per-job service knobs.
struct ServiceOptions {
  /// scache capacity granted on each node, fastest-first (Fig. 7 sweeps
  /// this). Empty means "all of DRAM+NVMe at paper defaults" is NOT
  /// assumed; callers must set grants explicitly.
  std::vector<storage::TierGrant> tier_grants;
  /// Score updates between Data Organizer rebalance sweeps.
  int organize_every = 64;
  /// Master switches used by the scalability study (Fig. 5 runs MegaMmap
  /// "with no optimizations enabled") and the ablations.
  bool enable_prefetch = true;
  bool enable_organizer = true;
  /// Verify per-page CRC-32 on reads that already pay a metadata lookup;
  /// mismatches on clean pages self-heal from the backend, mismatches on
  /// dirty pages surface as kDataLoss.
  bool verify_checksums = true;

  /// Retry/backoff applied to tier and stager I/O (backoff lands on the
  /// virtual clock).
  RetryPolicy retry;
  /// Fault-injection plan (defaults to no faults).
  sim::FaultConfig faults;
  /// Observability: trace recording and per-epoch runtime reports.
  TelemetryOptions telemetry;
  /// Crash consistency (DESIGN.md §12): journaled writeback and epoch
  /// checkpoints, both on exactly when `ckpt.dir` is set.
  ckpt::CkptOptions ckpt;
  /// How ckpt::CollectiveRecover treats a dead node's pages.
  RecoveryPolicy recovery_policy = RecoveryPolicy::kRehome;

  /// Parses a service config from YAML; a `runtime:`, `telemetry:` or
  /// `ckpt:` key it does not know is an InvalidArgument error naming the
  /// key. E.g.:
  ///   runtime:
  ///     organize_every: 64
  ///     recovery_policy: rehome   # or: rollback
  ///   tiers:
  ///     - kind: dram
  ///       capacity: 1g
  ///     - kind: nvme
  ///       capacity: 4g
  ///   retry:
  ///     max_attempts: 4
  ///     initial_backoff_s: 0.0001
  ///   faults:
  ///     seed: 42
  ///     nvme:
  ///       transient_error_rate: 0.01
  ///   telemetry:
  ///     trace_path: /tmp/mm_trace.json
  ///     report_interval_s: 1.0
  ///     report_path: /tmp/mm_report.jsonl
  ///   ckpt:
  ///     dir: /tmp/mm_ckpt
  static StatusOr<ServiceOptions> FromYaml(const yaml::Node& root);
};

}  // namespace mm::core
