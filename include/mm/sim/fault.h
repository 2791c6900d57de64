// Deterministic, seedable fault injection for the simulated DMSH.
//
// The injector sits between the storage/runtime layers and the simulated
// devices: every device or backend (stager) operation first asks the
// injector for a Decision. Faults are drawn from a counter-based hash of
// (seed, stream, op index), so a given seed reproduces the exact same fault
// sequence regardless of thread interleaving — op N on a stream always
// sees the same decision, only *which* thread issues op N may vary.
//
// Three fault classes are modeled (ISSUE: robustness tentpole):
//   * transient I/O errors  — the op fails with kIoError; a retry (with a
//     new op index) usually succeeds,
//   * latency spikes        — the op succeeds but takes `spike_factor`
//     times longer, charged to the virtual clock,
//   * permanent tier death  — after `fail_after_ops` operations (or an
//     explicit FailTier call) every subsequent op on the tier returns
//     kUnavailable; the BufferManager then marks the tier dead and the
//     Service drops the lost copies (Service::DropCopy): clean pages stage
//     back in from the PFS backend on their next touch.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "mm/sim/device.h"
#include "mm/util/status.h"
#include "mm/util/yaml.h"

namespace mm::sim {

/// Deterministic process-death points along the checkpointed writeback path
/// (DESIGN.md §12 crash matrix). A crash armed at one of these fires the
/// moment execution reaches it: the reaching code abandons its operation
/// exactly as a killed process would (torn journal tail, half-written page,
/// unpublished manifest temp, partial restore) and the injector stays
/// `crashed()` so shutdown skips the clean-exit flush.
enum class CrashPoint : std::uint8_t {
  kNone = 0,
  /// Mid journal append: a torn redo record, no in-place write.
  kMidJournalAppend,
  /// Between journal append and the in-place write: record durable,
  /// backend untouched.
  kAfterJournalAppend,
  /// Mid in-place write: record durable, page torn on the backend.
  kMidInPlaceWrite,
  /// Between manifest temp write and rename: previous manifest survives.
  kMidManifestRename,
  /// Mid restore: directory partially rebuilt; restore must be rerunnable.
  kMidRestore,
};

constexpr const char* CrashPointName(CrashPoint p) {
  switch (p) {
    case CrashPoint::kNone:
      return "none";
    case CrashPoint::kMidJournalAppend:
      return "mid_journal_append";
    case CrashPoint::kAfterJournalAppend:
      return "after_journal_append";
    case CrashPoint::kMidInPlaceWrite:
      return "mid_in_place_write";
    case CrashPoint::kMidManifestRename:
      return "mid_manifest_rename";
    case CrashPoint::kMidRestore:
      return "mid_restore";
  }
  return "unknown";
}

/// Deterministic uniform draw in [0, 1) from (seed, stream, op, salt) — the
/// counter-based hash shared by the tier and network fault oracles. The
/// salt decorrelates independent fault classes for the same op.
double FaultDraw(std::uint64_t seed, std::uint64_t stream, std::uint64_t op,
                 std::uint64_t salt);

/// Per-stream fault probabilities. All rates are in [0, 1].
struct TierFaultSpec {
  /// Probability an op fails with a transient kIoError.
  double transient_error_rate = 0.0;
  /// Probability an op's device time is multiplied by latency_spike_factor.
  double latency_spike_rate = 0.0;
  double latency_spike_factor = 10.0;
  /// When > 0, the stream fails permanently once this many ops completed.
  std::uint64_t fail_after_ops = 0;

  bool any() const {
    return transient_error_rate > 0 || latency_spike_rate > 0 ||
           fail_after_ops > 0;
  }
};

/// Per-link network fault probabilities (ISSUE 6 tentpole). All rates are
/// in [0, 1]; faults are drawn per (link, message index) from the same
/// counter-based hash as the tier faults, so a seed reproduces the exact
/// fault sequence regardless of thread interleaving.
struct NetFaultSpec {
  /// Probability a message is dropped in flight. Each drop costs the sender
  /// one retransmission (virtual-clock backoff via the RTO policy).
  double drop_rate = 0.0;
  /// Probability a message is delivered twice. The mailbox's sequence
  /// numbers dedup the second copy; the spurious delivery is counted.
  double dup_rate = 0.0;
  /// Probability a message's propagation latency is multiplied by
  /// delay_spike_factor (congestion / route-flap spike).
  double delay_spike_rate = 0.0;
  double delay_spike_factor = 10.0;
  /// Network partition during a virtual-time window: links crossing the cut
  /// between nodes [0, partition_boundary) and the rest are severed from
  /// partition_start_s until partition_heal_s. Messages sent into the cut
  /// are retransmitted until the heal and delivered afterwards (a partition
  /// that never heals is modeled by killing the isolated ranks instead).
  std::size_t partition_boundary = 0;
  double partition_start_s = 0.0;
  double partition_heal_s = 0.0;

  bool any() const {
    return drop_rate > 0 || dup_rate > 0 || delay_spike_rate > 0 ||
           partition_boundary > 0;
  }
};

/// Deterministic whole-rank death (sticky, like `crashed()`): the rank
/// registers its own death at the first communication operation at/after
/// the trigger and unwinds via RankDeathError. Survivors learn of it
/// through the failure detector (kPeerDead) and run collective recovery.
struct RankKillSpec {
  int rank = -1;
  /// Kill at the first comm op whose virtual time is >= this (< 0: off).
  double at_time_s = -1.0;
  /// Kill at the Nth comm op of the rank (0: off). Exact and
  /// interleaving-independent, preferred by tests.
  std::uint64_t after_comm_ops = 0;

  bool any() const {
    return rank >= 0 && (at_time_s >= 0.0 || after_comm_ops > 0);
  }
};

/// Whole-injector configuration: one spec per device tier plus one for the
/// stager/backend path, the network link faults, and the rank-kill plan.
struct FaultConfig {
  std::uint64_t seed = 0;
  std::array<TierFaultSpec, 5> tiers;  // indexed by TierKind
  TierFaultSpec backend;
  /// Link-layer faults; consumed by sim::Network (wired by the launcher or
  /// by Network::ConfigureFaults directly, not by the Service).
  NetFaultSpec net;
  /// Rank-death plan; consumed by comm::World.
  RankKillSpec kill;

  TierFaultSpec& tier(TierKind kind) {
    return tiers[static_cast<std::size_t>(kind)];
  }
  const TierFaultSpec& tier(TierKind kind) const {
    return tiers[static_cast<std::size_t>(kind)];
  }
  bool any() const;

  /// Parses a `faults:` YAML map. Unknown keys at any level are rejected
  /// with kInvalidArgument (a typo like `transient_errror_rate` must not
  /// silently disable the fault plan). Example:
  ///   faults:
  ///     seed: 1234
  ///     nvme:
  ///       transient_error_rate: 0.1
  ///       fail_after_ops: 500
  ///     backend:
  ///       latency_spike_rate: 0.01
  ///       latency_spike_factor: 20
  ///     net:
  ///       drop_rate: 0.01
  ///       partition: {boundary: 2, start_s: 1.0, heal_s: 2.0}
  ///     kill:
  ///       rank: 3
  ///       after_comm_ops: 100
  static StatusOr<FaultConfig> FromYaml(const yaml::Node& node);
};

/// Thread-safe fault oracle. One instance per Service; shared by all
/// TierStores and the stager wrappers of that service.
class FaultInjector {
 public:
  struct Decision {
    enum class Kind { kOk, kTransient, kPermanent };
    Kind kind = Kind::kOk;
    /// Multiplier on the op's device duration (>= 1; only meaningful for
    /// kOk / kTransient decisions).
    double spike_factor = 1.0;

    bool ok() const { return kind == Kind::kOk; }
  };

  explicit FaultInjector(FaultConfig config = {}) : config_(config) {}

  /// Consumes one op on a device tier and returns the injected fault, if any.
  Decision OnDeviceOp(TierKind tier) {
    return Draw(static_cast<std::size_t>(tier));
  }

  /// Consumes one op on the stager/backend path.
  Decision OnBackendOp() { return Draw(kBackendStream); }

  /// Manually kills a tier (tests / operator-initiated failure).
  void FailTier(TierKind tier) {
    MarkFailed(static_cast<std::size_t>(tier));
  }
  void FailBackend() { MarkFailed(kBackendStream); }

  bool TierFailed(TierKind tier) const {
    return streams_[static_cast<std::size_t>(tier)].failed.load(
        std::memory_order_acquire);
  }

  const FaultConfig& config() const { return config_; }

  // --- simulated process crashes (ckpt crash matrix) ---

  /// Arms a one-shot crash: the (`skip`+1)-th time execution reaches
  /// `point`, AtCrashPoint returns true and the injector becomes
  /// `crashed()` for the rest of the service's life.
  void ArmCrash(CrashPoint point, std::uint64_t skip = 0) {
    crash_skip_.store(skip, std::memory_order_relaxed);
    crash_point_.store(static_cast<std::uint8_t>(point),
                       std::memory_order_release);
  }

  /// True exactly once, when the armed crash fires at `point`. Call sites
  /// then leave torn state behind and bail, simulating process death.
  bool AtCrashPoint(CrashPoint point) {
    if (static_cast<CrashPoint>(crash_point_.load(
            std::memory_order_acquire)) != point ||
        crashed()) {
      return false;
    }
    if (crash_skip_.fetch_sub(1, std::memory_order_acq_rel) != 0) {
      return false;
    }
    crashed_.store(true, std::memory_order_release);
    return true;
  }

  /// Immediate unconditional death (benches: kill mid-iteration).
  void ForceCrash() { crashed_.store(true, std::memory_order_release); }

  /// Sticky: the simulated process died. The service refuses further
  /// journal/backend/checkpoint work and Shutdown skips the clean-exit
  /// flush, so on-disk state is exactly what the crash left behind.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  // --- stats (monotonic counters; exposed for benches/tests) ---
  std::uint64_t transient_faults() const {
    return transient_faults_.load(std::memory_order_relaxed);
  }
  std::uint64_t latency_spikes() const {
    return latency_spikes_.load(std::memory_order_relaxed);
  }
  std::uint64_t permanent_failures() const {
    return permanent_failures_.load(std::memory_order_relaxed);
  }
  std::uint64_t ops_observed(TierKind tier) const {
    return streams_[static_cast<std::size_t>(tier)].ops.load(
        std::memory_order_relaxed);
  }
  std::uint64_t backend_ops_observed() const {
    return streams_[kBackendStream].ops.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kBackendStream = 5;
  static constexpr std::size_t kNumStreams = 6;

  struct Stream {
    std::atomic<std::uint64_t> ops{0};
    std::atomic<bool> failed{false};
  };

  const TierFaultSpec& SpecOf(std::size_t stream) const {
    return stream == kBackendStream ? config_.backend : config_.tiers[stream];
  }

  Decision Draw(std::size_t stream);
  void MarkFailed(std::size_t stream);

  FaultConfig config_;
  std::array<Stream, kNumStreams> streams_;
  std::atomic<std::uint64_t> transient_faults_{0};
  std::atomic<std::uint64_t> latency_spikes_{0};
  std::atomic<std::uint64_t> permanent_failures_{0};
  std::atomic<std::uint8_t> crash_point_{0};
  std::atomic<std::uint64_t> crash_skip_{0};
  std::atomic<bool> crashed_{false};
};

}  // namespace mm::sim
