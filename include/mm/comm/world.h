// World: the process group of a simulated job. Owns the mailboxes, the
// rank→node placement, the barrier machinery, and — since the robustness
// PR (DESIGN.md §13) — the membership state: which ranks are alive, the
// failure-detector parameters, per-channel sequence counters, and the
// communicator revocation flag used by collective recovery. Created by
// RunRanks (launch.h); application code talks to it through Communicator.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mm/comm/message.h"
#include "mm/sim/cluster.h"
#include "mm/sim/cost_model.h"
#include "mm/sim/fault.h"
#include "mm/sim/virtual_clock.h"
#include "mm/telemetry/metrics.h"
#include "mm/telemetry/trace.h"
#include "mm/util/mutex.h"

namespace mm::comm {

/// Thrown by a rank that just registered its own death (RankKillSpec
/// trigger): the rank unwinds out of the application body exactly like a
/// SimOutOfMemoryError, and the launcher reports it in
/// RunResult::dead_ranks rather than as a job error.
class RankDeathError : public std::runtime_error {
 public:
  explicit RankDeathError(int rank)
      : std::runtime_error("rank " + std::to_string(rank) +
                           " killed by fault injection"),
        rank_(rank) {}
  int rank() const { return rank_; }

 private:
  int rank_;
};

/// Failure-detector knobs (DESIGN.md §13): a peer is declared dead after
/// `miss_threshold` consecutive missed heartbeats, so the virtual-time cost
/// of a death verdict is heartbeat_interval_s * miss_threshold.
struct FailureDetectorOptions {
  double heartbeat_interval_s = 250e-6;
  int miss_threshold = 4;

  double DetectionLatency() const {
    return heartbeat_interval_s * miss_threshold;
  }
};

/// Launch-time robustness configuration of a World.
struct WorldOptions {
  sim::RankKillSpec kill;
  FailureDetectorOptions detector;
  /// Invoked once per rank death, after the death is registered and the
  /// rank's barrier/receive parks are released, outside any World lock.
  /// The flight-recorder wiring uses this to dump a postmortem
  /// (flightrec_<rank>.json) at the moment of a kill.
  std::function<void(int rank, sim::SimTime now)> death_observer;
};

class World {
 public:
  /// Ranks are laid out block-wise over nodes: rank r lives on node
  /// r / ranks_per_node.
  World(sim::Cluster* cluster, int num_ranks, int ranks_per_node,
        WorldOptions options = {});

  int num_ranks() const { return num_ranks_; }
  int ranks_per_node() const { return ranks_per_node_; }
  std::size_t NodeOfRank(int rank) const {
    return static_cast<std::size_t>(rank / ranks_per_node_);
  }

  sim::Cluster& cluster() { return *cluster_; }
  const sim::CostModel& costs() const { return costs_; }
  Mailbox& mailbox(int rank) { return *mailboxes_[rank]; }
  const FailureDetectorOptions& detector() const { return options_.detector; }

  /// Comm-layer metrics (mm.net.*): retransmissions mirrored from the
  /// network model, heartbeat misses charged by death verdicts.
  telemetry::MetricsRegistry& metrics() { return metrics_; }

  /// Trace recorder for comm-layer spans (msg_send/msg_recv flows).
  /// Defaults to the never-enabled dummy; benches and tests point it at
  /// the service's recorder to get one merged timeline.
  void set_trace(telemetry::TraceRecorder* trace) { trace_ = trace; }
  telemetry::TraceRecorder& trace() { return *trace_; }

  // ---- critical-path wall accounting (DESIGN.md §11) ----

  /// A rank's compute/stall accumulators, fed by its RankContext clock
  /// (see VirtualClock::SetCritpathSinks).
  sim::CritpathSlot* CritpathSinks(int rank) { return &critpath_[rank]; }
  /// Totals across ranks: {compute_ns, stall_ns}. compute + stall equals
  /// the sum of every rank's clock position, exactly.
  std::pair<std::uint64_t, std::uint64_t> CritpathTotals() const;

  /// Next sequence number on the (src → dst) channel (1-based; 0 means
  /// unsequenced in Message).
  std::uint64_t NextSeq(int src, int dst) {
    return send_seq_[static_cast<std::size_t>(src) * num_ranks_ + dst]
               .fetch_add(1, std::memory_order_relaxed) +
           1;
  }

  // ---- membership (DESIGN.md §13) ----

  /// Sticky rank death at virtual time `now`: removes the rank from the
  /// live set, releases it from a barrier it may be parked in, and
  /// interrupts every blocked receive so cancellation predicates re-run.
  void KillRank(int rank, sim::SimTime now);

  bool RankDead(int rank) const {
    return dead_[rank].load(std::memory_order_acquire);
  }
  /// Virtual time of death (meaningful only when RankDead(rank)).
  sim::SimTime DeathTime(int rank) const {
    return death_time_[rank].load(std::memory_order_relaxed);
  }
  int live_ranks() const {
    return live_ranks_.load(std::memory_order_acquire);
  }
  std::vector<int> LiveRanks() const;
  /// Bumped on every death; lets survivors detect membership changes.
  std::uint64_t membership_epoch() const {
    return membership_epoch_.load(std::memory_order_acquire);
  }
  /// True when every rank placed on `node` is dead.
  bool NodeIsDead(std::size_t node) const;

  /// Self-kill hook called by Communicator at every comm operation: when
  /// the kill plan triggers for `rank`, registers the death and throws
  /// RankDeathError. The per-rank op counter makes `after_comm_ops`
  /// triggers exact regardless of interleaving.
  void MaybeSelfKill(int rank, sim::SimTime now);

  // ---- revocation & fencing (collective recovery) ----

  /// Marks the world's communicators revoked: every pending and future
  /// cancellable receive returns kPeerDead so all survivors abandon their
  /// half-finished collectives and converge on the recovery barrier
  /// (ULFM-style revoke).
  void Revoke();
  bool Revoked() const { return revoked_.load(std::memory_order_acquire); }
  /// Cleared by the recovery leader inside the barrier serial section, once
  /// every survivor is parked and the dead are fenced.
  void ClearRevoke() { revoked_.store(false, std::memory_order_release); }

  /// Purges every queued message from all mailboxes — the dead ranks'
  /// in-flight traffic and the survivors' stale messages from abandoned
  /// collectives or earlier Split communicators — so none can leak into the
  /// recovered epoch. Idempotent; call while every live rank is parked in a
  /// barrier serial section. Returns messages purged.
  std::size_t FenceDeadRanks();

  // ---- barrier ----

  /// Global barrier across all *live* ranks: blocks until every live rank
  /// arrives, and advances every participant's virtual time to the max
  /// arrival time plus a log(n) synchronization cost. A rank killed while
  /// parked is released immediately and unwinds via RankDeathError; the
  /// remaining live ranks release without it.
  sim::SimTime Barrier(int rank, sim::SimTime arrival);

  /// Barrier with a serial section: the last-arriving rank runs `serial`
  /// ALONE — every other rank stays parked until it finishes — passing the
  /// post-synchronization virtual time and returning its completion time.
  /// Everyone is then released at max(serial completion, sync time). Used
  /// by collective checkpoints, where quiesce-and-publish must not race
  /// application traffic from other ranks. `serial` may be null.
  sim::SimTime Barrier(int rank, sim::SimTime arrival,
                       const std::function<sim::SimTime(sim::SimTime)>* serial);

 private:
  static constexpr std::uint64_t kNotParked = ~std::uint64_t{0};

  sim::Cluster* cluster_;
  int num_ranks_;
  int ranks_per_node_;
  WorldOptions options_;
  sim::CostModel costs_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  // Membership. dead_ flags are written once (CAS) after death_time_, so an
  // acquire-load of the flag also sees the time.
  std::vector<std::atomic<bool>> dead_;
  std::vector<std::atomic<double>> death_time_;
  std::vector<std::atomic<std::uint64_t>> comm_ops_;
  std::atomic<int> live_ranks_;
  std::atomic<std::uint64_t> membership_epoch_{0};
  std::atomic<bool> revoked_{false};
  std::vector<std::atomic<std::uint64_t>> send_seq_;
  telemetry::MetricsRegistry metrics_;
  telemetry::TraceRecorder* trace_ = &telemetry::TraceRecorder::Dummy();
  std::vector<sim::CritpathSlot> critpath_;

  // Reusable generation-counted barrier, death-aware: the release condition
  // is "every live rank arrived"; parked_gen_ records which generation a
  // rank is parked in so KillRank can retract its arrival.
  Mutex barrier_mu_;
  CondVar barrier_cv_;
  int barrier_count_ MM_GUARDED_BY(barrier_mu_) = 0;
  std::uint64_t barrier_generation_ MM_GUARDED_BY(barrier_mu_) = 0;
  sim::SimTime barrier_max_ MM_GUARDED_BY(barrier_mu_) = 0.0;
  sim::SimTime barrier_release_ MM_GUARDED_BY(barrier_mu_) = 0.0;
  bool barrier_releasing_ MM_GUARDED_BY(barrier_mu_) = false;
  std::vector<std::uint64_t> parked_gen_ MM_GUARDED_BY(barrier_mu_);
};

/// Per-rank execution context handed to the application body. Carries the
/// rank id, its virtual clock, and the world.
class RankContext {
 public:
  RankContext(World* world, int rank) : world_(world), rank_(rank) {
    // Route this rank's compute/stall into the world's critical-path
    // accounting; compute + stall then equals wall time per rank.
    clock_.SetCritpathSinks(world_->CritpathSinks(rank));
  }

  int rank() const { return rank_; }
  int size() const { return world_->num_ranks(); }
  std::size_t node() const { return world_->NodeOfRank(rank_); }
  World& world() { return *world_; }
  sim::VirtualClock& clock() { return clock_; }
  const sim::CostModel& costs() const { return world_->costs(); }

  /// Charges compute time to this rank's virtual clock.
  void Compute(double seconds) { clock_.Advance(seconds); }

 private:
  World* world_;
  int rank_;
  sim::VirtualClock clock_;
};

}  // namespace mm::comm
