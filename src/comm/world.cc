#include "mm/comm/world.h"

#include <algorithm>
#include <cmath>

#include "mm/util/status.h"

namespace mm::comm {

World::World(sim::Cluster* cluster, int num_ranks, int ranks_per_node,
             WorldOptions options)
    : cluster_(cluster),
      num_ranks_(num_ranks),
      ranks_per_node_(ranks_per_node),
      options_(options),
      costs_(sim::CostModel::Default()),
      dead_(static_cast<std::size_t>(num_ranks)),
      death_time_(static_cast<std::size_t>(num_ranks)),
      comm_ops_(static_cast<std::size_t>(num_ranks)),
      live_ranks_(num_ranks),
      send_seq_(static_cast<std::size_t>(num_ranks) * num_ranks),
      critpath_compute_ns_(static_cast<std::size_t>(num_ranks)),
      critpath_stall_ns_(static_cast<std::size_t>(num_ranks)),
      parked_gen_(static_cast<std::size_t>(num_ranks), kNotParked) {
  MM_CHECK(num_ranks > 0 && ranks_per_node > 0);
  MM_CHECK_MSG(static_cast<std::size_t>((num_ranks + ranks_per_node - 1) /
                                        ranks_per_node) <=
                   cluster->num_nodes(),
               "not enough nodes for the requested rank layout");
  mailboxes_.reserve(num_ranks);
  for (int i = 0; i < num_ranks; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    dead_[i].store(false, std::memory_order_relaxed);
    death_time_[i].store(0.0, std::memory_order_relaxed);
    comm_ops_[i].store(0, std::memory_order_relaxed);
    critpath_compute_ns_[i].store(0, std::memory_order_relaxed);
    critpath_stall_ns_[i].store(0, std::memory_order_relaxed);
  }
  for (auto& seq : send_seq_) seq.store(0, std::memory_order_relaxed);
}

std::pair<std::uint64_t, std::uint64_t> World::CritpathTotals() const {
  std::uint64_t compute = 0;
  std::uint64_t stall = 0;
  for (int r = 0; r < num_ranks_; ++r) {
    compute += critpath_compute_ns_[r].load(std::memory_order_relaxed);
    stall += critpath_stall_ns_[r].load(std::memory_order_relaxed);
  }
  return {compute, stall};
}

std::vector<int> World::LiveRanks() const {
  std::vector<int> live;
  live.reserve(static_cast<std::size_t>(num_ranks_));
  for (int r = 0; r < num_ranks_; ++r) {
    if (!RankDead(r)) live.push_back(r);
  }
  return live;
}

bool World::NodeIsDead(std::size_t node) const {
  bool any = false;
  for (int r = 0; r < num_ranks_; ++r) {
    if (NodeOfRank(r) != node) continue;
    any = true;
    if (!RankDead(r)) return false;
  }
  return any;
}

void World::KillRank(int rank, sim::SimTime now) {
  MM_CHECK(rank >= 0 && rank < num_ranks_);
  // Time-of-death is stored before the flag: the flag's release-store
  // publishes it to detectors that acquire-load the flag.
  death_time_[rank].store(now, std::memory_order_relaxed);
  bool expected = false;
  if (!dead_[rank].compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
    return;  // already dead (sticky)
  }
  live_ranks_.fetch_sub(1, std::memory_order_acq_rel);
  membership_epoch_.fetch_add(1, std::memory_order_acq_rel);
  {
    // Retract a parked arrival so the barrier does not count the dead rank
    // toward the current generation's release.
    MutexLock lock(barrier_mu_);
    if (parked_gen_[rank] == barrier_generation_) {
      parked_gen_[rank] = kNotParked;
      --barrier_count_;
    }
  }
  barrier_cv_.NotifyAll();
  for (auto& mb : mailboxes_) mb->Interrupt();
  // Postmortem hook, outside every World lock and only on the winning
  // registration: the observer may take service-side leaf locks to dump a
  // flight record.
  if (options_.death_observer) options_.death_observer(rank, now);
}

void World::MaybeSelfKill(int rank, sim::SimTime now) {
  const sim::RankKillSpec& kill = options_.kill;
  if (!kill.any() || kill.rank != rank || RankDead(rank)) return;
  std::uint64_t op =
      comm_ops_[rank].fetch_add(1, std::memory_order_relaxed) + 1;
  bool trigger = (kill.after_comm_ops > 0 && op >= kill.after_comm_ops) ||
                 (kill.at_time_s >= 0.0 && now >= kill.at_time_s);
  if (!trigger) return;
  KillRank(rank, now);
  throw RankDeathError(rank);
}

void World::Revoke() {
  revoked_.store(true, std::memory_order_release);
  for (auto& mb : mailboxes_) mb->Interrupt();
}

std::size_t World::FenceDeadRanks() {
  std::size_t purged = 0;
  for (auto& mb : mailboxes_) purged += mb->Purge();
  return purged;
}

sim::SimTime World::Barrier(int rank, sim::SimTime arrival) {
  return Barrier(rank, arrival, nullptr);
}

sim::SimTime World::Barrier(
    int rank, sim::SimTime arrival,
    const std::function<sim::SimTime(sim::SimTime)>* serial) {
  if (RankDead(rank)) throw RankDeathError(rank);
  sim::SimTime sync = 0.0;
  std::uint64_t my_generation = 0;
  {
    MutexLock lock(barrier_mu_);
    my_generation = barrier_generation_;
    barrier_max_ = std::max(barrier_max_, arrival);
    ++barrier_count_;
    parked_gen_[rank] = my_generation;
    while (true) {
      // Death first: a rank killed while parked must unwind even when the
      // survivors' release already bumped the generation before it woke —
      // otherwise the dead rank escapes the barrier alive.
      if (RankDead(rank)) {
        // Retract the arrival (unless KillRank or the releaser already
        // did); the remaining live ranks release without us.
        if (parked_gen_[rank] == my_generation) {
          parked_gen_[rank] = kNotParked;
          --barrier_count_;
        }
        barrier_cv_.NotifyAll();
        throw RankDeathError(rank);
      }
      if (barrier_generation_ != my_generation) {
        // Released by another rank (parked_gen_ was cleared by it).
        return barrier_release_;
      }
      // Release condition: every live rank has arrived. Deaths lower the
      // live count (KillRank retracts parked arrivals), so a barrier never
      // waits for a rank that can no longer arrive.
      if (!barrier_releasing_ &&
          barrier_count_ >= live_ranks_.load(std::memory_order_acquire)) {
        barrier_releasing_ = true;
        parked_gen_[rank] = kNotParked;
        // The synchronization itself costs a tree of small messages:
        // latency * ceil(log2(live)).
        int n = std::max(1, live_ranks_.load(std::memory_order_acquire));
        double depth =
            n > 1 ? std::ceil(std::log2(static_cast<double>(n))) : 0.0;
        sync = barrier_max_ + depth * cluster_->network().spec().latency_s;
        break;
      }
      barrier_cv_.Wait(lock);
    }
  }
  // Releaser path. The serial section runs before the generation bump:
  // every other live rank is parked and none returns until the bump below,
  // so the section owns the world. Running it outside the lock keeps the
  // barrier state clean if it recurses into comm code.
  sim::SimTime release = sync;
  if (serial != nullptr && *serial) {
    release = std::max(release, (*serial)(sync));
  }
  {
    MutexLock lock(barrier_mu_);
    barrier_release_ = release;
    barrier_count_ = 0;
    barrier_max_ = 0.0;
    barrier_releasing_ = false;
    for (auto& g : parked_gen_) {
      if (g == my_generation) g = kNotParked;
    }
    ++barrier_generation_;
  }
  barrier_cv_.NotifyAll();
  return release;
}

}  // namespace mm::comm
