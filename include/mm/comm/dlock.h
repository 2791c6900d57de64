// Distributed lock (paper §III-A "Supporting Arbitrary Application
// Structures": MegaMmap provides distributed locks and barriers).
//
// The lock is homed on a node; acquisition is modeled as a request/grant
// round trip to the home node. The home node keeps the lock's virtual holds
// as a calendar (sim::BusyChannel): a request is granted at the earliest
// instant at or after its arrival that no hold covers, so a rank waits only
// for holds that start before its request in virtual time. A hold's length
// is known only at release, so it is booked then, in the earliest gap from
// its request that fits it; a hold that outgrew its gap moves after the
// booking it would overlap, and its holder's clock advances by the shift.
// Real-thread mutual exclusion is provided by an actual mutex so the
// protected critical sections are genuinely exclusive.
#pragma once

#include "mm/comm/world.h"
#include "mm/sim/virtual_clock.h"
#include "mm/util/mutex.h"

namespace mm::comm {

class DistributedLock {
 public:
  /// Creates a lock homed on `home_node` of the world's cluster.
  DistributedLock(World* world, std::size_t home_node)
      : DistributedLock(&world->cluster(), home_node) {}

  /// Same lock, identified by the cluster alone — for holders that outlive
  /// or predate any World (e.g. the Service-registered named locks that
  /// mm::BTree leases; Service::GetDistributedLock).
  DistributedLock(sim::Cluster* cluster, std::size_t home_node)
      : cluster_(cluster), home_node_(home_node) {}

  /// Blocks until the lock is held; charges the round trip and any wait for
  /// a hold that covers the request's arrival to the caller's virtual clock.
  void Acquire(RankContext& ctx) MM_ACQUIRE(mu_);

  /// Releases the lock: books the hold and charges any shift it took.
  void Release(RankContext& ctx) MM_RELEASE(mu_);

  /// Virtual time requests waited for the lock, summed over every hold:
  /// from a request's arrival at the home node to where its hold was booked.
  sim::ChannelWait wait() const { return holds_.wait(); }

  /// RAII guard.
  class Guard {
   public:
    Guard(DistributedLock& lock, RankContext& ctx) : lock_(lock), ctx_(ctx) {
      lock_.Acquire(ctx_);
    }
    ~Guard() { lock_.Release(ctx_); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    DistributedLock& lock_;
    RankContext& ctx_;
  };

 private:
  sim::Cluster* cluster_;
  std::size_t home_node_;
  Mutex mu_;
  /// Booked holds, each from its grant at the home node to its release's
  /// arrival there. Internally locked; booked only under mu_, so a fit
  /// found under mu_ is still free when the hold is booked.
  sim::BusyChannel holds_;
  /// The current holder's request arrival and grant at the home node.
  sim::SimTime requested_ MM_GUARDED_BY(mu_) = 0.0;
  sim::SimTime granted_ MM_GUARDED_BY(mu_) = 0.0;
};

}  // namespace mm::comm
