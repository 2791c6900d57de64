// Conservative virtual-time substrate.
//
// The reproduction environment has one physical core and no cluster, so
// performance results are produced under a deterministic virtual-time model
// (DESIGN.md §5): every simulated rank owns a VirtualClock; compute is
// charged explicitly via the CostModel; communication and device access
// charge latency + bytes/bandwidth; a receive advances the receiver to at
// least the sender's stamp plus the message cost; barriers advance everyone
// to the global max.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "mm/util/mutex.h"

namespace mm::sim {

/// Simulated time in seconds.
using SimTime = double;

/// One rank's critical-path sinks, on a cache line of its own so ranks
/// charging concurrently never share one. Only the owning rank writes its
/// slot (a relaxed load and store, no read-modify-write); anyone may read.
struct alignas(64) CritpathSlot {
  std::atomic<std::uint64_t> compute_ns{0};
  std::atomic<std::uint64_t> stall_ns{0};
};

/// Per-rank virtual clock. Thread-confined: only the owning rank thread
/// mutates it, so no locking is needed on the hot path.
///
/// Critical-path sinks: every Advance() is compute and every forward
/// AdvanceTo() delta is a stall, so together the two sinks account for
/// the rank's entire wall time (compute_ns + stall_ns == now in ns).
/// The sinks are a raw CritpathSlot rather than telemetry handles because
/// sim sits below telemetry in the layering; comm::World owns one slot per
/// rank and the service bridges their totals into mm.critpath.*.
class VirtualClock {
 public:
  VirtualClock() = default;

  SimTime now() const { return now_; }

  /// Charges `seconds` of virtual time (compute, local work).
  void Advance(SimTime seconds) {
    now_ += seconds;
    if (sinks_ != nullptr && seconds > 0) Add(sinks_->compute_ns, seconds);
  }

  /// Moves the clock forward to `t` if `t` is later (blocking waits,
  /// message receives, synchronous I/O completions).
  void AdvanceTo(SimTime t) {
    if (t <= now_) return;
    if (sinks_ != nullptr) Add(sinks_->stall_ns, t - now_);
    now_ = t;
  }

  /// Points the compute/stall accumulators at a caller-owned slot that
  /// this clock's thread alone writes (nullptr detaches).
  void SetCritpathSinks(CritpathSlot* sinks) { sinks_ = sinks; }

  void Reset() { now_ = 0.0; }

 private:
  /// A single writer needs no atomic add: the store publishes the sum.
  /// Always inlined: every scalar Vector::Read pays this charge, and GCC's
  /// per-file inline budget otherwise decides, file by file, whether it is
  /// a call.
  [[gnu::always_inline]] static void Add(std::atomic<std::uint64_t>& sink,
                                         SimTime seconds) {
    sink.store(sink.load(std::memory_order_relaxed) +
                   static_cast<std::uint64_t>(seconds * 1e9),
               std::memory_order_relaxed);
  }

  SimTime now_ = 0.0;
  CritpathSlot* sinks_ = nullptr;
};

/// Device or NIC time a set of channels charged as waiting: `wait_s` sums,
/// over every request, how long it started after its own earliest start;
/// `skew_s` is the part charged to requests placed after a booking that
/// starts later in virtual time than they do. Such a booking was made by a
/// rank running ahead of the waiting one, so that wait is clock skew
/// between free-running ranks rather than contention.
struct ChannelWait {
  double wait_s = 0.0;
  double skew_s = 0.0;

  ChannelWait& operator+=(const ChannelWait& other) {
    wait_s += other.wait_s;
    skew_s += other.skew_s;
    return *this;
  }
};

/// A serialized shared resource (device channel, PFS stripe server, NIC
/// lane), kept as a calendar of busy intervals: a request takes the
/// earliest gap at or after its own start that fits its duration, so a
/// rank that is behind in virtual time backfills the gap before a booking
/// a rank ahead of it already made, instead of queueing behind it.
/// Thread-safe; rank threads contend for the same channels.
///
/// The calendar holds at most kKeep intervals, sorted and disjoint;
/// touching bookings coalesce. When one more is needed the oldest folds
/// into `floor_`, before which the channel counts as solidly busy: a
/// request that starts before `floor_` waits until `floor_`, as a FIFO
/// channel would make it. Known limit: a backfilled request never pushes
/// back a booking that is already made, so contention between a request
/// early in virtual time but late in wall time and the bookings after it
/// is slightly under-charged.
class BusyChannel {
 public:
  static constexpr std::size_t kKeep = 64;

  /// Start of the earliest gap at or after `earliest` that fits `duration`.
  SimTime EarliestFit(SimTime earliest, SimTime duration) const;

  /// Books `duration` from `start` if `start` is still the earliest fit for
  /// a request from `earliest`; false if another request took that gap
  /// after EarliestFit returned it. Callers go through ReserveLeastBusy.
  bool BookIfEarliest(SimTime start, SimTime earliest, SimTime duration);

  ChannelWait wait() const;
  std::size_t intervals() const;
  SimTime floor() const;

  void Reset();

 private:
  struct Busy {
    SimTime begin;
    SimTime end;
    /// Latest start among the bookings coalesced into this interval.
    SimTime last_start;
  };
  struct Fit {
    SimTime start;
    std::size_t at;  // index of the first interval after the gap
    bool skew;       // placed after a booking that starts after `earliest`
  };
  Fit FindFit(SimTime earliest, SimTime duration) const MM_REQUIRES(mu_);

  // mm-verify: leaf-lock(calendar intervals only, never calls out while held)
  mutable Mutex mu_;
  std::vector<Busy> busy_ MM_GUARDED_BY(mu_);
  SimTime floor_ MM_GUARDED_BY(mu_) = 0.0;
  /// Latest booking start folded into `floor_`.
  SimTime floor_last_start_ MM_GUARDED_BY(mu_) = 0.0;
  ChannelWait wait_ MM_GUARDED_BY(mu_);
};

/// Reserves `duration` from `earliest` on whichever of `channels` (device
/// channels, stripe servers, NIC lanes) has the earliest fitting gap, the
/// first such channel on a tie. If another request took that gap between
/// the scan and the booking, the scan reruns: a channel's earliest fit only
/// moves later, so one whose fit is unchanged is still a best pick.
/// Returns the completion time.
inline SimTime ReserveLeastBusy(std::span<BusyChannel> channels,
                                SimTime earliest, SimTime duration) {
  while (true) {
    std::size_t best = 0;
    SimTime best_t = channels[0].EarliestFit(earliest, duration);
    for (std::size_t i = 1; i < channels.size() && best_t > earliest; ++i) {
      SimTime t = channels[i].EarliestFit(earliest, duration);
      if (t < best_t) {
        best_t = t;
        best = i;
      }
    }
    if (channels[best].BookIfEarliest(best_t, earliest, duration)) {
      return best_t + duration;
    }
  }
}

}  // namespace mm::sim
