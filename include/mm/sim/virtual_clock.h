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

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>

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

/// A serialized shared resource (device channel, NIC): requests queue behind
/// one another. Thread-safe; multiple rank threads contend for the same
/// device.
class BusyChannel {
 public:
  /// Reserves the channel for `duration` starting no earlier than
  /// `earliest`, but only while it is still busy until `seen`: a pick made
  /// by reading `seen` cannot land behind a request that took the channel
  /// in between. Callers go through ReserveLeastBusy.
  bool ReserveIfUnchanged(SimTime seen, SimTime earliest, SimTime duration) {
    double expected = seen;
    return busy_until_.compare_exchange_strong(
        expected, std::max(earliest, seen) + duration,
        std::memory_order_acq_rel);
  }

  SimTime busy_until() const {
    return busy_until_.load(std::memory_order_relaxed);
  }

  void Reset() { busy_until_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> busy_until_{0.0};
};

/// Reserves `duration` from `earliest` on the least-busy of `channels`
/// (device channels, NIC lanes). The pick and the reservation are one CAS:
/// if another request took the chosen channel after the scan, the scan
/// reruns, so concurrent requests never queue on one channel while another
/// idles. busy_until only grows (between resets), so a channel that still
/// holds the value it was chosen by is still a least-busy one. Returns the
/// completion time.
inline SimTime ReserveLeastBusy(std::span<BusyChannel> channels,
                                SimTime earliest, SimTime duration) {
  while (true) {
    std::size_t best = 0;
    SimTime best_t = channels[0].busy_until();
    for (std::size_t i = 1; i < channels.size(); ++i) {
      SimTime t = channels[i].busy_until();
      if (t < best_t) {
        best_t = t;
        best = i;
      }
    }
    if (channels[best].ReserveIfUnchanged(best_t, earliest, duration)) {
      return std::max(earliest, best_t) + duration;
    }
  }
}

}  // namespace mm::sim
