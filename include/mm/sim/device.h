// Storage-device models for the Deep Memory and Storage Hierarchy (DMSH).
//
// Each tier (DRAM, NVMe, SATA SSD, HDD, plus a remote PFS backend) is modeled
// by capacity, latency, bandwidth, and $/GB. Devices serialize concurrent
// requests through BusyChannels, which is what produces the spill cliffs and
// contention effects in Figs. 6-8; a striped device (the PFS) spreads one
// large request over its channels. Dollar costs reproduce Fig. 7's cost axis
// (paper: HDD $0.02/GB, SATA SSD $0.04/GB, NVMe $0.08/GB).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mm/sim/virtual_clock.h"

namespace mm::sim {

/// Storage tier kinds, fastest first. Order matters: the DataOrganizer
/// promotes toward lower enum values.
enum class TierKind : int {
  kDram = 0,
  kNvme = 1,
  kSsd = 2,
  kHdd = 3,
  kPfs = 4,  // remote parallel filesystem (persistent backend)
};

const char* TierKindName(TierKind kind);

/// One-letter code used in Fig. 7 labels (D/H/S/N, P for PFS).
char TierKindCode(TierKind kind);

/// Static performance/cost description of a device.
struct DeviceSpec {
  TierKind kind = TierKind::kDram;
  std::uint64_t capacity_bytes = 0;
  double read_latency_s = 0.0;
  double write_latency_s = 0.0;
  double read_bw_Bps = 0.0;   // bytes/second (per channel)
  double write_bw_Bps = 0.0;  // bytes/second (per channel)
  double dollars_per_gb = 0.0;
  /// Internal parallelism: concurrent requests (or stripe pieces of one
  /// request) that proceed without queueing behind each other (NVMe queue
  /// pairs, PFS stripe servers).
  int channels = 1;
  /// Stripe size of a striped device, 0 for unstriped. A request larger
  /// than one stripe is served as ceil(bytes / stripe_bytes) pieces spread
  /// over the channels, each paying its own latency.
  std::uint64_t stripe_bytes = 0;

  /// Calibrated presets (DESIGN.md §2): plausible 2024-era hardware with the
  /// ratios the paper reports (HDD 6-10x slower than SSD/NVMe, NVMe within
  /// an order of magnitude of DRAM).
  static DeviceSpec Dram(std::uint64_t capacity);
  static DeviceSpec Nvme(std::uint64_t capacity);
  static DeviceSpec Ssd(std::uint64_t capacity);
  static DeviceSpec Hdd(std::uint64_t capacity);
  static DeviceSpec Pfs(std::uint64_t capacity);

  /// Preset by kind.
  static DeviceSpec ForKind(TierKind kind, std::uint64_t capacity);
};

/// A live device instance: spec + busy channels + usage accounting.
class Device {
 public:
  explicit Device(DeviceSpec spec)
      : spec_(spec),
        channels_(static_cast<std::size_t>(spec.channels > 0 ? spec.channels
                                                             : 1)) {}

  const DeviceSpec& spec() const { return spec_; }
  TierKind kind() const { return spec_.kind; }

  /// Simulates a read of `bytes` starting at `now`; returns completion time.
  /// On a striped device a request larger than one stripe is split into
  /// stripe-sized pieces, each paying its own latency on the least-busy
  /// channel from `now`; the request completes with its last piece.
  /// `time_factor` scales every piece (fault-injected latency spikes).
  SimTime Read(SimTime now, std::uint64_t bytes, double time_factor = 1.0) {
    bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
    return Serve(channels_, now, bytes, spec_.read_latency_s,
                 spec_.read_bw_Bps, time_factor);
  }

  /// Simulates a write of `bytes` starting at `now`; returns completion
  /// time. Striped exactly like Read.
  SimTime Write(SimTime now, std::uint64_t bytes, double time_factor = 1.0) {
    bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
    return Serve(channels_, now, bytes, spec_.write_latency_s,
                 spec_.write_bw_Bps, time_factor);
  }

  /// Occupies the least-busy channel for `seconds` without transferring
  /// bytes. Models fault-injected latency spikes and failed-attempt stalls,
  /// which consume device time but move no data.
  SimTime Stall(SimTime now, double seconds) {
    return ReserveLeastBusy(channels_, now, seconds);
  }

  /// Duration a read/write of `bytes` takes on an idle device: exactly what
  /// Read/Write charge when every channel is free at `now`.
  double ReadDuration(std::uint64_t bytes) const {
    return IdleDuration(bytes, spec_.read_latency_s, spec_.read_bw_Bps);
  }
  double WriteDuration(std::uint64_t bytes) const {
    return IdleDuration(bytes, spec_.write_latency_s, spec_.write_bw_Bps);
  }

  std::uint64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  /// Latest completion across all channels.
  SimTime busy_until() const {
    SimTime latest = 0.0;
    for (const auto& ch : channels_) latest = std::max(latest, ch.busy_until());
    return latest;
  }

  void ResetStats() {
    bytes_read_.store(0);
    bytes_written_.store(0);
    for (auto& ch : channels_) ch.Reset();
  }

 private:
  /// Serves one request on `channels` from `now`: one piece per stripe (the
  /// whole request on an unstriped device), each on the least-busy channel.
  SimTime Serve(std::span<BusyChannel> channels, SimTime now,
                std::uint64_t bytes, double latency_s, double bw_Bps,
                double time_factor) const {
    const std::uint64_t stripe =
        spec_.stripe_bytes > 0 ? spec_.stripe_bytes : bytes;
    SimTime done = now;
    std::uint64_t off = 0;
    do {
      const std::uint64_t piece = std::min(stripe, bytes - off);
      const double dur =
          (latency_s + static_cast<double>(piece) / bw_Bps) * time_factor;
      done = std::max(done, ReserveLeastBusy(channels, now, dur));
      off += piece;
    } while (off < bytes);
    return done;
  }

  /// The same pieces served on a fresh set of idle channels.
  double IdleDuration(std::uint64_t bytes, double latency_s,
                      double bw_Bps) const {
    if (spec_.stripe_bytes == 0 || bytes <= spec_.stripe_bytes) {
      return latency_s + static_cast<double>(bytes) / bw_Bps;
    }
    std::vector<BusyChannel> idle(channels_.size());
    return Serve(idle, 0.0, bytes, latency_s, bw_Bps, 1.0);
  }

  DeviceSpec spec_;
  std::vector<BusyChannel> channels_;
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
};

}  // namespace mm::sim
