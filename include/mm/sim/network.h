// Network model: per-node NICs with serialized channels plus a link spec
// (latency + bandwidth). The paper's testbed has 40Gb/s RoCE-enabled
// Ethernet; the Spark baseline is attributed a TCP-grade path (higher
// latency, lower effective bandwidth) matching the paper's explanation of
// Fig. 5 ("its use of the slower TCP protocol").
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "mm/sim/fault.h"
#include "mm/sim/virtual_clock.h"
#include "mm/util/retry.h"
#include "mm/util/status.h"

namespace mm::sim {

struct NetworkSpec {
  double latency_s = 2e-6;      // one-way small-message latency
  double bandwidth_Bps = 5e9;   // per-flow effective bandwidth (40Gb/s)

  /// RDMA-grade path (RoCE on the 40Gb/s network).
  static NetworkSpec Roce40();
  /// TCP on the 10Gb/s network (Spark-style transport).
  static NetworkSpec Tcp10();
  /// Loopback within a node (shared-memory transport).
  static NetworkSpec Loopback();
};

/// Tracks per-node NIC contention and total traffic. Each NIC has several
/// lanes (DMA engines / QPs): a few in-flight transfers proceed without
/// queueing. Messages at or below kControlCutoff bytes bypass reservation
/// entirely — they cost latency + wire time but never occupy a lane.
class Network {
 public:
  static constexpr std::uint64_t kControlCutoff = 4096;
  static constexpr std::size_t kNicLanes = 4;

  Network(std::size_t num_nodes, NetworkSpec spec);

  const NetworkSpec& spec() const { return spec_; }

  /// Outcome of a simulated transfer: when the sender's egress completed
  /// (the sender may proceed) and when the bytes arrived at the receiver.
  struct TransferResult {
    SimTime egress_done;
    SimTime delivered;
  };

  /// Per-message fault outcome (reliable-channel view): the link layer
  /// retransmits until delivery, so faults surface as extra virtual time and
  /// these counters, never as a lost message.
  struct NetOutcome {
    /// Retransmissions this message needed (drops + partition holds).
    int retransmits = 0;
    /// The link delivered a second copy (receiver must dedup by seq).
    bool duplicated = false;
    /// Propagation latency took a delay spike.
    bool delayed = false;
  };

  /// Arms the deterministic link fault model. `rto` is the retransmission
  /// backoff charged per drop (reuses the tier-I/O retry policy shape).
  /// Faults apply to inter-node messages only; the zero-spec default keeps
  /// Transfer on the exact fault-free code path.
  void ConfigureFaults(const NetFaultSpec& spec, std::uint64_t seed,
                       RetryPolicy rto = {});
  const NetFaultSpec& fault_spec() const { return fault_spec_; }

  /// True when the partition window severs the (a, b) link at time `t`.
  bool Partitioned(SimTime t, std::size_t a, std::size_t b) const;

  /// Simulates moving `bytes` from node `src` to node `dst` starting at
  /// `now`. Charges both NICs (intra-node transfers use the loopback spec).
  /// With faults armed, drops/partitions delay the start by retransmission
  /// backoffs and delay spikes stretch propagation; `outcome` (optional)
  /// reports what was injected.
  TransferResult Transfer(SimTime now, std::size_t src, std::size_t dst,
                          std::uint64_t bytes, NetOutcome* outcome = nullptr);

  /// Idle-network duration of a transfer (for prefetcher estimates).
  double TransferDuration(std::size_t src, std::size_t dst,
                          std::uint64_t bytes) const;

  std::uint64_t total_bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t total_messages() const {
    return total_messages_.load(std::memory_order_relaxed);
  }

  // --- fault stats (monotonic; exposed for benches/telemetry mirroring) ---
  std::uint64_t retransmits() const {
    return retransmits_.load(std::memory_order_relaxed);
  }
  std::uint64_t duplicates() const {
    return duplicates_.load(std::memory_order_relaxed);
  }
  std::uint64_t delay_spikes() const {
    return delay_spikes_.load(std::memory_order_relaxed);
  }
  std::uint64_t partition_holds() const {
    return partition_holds_.load(std::memory_order_relaxed);
  }

  void ResetStats();

 private:
  /// Applies drop/partition/duplication/spike draws for one inter-node
  /// message. Returns the (possibly backoff-delayed) effective send time and
  /// the extra propagation seconds; fills `outcome`.
  SimTime ApplyLinkFaults(SimTime now, std::size_t src, std::size_t dst,
                          double* extra_latency, NetOutcome* outcome);

  NetworkSpec spec_;
  NetworkSpec loopback_;
  struct Nic {
    BusyChannel lanes[kNicLanes];
  };
  std::vector<std::unique_ptr<Nic>> nics_;
  std::atomic<std::uint64_t> total_bytes_{0};
  std::atomic<std::uint64_t> total_messages_{0};

  // Link fault model (immutable once armed; the release-store in
  // ConfigureFaults publishes the spec to concurrent Transfer callers).
  std::atomic<bool> faults_armed_{false};
  NetFaultSpec fault_spec_;
  std::uint64_t fault_seed_ = 0;
  RetryPolicy rto_;
  /// Per-link deterministic op counters (src * num_nodes + dst).
  std::vector<std::atomic<std::uint64_t>> link_ops_;
  std::atomic<std::uint64_t> retransmits_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> delay_spikes_{0};
  std::atomic<std::uint64_t> partition_holds_{0};
};

}  // namespace mm::sim
