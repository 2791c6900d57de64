// Cluster topology: a set of nodes, each owning a DMSH (DRAM + storage
// tiers), connected by a Network, plus one shared PFS device that backs
// persistent vectors. `Cluster::PaperTestbed` mirrors the paper's research
// cluster: per node 48 GB DRAM, 128 GB NVMe, 256 GB SATA SSD, 1 TB HDD,
// 40 Gb/s RoCE Ethernet (paper §IV-A). Experiments scale capacities down by
// a documented factor; ratios are preserved.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "mm/sim/device.h"
#include "mm/sim/network.h"
#include "mm/util/status.h"

namespace mm::sim {

/// Static description of one node's device complement.
struct NodeSpec {
  std::vector<DeviceSpec> tiers;  // must be sorted fastest-first

  /// Paper compute node, capacities scaled by `scale` (1.0 = full size).
  static NodeSpec PaperCompute(double scale = 1.0);
};

/// A live node: instantiated devices, fastest-first.
class Node {
 public:
  explicit Node(const NodeSpec& spec);

  std::size_t num_tiers() const { return devices_.size(); }
  Device& tier(std::size_t i) { return *devices_[i]; }
  const Device& tier(std::size_t i) const { return *devices_[i]; }

  /// Device for a tier kind; nullptr if this node lacks that tier.
  Device* FindTier(TierKind kind);

  std::uint64_t total_capacity() const;

  /// DRAM accounting for applications. Baselines that allocate past the
  /// node's DRAM are OOM-killed like Linux would (paper §IV-B.2); MegaMmap
  /// reserves its bounded caches up front and never exceeds them.
  void AllocateDram(std::uint64_t bytes);
  void FreeDram(std::uint64_t bytes);
  std::uint64_t dram_used() const {
    return dram_used_.load(std::memory_order_relaxed);
  }
  std::uint64_t dram_capacity() const;
  /// High-water mark of DRAM usage (reported as "memory utilization").
  std::uint64_t dram_peak() const {
    return dram_peak_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<std::unique_ptr<Device>> devices_;
  std::atomic<std::uint64_t> dram_used_{0};
  std::atomic<std::uint64_t> dram_peak_{0};
};

/// The whole simulated machine.
class Cluster {
 public:
  Cluster(std::size_t num_nodes, const NodeSpec& node_spec, NetworkSpec net,
          std::uint64_t pfs_capacity);

  std::size_t num_nodes() const { return nodes_.size(); }
  Node& node(std::size_t i) { return *nodes_[i]; }
  const Node& node(std::size_t i) const { return *nodes_[i]; }
  Network& network() { return *network_; }
  Device& pfs() { return *pfs_; }

  /// The paper's testbed at `num_nodes` nodes, device capacities scaled by
  /// `scale` so that scaled-down workloads hit the same capacity cliffs.
  static std::unique_ptr<Cluster> PaperTestbed(std::size_t num_nodes,
                                               double scale = 1.0);

  /// Wait charged on every device, NIC lane and the PFS since the last
  /// ResetStats.
  ChannelWait channel_wait() const;

  void ResetStats();

 private:
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<Device> pfs_;
};

}  // namespace mm::sim
