#include "mm/sim/cluster.h"

#include "mm/sim/oom.h"
#include "mm/util/byte_units.h"

namespace mm::sim {

NodeSpec NodeSpec::PaperCompute(double scale) {
  auto scaled = [scale](std::uint64_t bytes) {
    return static_cast<std::uint64_t>(static_cast<double>(bytes) * scale);
  };
  NodeSpec spec;
  spec.tiers = {
      DeviceSpec::Dram(scaled(GIGABYTES(48))),
      DeviceSpec::Nvme(scaled(GIGABYTES(128))),
      DeviceSpec::Ssd(scaled(GIGABYTES(256))),
      DeviceSpec::Hdd(scaled(TERABYTES(1))),
  };
  return spec;
}

Node::Node(const NodeSpec& spec) {
  devices_.reserve(spec.tiers.size());
  for (std::size_t i = 0; i < spec.tiers.size(); ++i) {
    if (i > 0) {
      MM_CHECK_MSG(static_cast<int>(spec.tiers[i].kind) >=
                       static_cast<int>(spec.tiers[i - 1].kind),
                   "node tiers must be sorted fastest-first");
    }
    devices_.push_back(std::make_unique<Device>(spec.tiers[i]));
  }
}

Device* Node::FindTier(TierKind kind) {
  for (auto& dev : devices_) {
    if (dev->kind() == kind) return dev.get();
  }
  return nullptr;
}

void Node::AllocateDram(std::uint64_t bytes) {
  std::uint64_t cap = dram_capacity();
  std::uint64_t prev = dram_used_.fetch_add(bytes, std::memory_order_relaxed);
  if (prev + bytes > cap) {
    dram_used_.fetch_sub(bytes, std::memory_order_relaxed);
    throw SimOutOfMemoryError(bytes, cap > prev ? cap - prev : 0);
  }
  // Track the high-water mark (racy max loop).
  std::uint64_t now = prev + bytes;
  std::uint64_t peak = dram_peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !dram_peak_.compare_exchange_weak(peak, now,
                                           std::memory_order_relaxed)) {
  }
}

void Node::FreeDram(std::uint64_t bytes) {
  dram_used_.fetch_sub(bytes, std::memory_order_relaxed);
}

std::uint64_t Node::dram_capacity() const {
  for (const auto& dev : devices_) {
    if (dev->kind() == TierKind::kDram) return dev->spec().capacity_bytes;
  }
  return 0;
}

std::uint64_t Node::total_capacity() const {
  std::uint64_t total = 0;
  for (const auto& dev : devices_) total += dev->spec().capacity_bytes;
  return total;
}

Cluster::Cluster(std::size_t num_nodes, const NodeSpec& node_spec,
                 NetworkSpec net, std::uint64_t pfs_capacity) {
  MM_CHECK(num_nodes > 0);
  nodes_.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(node_spec));
  }
  network_ = std::make_unique<Network>(num_nodes, net);
  pfs_ = std::make_unique<Device>(DeviceSpec::Pfs(pfs_capacity));
}

std::unique_ptr<Cluster> Cluster::PaperTestbed(std::size_t num_nodes,
                                               double scale) {
  return std::make_unique<Cluster>(num_nodes, NodeSpec::PaperCompute(scale),
                                   NetworkSpec::Roce40(),
                                   /*pfs_capacity=*/TERABYTES(64));
}

ChannelWait Cluster::channel_wait() const {
  ChannelWait sum = network_->channel_wait();
  sum += pfs_->channel_wait();
  for (const auto& node : nodes_) {
    for (std::size_t t = 0; t < node->num_tiers(); ++t) {
      sum += node->tier(t).channel_wait();
    }
  }
  return sum;
}

void Cluster::ResetStats() {
  for (auto& node : nodes_) {
    for (std::size_t t = 0; t < node->num_tiers(); ++t) {
      node->tier(t).ResetStats();
    }
  }
  network_->ResetStats();
  pfs_->ResetStats();
}

}  // namespace mm::sim
