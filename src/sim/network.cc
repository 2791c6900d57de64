#include "mm/sim/network.h"

#include <memory>

namespace mm::sim {

NetworkSpec NetworkSpec::Roce40() {
  return NetworkSpec{/*latency_s=*/2e-6, /*bandwidth_Bps=*/5e9};
}

NetworkSpec NetworkSpec::Tcp10() {
  return NetworkSpec{/*latency_s=*/50e-6, /*bandwidth_Bps=*/1.1e9};
}

NetworkSpec NetworkSpec::Loopback() {
  return NetworkSpec{/*latency_s=*/200e-9, /*bandwidth_Bps=*/20e9};
}

Network::Network(std::size_t num_nodes, NetworkSpec spec)
    : spec_(spec), loopback_(NetworkSpec::Loopback()) {
  nics_.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    nics_.push_back(std::make_unique<Nic>());
  }
}

void Network::ConfigureFaults(const NetFaultSpec& spec, std::uint64_t seed,
                              RetryPolicy rto) {
  fault_spec_ = spec;
  fault_seed_ = seed;
  rto_ = rto;
  if (link_ops_.empty()) {
    link_ops_ = std::vector<std::atomic<std::uint64_t>>(nics_.size() *
                                                        nics_.size());
  }
  faults_armed_.store(spec.any(), std::memory_order_release);
}

bool Network::Partitioned(SimTime t, std::size_t a, std::size_t b) const {
  const NetFaultSpec& f = fault_spec_;
  if (f.partition_boundary == 0) return false;
  if ((a < f.partition_boundary) == (b < f.partition_boundary)) return false;
  return t >= f.partition_start_s && t < f.partition_heal_s;
}

SimTime Network::ApplyLinkFaults(SimTime now, std::size_t src, std::size_t dst,
                                 double* extra_latency, NetOutcome* outcome) {
  const NetFaultSpec& f = fault_spec_;
  std::uint64_t link = src * nics_.size() + dst;
  std::uint64_t op =
      link_ops_[link].fetch_add(1, std::memory_order_relaxed);
  SimTime start = now;
  int attempts = 0;
  // A severed link: every attempt inside the window is lost. The sender's
  // retransmission timer keeps firing (counted, bounded by the window) and
  // the first attempt after the heal goes through.
  if (Partitioned(start, src, dst)) {
    double held = f.partition_heal_s - start;
    int holds = 1 + static_cast<int>(held / rto_.max_backoff_s);
    partition_holds_.fetch_add(static_cast<std::uint64_t>(holds),
                               std::memory_order_relaxed);
    retransmits_.fetch_add(static_cast<std::uint64_t>(holds),
                           std::memory_order_relaxed);
    if (outcome != nullptr) outcome->retransmits += holds;
    start = f.partition_heal_s;
  }
  // Drops: each lost copy costs one backoff before the retransmission. The
  // draws are per (link, op, attempt), so the decision for message N on a
  // link never depends on thread interleaving. The channel is reliable:
  // after max_attempts-1 consecutive losses the next copy goes through.
  while (f.drop_rate > 0 && attempts < rto_.max_attempts - 1 &&
         FaultDraw(fault_seed_, link, op,
                   /*salt=*/0xd0u + static_cast<std::uint64_t>(attempts)) <
             f.drop_rate) {
    ++attempts;
    start += rto_.BackoffBefore(attempts);
  }
  if (attempts > 0) {
    retransmits_.fetch_add(static_cast<std::uint64_t>(attempts),
                           std::memory_order_relaxed);
    if (outcome != nullptr) outcome->retransmits += attempts;
  }
  if (f.delay_spike_rate > 0 &&
      FaultDraw(fault_seed_, link, op, /*salt=*/0xde) < f.delay_spike_rate) {
    *extra_latency += spec_.latency_s * (f.delay_spike_factor - 1.0);
    delay_spikes_.fetch_add(1, std::memory_order_relaxed);
    if (outcome != nullptr) outcome->delayed = true;
  }
  if (f.dup_rate > 0 &&
      FaultDraw(fault_seed_, link, op, /*salt=*/0xdd) < f.dup_rate) {
    duplicates_.fetch_add(1, std::memory_order_relaxed);
    if (outcome != nullptr) outcome->duplicated = true;
  }
  return start;
}

Network::TransferResult Network::Transfer(SimTime now, std::size_t src,
                                          std::size_t dst,
                                          std::uint64_t bytes,
                                          NetOutcome* outcome) {
  MM_CHECK(src < nics_.size() && dst < nics_.size());
  total_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  total_messages_.fetch_add(1, std::memory_order_relaxed);
  const NetworkSpec& link = (src == dst) ? loopback_ : spec_;
  double wire = static_cast<double>(bytes) / link.bandwidth_Bps;
  double extra_latency = 0.0;
  if (src != dst && faults_armed_.load(std::memory_order_acquire)) {
    now = ApplyLinkFaults(now, src, dst, &extra_latency, outcome);
  }
  // Small control messages do not meaningfully occupy a multi-GB/s link;
  // reserving lanes for them lets clock skew between ranks masquerade as
  // queueing (a conservatism artifact of the shared high-water channels).
  if (bytes <= kControlCutoff) {
    return {now + wire, now + link.latency_s + extra_latency + wire};
  }
  if (src == dst) {
    // Intra-node: a single memory-channel reservation.
    SimTime done =
        ReserveLeastBusy(nics_[src]->lanes, now, link.latency_s + wire);
    return {done, done};
  }
  // Egress serialization on the sender NIC, then propagation, then ingress
  // serialization on the receiver NIC.
  SimTime sent = ReserveLeastBusy(nics_[src]->lanes, now, wire);
  SimTime arrive_start = sent + link.latency_s + extra_latency - wire;
  SimTime delivered = ReserveLeastBusy(
      nics_[dst]->lanes, arrive_start > now ? arrive_start : now, wire);
  return {sent, delivered};
}

double Network::TransferDuration(std::size_t src, std::size_t dst,
                                 std::uint64_t bytes) const {
  const NetworkSpec& link = (src == dst) ? loopback_ : spec_;
  return link.latency_s + static_cast<double>(bytes) / link.bandwidth_Bps;
}

void Network::ResetStats() {
  total_bytes_.store(0);
  total_messages_.store(0);
  retransmits_.store(0);
  duplicates_.store(0);
  delay_spikes_.store(0);
  partition_holds_.store(0);
  for (auto& nic : nics_) {
    for (auto& lane : nic->lanes) lane.Reset();
  }
}

}  // namespace mm::sim
