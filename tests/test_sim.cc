// Tests for the virtual-time substrate: clocks, devices, network, cluster.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "mm/sim/cluster.h"
#include "mm/sim/cost_model.h"
#include "mm/sim/device.h"
#include "mm/sim/network.h"
#include "mm/sim/virtual_clock.h"
#include "mm/util/byte_units.h"

namespace mm::sim {
namespace {

TEST(VirtualClock, AdvanceAndAdvanceTo) {
  VirtualClock clock;
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  clock.Advance(1.5);
  EXPECT_DOUBLE_EQ(clock.now(), 1.5);
  clock.AdvanceTo(1.0);  // never goes backwards
  EXPECT_DOUBLE_EQ(clock.now(), 1.5);
  clock.AdvanceTo(2.0);
  EXPECT_DOUBLE_EQ(clock.now(), 2.0);
}

TEST(BusyChannel, SerializesOverlappingRequests) {
  BusyChannel ch;
  std::span<BusyChannel> one(&ch, 1);
  SimTime a = ReserveLeastBusy(one, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(a, 1.0);
  // Second request issued at t=0.5 must queue behind the first.
  SimTime b = ReserveLeastBusy(one, 0.5, 1.0);
  EXPECT_DOUBLE_EQ(b, 2.0);
  // A request after the channel idles starts immediately.
  SimTime c = ReserveLeastBusy(one, 10.0, 1.0);
  EXPECT_DOUBLE_EQ(c, 11.0);
}

TEST(BusyChannel, ShortGapIsSkipped) {
  BusyChannel ch;
  std::span<BusyChannel> one(&ch, 1);
  EXPECT_DOUBLE_EQ(ReserveLeastBusy(one, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(ReserveLeastBusy(one, 2.0, 1.0), 3.0);
  // [1, 2) is too short for 1.5 s: the request goes after [2, 3).
  EXPECT_DOUBLE_EQ(ReserveLeastBusy(one, 0.0, 1.5), 4.5);
  // It still fits a request of 1 s, which backfills it.
  EXPECT_DOUBLE_EQ(ReserveLeastBusy(one, 0.0, 1.0), 2.0);
  // [0, 4.5) is now one coalesced interval.
  EXPECT_EQ(ch.intervals(), 1u);
}

TEST(BusyChannel, ConcurrentReservationsNeverOverlap) {
  BusyChannel ch;
  std::span<BusyChannel> one(&ch, 1);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  constexpr double kDuration = 0.001;
  std::vector<std::thread> threads;
  std::vector<std::vector<SimTime>> ends(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread runs its own clock, offset from the others, so later
      // threads backfill gaps earlier ones left.
      for (int i = 0; i < kPerThread; ++i) {
        ends[t].push_back(
            ReserveLeastBusy(one, (t % 4) * 0.05 + i * 0.0015, kDuration));
      }
    });
  }
  for (auto& th : threads) th.join();
  // The booked intervals [end - duration, end) are pairwise disjoint.
  std::vector<SimTime> all;
  for (auto& v : ends) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_GE(all[i] - kDuration, all[i - 1] - 1e-12) << i;
  }
  EXPECT_LE(ch.intervals(), BusyChannel::kKeep);
}

TEST(BusyChannel, CalendarStaysBoundedAndFloorIsSolid) {
  BusyChannel ch;
  std::span<BusyChannel> one(&ch, 1);
  // Disjoint bookings [2i, 2i + 1): none coalesce.
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_DOUBLE_EQ(ReserveLeastBusy(one, 2.0 * i, 1.0), 2.0 * i + 1.0);
    ASSERT_LE(ch.intervals(), BusyChannel::kKeep);
  }
  EXPECT_EQ(ch.intervals(), BusyChannel::kKeep);
  const SimTime floor = ch.floor();
  EXPECT_DOUBLE_EQ(floor, 2.0 * (10'000 - BusyChannel::kKeep) - 1.0);
  // The gaps before the floor are gone: an early request starts at it.
  EXPECT_DOUBLE_EQ(ReserveLeastBusy(one, 0.0, 1.0), floor + 1.0);
}

// Clock skew is not queueing: a rank that is later in virtual time books
// the channel first, and a rank that is earlier must not queue behind it.
TEST(BusyChannel, EarlierRankBackfillsBeforeALaterBooking) {
  DeviceSpec spec = DeviceSpec::Hdd(GIGABYTES(1));
  ASSERT_EQ(spec.channels, 1);
  spec.read_latency_s = 0.5;
  spec.read_bw_Bps = 2000.0;  // 1000 bytes: 0.5 + 0.5 = 1 s
  Device dev(spec);
  VirtualClock ahead, behind;
  ahead.Advance(10.0);
  ahead.AdvanceTo(dev.Read(ahead.now(), 1000));
  EXPECT_DOUBLE_EQ(ahead.now(), 11.0);
  behind.AdvanceTo(dev.Read(behind.now(), 1000));
  EXPECT_DOUBLE_EQ(behind.now(), 1.0);  // not 12
  EXPECT_DOUBLE_EQ(dev.channel_wait().wait_s, 0.0);

  // The same through a lane-reserving transfer (> kControlCutoff): the
  // rank ahead fills every lane of both NICs first.
  Network net(2, NetworkSpec::Roce40());
  const std::uint64_t bytes = 5'000'000'000;  // 1 s on the wire
  ASSERT_DOUBLE_EQ(static_cast<double>(bytes) / net.spec().bandwidth_Bps,
                   1.0);
  for (std::size_t i = 0; i < Network::kNicLanes; ++i) {
    EXPECT_DOUBLE_EQ(net.Transfer(10.0, 0, 1, bytes).egress_done, 11.0);
  }
  auto early = net.Transfer(0.0, 0, 1, bytes);
  EXPECT_DOUBLE_EQ(early.egress_done, 1.0);
  EXPECT_NEAR(early.delivered, 1.0 + net.spec().latency_s, 1e-9);
}

TEST(BusyChannel, WaitBehindALaterBookingCountsAsSkew) {
  BusyChannel ch;
  std::span<BusyChannel> one(&ch, 1);
  ReserveLeastBusy(one, 0.0, 1.0);
  // Queues behind [0, 1), which started before it: contention.
  EXPECT_DOUBLE_EQ(ReserveLeastBusy(one, 0.5, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(ch.wait().wait_s, 0.5);
  EXPECT_DOUBLE_EQ(ch.wait().skew_s, 0.0);
  // This one also waits behind the booking that starts at 1, after it
  // does: skew.
  EXPECT_DOUBLE_EQ(ReserveLeastBusy(one, 0.75, 2.0), 4.0);
  EXPECT_DOUBLE_EQ(ch.wait().wait_s, 0.5 + 1.25);
  EXPECT_DOUBLE_EQ(ch.wait().skew_s, 1.25);
  ch.Reset();
  EXPECT_DOUBLE_EQ(ch.wait().wait_s, 0.0);
  EXPECT_EQ(ch.intervals(), 0u);
}

TEST(Device, ReadChargesLatencyPlusBandwidth) {
  Device dev(DeviceSpec::Nvme(GIGABYTES(1)));
  std::uint64_t bytes = 1'000'000;
  SimTime done = dev.Read(0.0, bytes);
  double expected = dev.spec().read_latency_s +
                    static_cast<double>(bytes) / dev.spec().read_bw_Bps;
  EXPECT_NEAR(done, expected, 1e-12);
  EXPECT_EQ(dev.bytes_read(), bytes);
}

// Runs `threads` threads that each issue `requests` requests at t=0 and
// counts the results that came back earlier than the same thread's previous
// one. A race-free pick reserves each request on a channel that is least
// busy when the reservation lands, and the least-busy level only rises, so
// one thread's results never decrease. A request that queued on a channel
// another request took after the pick ends later than a least-busy channel
// allows, and the thread's next request then ends earlier. The request
// counts are large enough that, even on one core, preemption lands between
// a pick and its reservation many times per run.
int OutOfOrderResults(int threads, int requests,
                      const std::function<SimTime()>& issue) {
  std::atomic<int> out_of_order{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      SimTime last = 0.0;
      int bad = 0;
      for (int i = 0; i < requests; ++i) {
        SimTime end = issue();
        if (end < last) ++bad;
        last = std::max(last, end);
      }
      out_of_order.fetch_add(bad, std::memory_order_relaxed);
    });
  }
  for (auto& th : pool) th.join();
  return out_of_order.load();
}

TEST(Device, ConcurrentRequestsNeverDoubleBookAChannel) {
  // Eight writers, each reserving four stripes per request, as concurrent
  // group-commit flushes do. The counts here and below are the smallest
  // tried that caught, in 5 of 5 runs of a plain and of a TSan build, a
  // pick that books its first channel's next fit instead of scanning again
  // when another request took its gap.
  Device pfs(DeviceSpec::Pfs(GIGABYTES(1)));
  constexpr int kThreads = 8;
  constexpr int kRequests = 5'000;
  EXPECT_EQ(OutOfOrderResults(kThreads, kRequests,
                              [&] { return pfs.Write(0.0, 4 * kMiB); }),
            0);
  EXPECT_EQ(pfs.bytes_written(),
            std::uint64_t{kThreads} * kRequests * 4 * kMiB);
}

TEST(Network, ConcurrentTransfersNeverDoubleBookALane) {
  // Every sender's egress reservation lands on node 0's NIC lanes.
  Network net(2, NetworkSpec::Roce40());
  EXPECT_EQ(OutOfOrderResults(static_cast<int>(Network::kNicLanes), 50'000,
                              [&] {
                                return net.Transfer(0.0, 0, 1, 1'000'000)
                                    .egress_done;
                              }),
            0);
}

TEST(Device, StripedRequestSpreadsOverChannels) {
  Device pfs(DeviceSpec::Pfs(GIGABYTES(1)));
  const DeviceSpec& s = pfs.spec();
  ASSERT_EQ(s.stripe_bytes, kMiB);
  // Four 1 MiB pieces on four idle stripe servers end together.
  EXPECT_DOUBLE_EQ(pfs.Write(0.0, 4 * kMiB),
                   s.write_latency_s +
                       static_cast<double>(s.stripe_bytes) / s.write_bw_Bps);
  EXPECT_EQ(pfs.bytes_written(), 4 * kMiB);
  EXPECT_DOUBLE_EQ(pfs.Read(0.0, 3 * kMiB),
                   s.read_latency_s +
                       static_cast<double>(s.stripe_bytes) / s.read_bw_Bps);
  EXPECT_EQ(pfs.bytes_read(), 3 * kMiB);
}

TEST(Device, SubStripeAndUnstripedRequestsChargeAsBefore) {
  Device pfs(DeviceSpec::Pfs(GIGABYTES(1)));
  const std::uint64_t page = 64 * kKiB;
  EXPECT_DOUBLE_EQ(pfs.Write(0.0, page),
                   pfs.spec().write_latency_s +
                       static_cast<double>(page) / pfs.spec().write_bw_Bps);
  for (const DeviceSpec& spec :
       {DeviceSpec::Nvme(GIGABYTES(1)), DeviceSpec::Hdd(GIGABYTES(1))}) {
    EXPECT_EQ(spec.stripe_bytes, 0u);
    const std::uint64_t bytes = 4 * kMiB;
    Device w(spec);
    EXPECT_DOUBLE_EQ(w.Write(0.0, bytes),
                     spec.write_latency_s +
                         static_cast<double>(bytes) / spec.write_bw_Bps);
    Device r(spec);
    EXPECT_DOUBLE_EQ(r.Read(0.0, bytes),
                     spec.read_latency_s +
                         static_cast<double>(bytes) / spec.read_bw_Bps);
  }
}

TEST(Device, MoreStripesThanChannelsWrapToASecondRound) {
  const DeviceSpec s = DeviceSpec::Pfs(GIGABYTES(1));
  const std::uint64_t channels = static_cast<std::uint64_t>(s.channels);
  const double stripe =
      s.write_latency_s + static_cast<double>(s.stripe_bytes) / s.write_bw_Bps;
  const double tail = s.write_latency_s + 4096.0 / s.write_bw_Bps;
  Device a(s);
  EXPECT_DOUBLE_EQ(a.Write(0.0, (channels + 1) * s.stripe_bytes),
                   2 * stripe);
  Device b(s);
  EXPECT_DOUBLE_EQ(b.Write(0.0, channels * s.stripe_bytes + 4096),
                   stripe + tail);
}

TEST(Device, IdleDurationEqualsTheIdleCharge) {
  const DeviceSpec s = DeviceSpec::Pfs(GIGABYTES(1));
  for (std::uint64_t bytes :
       {64 * kKiB, kMiB, kMiB + 1, 4 * kMiB, 8 * kMiB, 9 * kMiB,
        8 * kMiB + 3 * kKiB, 11 * kMiB + 5, 20 * kMiB}) {
    Device w(s);
    EXPECT_DOUBLE_EQ(w.Write(0.0, bytes), w.WriteDuration(bytes)) << bytes;
    Device r(s);
    EXPECT_DOUBLE_EQ(r.Read(0.0, bytes), r.ReadDuration(bytes)) << bytes;
  }
}

TEST(Device, StripedReadOnIdleChannelsEqualsReadDuration) {
  const DeviceSpec s = DeviceSpec::Pfs(GIGABYTES(1));
  const std::uint64_t bytes = 11 * kMiB + 5;
  Device pfs(s);
  EXPECT_DOUBLE_EQ(pfs.Read(0.0, bytes), pfs.ReadDuration(bytes));
  // Every stripe server busy from t=100 on: a read at t=5 is idle in
  // virtual time and backfills all of its pieces before those bookings.
  Device later(s);
  later.Read(100.0, bytes);
  EXPECT_DOUBLE_EQ(later.Read(5.0, bytes), 5.0 + later.ReadDuration(bytes));
}

TEST(Device, TimeFactorScalesEveryPiece) {
  const DeviceSpec s = DeviceSpec::Pfs(GIGABYTES(1));
  Device pfs(s);
  EXPECT_DOUBLE_EQ(pfs.Write(0.0, 4 * kMiB, /*time_factor=*/3.0),
                   3.0 * pfs.WriteDuration(4 * kMiB));
  Device nvme(DeviceSpec::Nvme(GIGABYTES(1)));
  EXPECT_DOUBLE_EQ(nvme.Read(0.0, 4 * kMiB, /*time_factor=*/2.0),
                   2.0 * nvme.ReadDuration(4 * kMiB));
}

TEST(Device, TierOrderingFastestFirst) {
  // The presets must preserve the hierarchy the paper relies on.
  auto dram = DeviceSpec::Dram(1);
  auto nvme = DeviceSpec::Nvme(1);
  auto ssd = DeviceSpec::Ssd(1);
  auto hdd = DeviceSpec::Hdd(1);
  // Effective device bandwidth = per-channel bandwidth x channels.
  auto eff = [](const DeviceSpec& d) { return d.read_bw_Bps * d.channels; };
  EXPECT_GT(eff(dram), eff(nvme));
  EXPECT_GT(eff(nvme), eff(ssd));
  EXPECT_GT(eff(ssd), eff(hdd));
  EXPECT_LT(dram.read_latency_s, nvme.read_latency_s);
  EXPECT_LT(nvme.read_latency_s, ssd.read_latency_s);
  EXPECT_LT(ssd.read_latency_s, hdd.read_latency_s);
  // Paper: HDD roughly 0.02$/GB, SSD 0.04, NVMe 0.08.
  EXPECT_DOUBLE_EQ(hdd.dollars_per_gb, 0.02);
  EXPECT_DOUBLE_EQ(ssd.dollars_per_gb, 0.04);
  EXPECT_DOUBLE_EQ(nvme.dollars_per_gb, 0.08);
  // Paper: HDDs 6-10x slower than SSD and NVMe.
  EXPECT_GE(eff(ssd) / eff(hdd), 3.0);
  EXPECT_GE(eff(nvme) / eff(hdd), 6.0);
}

TEST(Device, WriteTracksBytesAndQueues) {
  Device dev(DeviceSpec::Hdd(GIGABYTES(10)));
  SimTime first = dev.Write(0.0, 1000);
  SimTime second = dev.Write(0.0, 1000);
  EXPECT_GT(second, first);
  EXPECT_EQ(dev.bytes_written(), 2000u);
}

TEST(Network, TransferChargesBothEnds) {
  Network net(2, NetworkSpec::Roce40());
  auto res = net.Transfer(0.0, 0, 1, 1'000'000);
  double wire = 1e6 / net.spec().bandwidth_Bps;
  EXPECT_NEAR(res.egress_done, wire, 1e-12);
  EXPECT_NEAR(res.delivered, wire + net.spec().latency_s, 1e-9);
  EXPECT_EQ(net.total_bytes(), 1'000'000u);
  EXPECT_EQ(net.total_messages(), 1u);
}

TEST(Network, IntraNodeUsesLoopback) {
  Network net(2, NetworkSpec::Roce40());
  auto local = net.Transfer(0.0, 0, 0, 1'000'000);
  auto remote = net.Transfer(0.0, 1, 0, 1'000'000);
  EXPECT_LT(local.delivered, remote.delivered);
}

TEST(Network, NicContentionSerializes) {
  Network net(3, NetworkSpec::Roce40());
  // Up to kNicLanes large transfers proceed concurrently; the next one
  // must queue behind a lane.
  std::vector<Network::TransferResult> xs;
  for (std::size_t i = 0; i < Network::kNicLanes + 1; ++i) {
    xs.push_back(net.Transfer(0.0, 1, 0, 10'000'000));
  }
  double wire = 1e7 / net.spec().bandwidth_Bps;
  SimTime latest = 0;
  for (const auto& x : xs) latest = std::max(latest, x.delivered);
  EXPECT_GE(latest, 2 * wire);
}

TEST(Network, ControlMessagesBypassLanes) {
  Network net(2, NetworkSpec::Roce40());
  // Saturate the lanes with big transfers...
  for (int i = 0; i < 16; ++i) net.Transfer(0.0, 0, 1, 50'000'000);
  // ...a small control message still completes in ~latency.
  auto ctl = net.Transfer(0.0, 0, 1, 128);
  EXPECT_LT(ctl.delivered, 2 * net.spec().latency_s);
}

TEST(Network, TcpSlowerThanRoce) {
  NetworkSpec roce = NetworkSpec::Roce40();
  NetworkSpec tcp = NetworkSpec::Tcp10();
  EXPECT_GT(tcp.latency_s, roce.latency_s);
  EXPECT_LT(tcp.bandwidth_Bps, roce.bandwidth_Bps);
}

TEST(Cluster, PaperTestbedShape) {
  auto cluster = Cluster::PaperTestbed(4);
  EXPECT_EQ(cluster->num_nodes(), 4u);
  Node& node = cluster->node(0);
  ASSERT_EQ(node.num_tiers(), 4u);
  EXPECT_EQ(node.tier(0).kind(), TierKind::kDram);
  EXPECT_EQ(node.tier(0).spec().capacity_bytes, GIGABYTES(48));
  EXPECT_EQ(node.tier(1).kind(), TierKind::kNvme);
  EXPECT_EQ(node.tier(1).spec().capacity_bytes, GIGABYTES(128));
  EXPECT_EQ(node.tier(2).kind(), TierKind::kSsd);
  EXPECT_EQ(node.tier(2).spec().capacity_bytes, GIGABYTES(256));
  EXPECT_EQ(node.tier(3).kind(), TierKind::kHdd);
  EXPECT_EQ(node.tier(3).spec().capacity_bytes, TERABYTES(1));
}

TEST(Cluster, ScaleShrinksCapacities) {
  auto cluster = Cluster::PaperTestbed(1, /*scale=*/0.001);
  EXPECT_EQ(cluster->node(0).tier(0).spec().capacity_bytes,
            static_cast<std::uint64_t>(GIGABYTES(48) * 0.001));
}

TEST(Cluster, FindTier) {
  auto cluster = Cluster::PaperTestbed(1);
  EXPECT_NE(cluster->node(0).FindTier(TierKind::kNvme), nullptr);
  EXPECT_EQ(cluster->node(0).FindTier(TierKind::kPfs), nullptr);
}

TEST(Cluster, ResetStatsClearsCounters) {
  auto cluster = Cluster::PaperTestbed(2);
  cluster->node(0).tier(0).Read(0.0, 100);
  cluster->network().Transfer(0.0, 0, 1, 100);
  cluster->ResetStats();
  EXPECT_EQ(cluster->node(0).tier(0).bytes_read(), 0u);
  EXPECT_EQ(cluster->network().total_bytes(), 0u);
}

TEST(CostModelTest, DollarsScaleWithCapacity) {
  auto nvme = DeviceSpec::Nvme(GIGABYTES(128));
  double dollars = DollarsForCapacity(nvme, 48ULL * 1000 * 1000 * 1000);
  EXPECT_NEAR(dollars, 48 * 0.08, 1e-9);
}

TEST(CostModelTest, MmOverheadIsSmallFraction) {
  // §III-E: mm::Vector access overhead is ~5% of a typical memory access.
  const CostModel& costs = CostModel::Default();
  EXPECT_LT(costs.mm_access_overhead_s / costs.memory_access_s, 0.5);
  EXPECT_GT(costs.mm_access_overhead_s, 0.0);
}

}  // namespace
}  // namespace mm::sim
