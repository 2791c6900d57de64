// Tests for the message-passing substrate: p2p, mailboxes, virtual-time
// semantics, distributed locks, and the job launcher.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "mm/comm/communicator.h"
#include "mm/comm/dlock.h"
#include "mm/comm/launch.h"
#include "mm/sim/oom.h"

namespace mm::comm {
namespace {

TEST(Launch, RunsAllRanks) {
  auto cluster = sim::Cluster::PaperTestbed(2);
  std::atomic<int> count{0};
  auto result = RunRanks(*cluster, 8, 4, [&](RankContext& ctx) {
    count.fetch_add(1);
    EXPECT_GE(ctx.rank(), 0);
    EXPECT_LT(ctx.rank(), 8);
    EXPECT_EQ(ctx.size(), 8);
    EXPECT_EQ(ctx.node(), static_cast<std::size_t>(ctx.rank() / 4));
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(count.load(), 8);
  EXPECT_EQ(result.rank_times.size(), 8u);
}

TEST(Launch, ComputeAdvancesVirtualTime) {
  auto cluster = sim::Cluster::PaperTestbed(1);
  auto result = RunRanks(*cluster, 2, 2, [&](RankContext& ctx) {
    ctx.Compute(ctx.rank() == 0 ? 1.0 : 2.0);
  });
  EXPECT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.rank_times[0], 1.0);
  EXPECT_DOUBLE_EQ(result.rank_times[1], 2.0);
  EXPECT_DOUBLE_EQ(result.max_time, 2.0);
}

TEST(Launch, OomIsReportedNotFatal) {
  auto cluster = sim::Cluster::PaperTestbed(1);
  auto result = RunRanks(*cluster, 2, 2, [&](RankContext& ctx) {
    (void)ctx;  // the body only exercises the throw path
    throw sim::SimOutOfMemoryError(100, 10);
  });
  EXPECT_TRUE(result.oom);
  EXPECT_TRUE(result.error.empty());
  EXPECT_FALSE(result.ok());
}

TEST(Launch, ErrorsAreCaptured) {
  auto cluster = sim::Cluster::PaperTestbed(1);
  auto result = RunRanks(*cluster, 1, 1, [&](RankContext&) {
    throw std::runtime_error("boom");
  });
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("boom"), std::string::npos);
}

TEST(Launch, RejectsTooFewNodes) {
  auto cluster = sim::Cluster::PaperTestbed(1);
  EXPECT_THROW(RunRanks(*cluster, 8, 4, [](RankContext&) {}),
               std::logic_error);
}

TEST(P2p, SendRecvDeliversPayload) {
  auto cluster = sim::Cluster::PaperTestbed(2);
  auto result = RunRanks(*cluster, 2, 1, [&](RankContext& ctx) {
    Communicator comm(&ctx);
    if (ctx.rank() == 0) {
      std::vector<double> data = {1.0, 2.0, 3.0};
      comm.Send(1, /*tag=*/5, data);
    } else {
      auto data = comm.Recv<double>(0, /*tag=*/5);
      ASSERT_EQ(data.size(), 3u);
      EXPECT_DOUBLE_EQ(data[1], 2.0);
    }
  });
  EXPECT_TRUE(result.ok());
}

TEST(P2p, RecvAdvancesClockPastDelivery) {
  auto cluster = sim::Cluster::PaperTestbed(2);
  auto result = RunRanks(*cluster, 2, 1, [&](RankContext& ctx) {
    Communicator comm(&ctx);
    if (ctx.rank() == 0) {
      ctx.Compute(5.0);  // sender is way ahead
      comm.SendValue(1, 1, 42);
    } else {
      int v = comm.RecvValue<int>(0, 1);
      EXPECT_EQ(v, 42);
      // Receiver must be at least at the sender's send time.
      EXPECT_GE(ctx.clock().now(), 5.0);
    }
  });
  EXPECT_TRUE(result.ok());
}

TEST(P2p, TagsDisambiguate) {
  auto cluster = sim::Cluster::PaperTestbed(2);
  auto result = RunRanks(*cluster, 2, 1, [&](RankContext& ctx) {
    Communicator comm(&ctx);
    if (ctx.rank() == 0) {
      comm.SendValue(1, /*tag=*/1, 100);
      comm.SendValue(1, /*tag=*/2, 200);
    } else {
      // Receive in reverse tag order: matching must be by tag, not arrival.
      EXPECT_EQ(comm.RecvValue<int>(0, 2), 200);
      EXPECT_EQ(comm.RecvValue<int>(0, 1), 100);
    }
  });
  EXPECT_TRUE(result.ok());
}

TEST(P2p, AnySourceReportsSender) {
  auto cluster = sim::Cluster::PaperTestbed(4);
  auto result = RunRanks(*cluster, 4, 1, [&](RankContext& ctx) {
    Communicator comm(&ctx);
    if (ctx.rank() == 0) {
      std::set<int> seen;
      for (int i = 0; i < 3; ++i) {
        int src = kAnySource;
        int v = comm.RecvValue<int>(kAnySource, 9, &src);
        EXPECT_EQ(v, src * 10);
        seen.insert(src);
      }
      EXPECT_EQ(seen.size(), 3u);
    } else {
      comm.SendValue(0, 9, ctx.rank() * 10);
    }
  });
  EXPECT_TRUE(result.ok());
}

TEST(P2p, LargeMessageCostsMoreVirtualTime) {
  auto cluster = sim::Cluster::PaperTestbed(2);
  sim::SimTime small_time = 0, large_time = 0;
  auto run = [&](std::size_t n, sim::SimTime* out) {
    auto c = sim::Cluster::PaperTestbed(2);
    auto result = RunRanks(*c, 2, 1, [&](RankContext& ctx) {
      Communicator comm(&ctx);
      if (ctx.rank() == 0) {
        comm.Send(1, 1, std::vector<char>(n, 'x'));
      } else {
        comm.RecvBytes(0, 1);
        *out = ctx.clock().now();
      }
    });
    EXPECT_TRUE(result.ok());
  };
  run(100, &small_time);
  run(100'000'000, &large_time);
  EXPECT_GT(large_time, small_time * 100);
}

TEST(BarrierTest, SynchronizesClocks) {
  auto cluster = sim::Cluster::PaperTestbed(2);
  auto result = RunRanks(*cluster, 4, 2, [&](RankContext& ctx) {
    Communicator comm(&ctx);
    ctx.Compute(static_cast<double>(ctx.rank()));  // ranks skewed 0..3s
    comm.Barrier();
    EXPECT_GE(ctx.clock().now(), 3.0);
  });
  EXPECT_TRUE(result.ok());
  // All ranks end at the same released time.
  for (auto t : result.rank_times) {
    EXPECT_DOUBLE_EQ(t, result.rank_times[0]);
  }
}

TEST(BarrierTest, ReusableAcrossIterations) {
  auto cluster = sim::Cluster::PaperTestbed(1);
  auto result = RunRanks(*cluster, 4, 4, [&](RankContext& ctx) {
    Communicator comm(&ctx);
    for (int it = 0; it < 50; ++it) {
      ctx.Compute(0.001 * (ctx.rank() + 1));
      comm.Barrier();
    }
  });
  EXPECT_TRUE(result.ok());
}

TEST(DLock, MutualExclusionAndVirtualSerialization) {
  auto cluster = sim::Cluster::PaperTestbed(2);
  // Shared state to detect real races.
  int counter = 0;
  World* world_ptr = nullptr;
  std::unique_ptr<DistributedLock> lock;
  std::mutex init_mu;
  auto result = RunRanks(*cluster, 8, 4, [&](RankContext& ctx) {
    {
      std::lock_guard<std::mutex> g(init_mu);
      if (lock == nullptr) {
        world_ptr = &ctx.world();
        lock = std::make_unique<DistributedLock>(world_ptr, 0);
      }
    }
    for (int i = 0; i < 100; ++i) {
      DistributedLock::Guard guard(*lock, ctx);
      ++counter;  // data race iff the lock is broken
    }
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(counter, 800);
  // Virtual time must reflect 800 serialized round trips > 0.
  EXPECT_GT(result.max_time, 0.0);
}

// Calendar lease: two ranks, one per node, on a lock homed on node 0. The
// ranks are ordered in wall time by a flag, never by a barrier (which would
// align their clocks) or a sleep.
class Lease : public ::testing::Test {
 protected:
  void SetUp() override { cluster_ = sim::Cluster::PaperTestbed(2); }

  /// One-way control-message cost from `src` to `dst` on an idle network.
  double Hop(std::size_t src, std::size_t dst) const {
    return cluster_->network().TransferDuration(src, dst, 64);
  }

  static void Publish(std::atomic<bool>& flag) {
    flag.store(true, std::memory_order_release);
  }
  static void AwaitFlag(const std::atomic<bool>& flag) {
    while (!flag.load(std::memory_order_acquire)) std::this_thread::yield();
  }

  std::unique_ptr<sim::Cluster> cluster_;
};

TEST_F(Lease, LaterRankReleasingFirstDoesNotDelayAnEarlierRequest) {
  DistributedLock lock(cluster_.get(), /*home_node=*/0);
  std::atomic<bool> released{false};
  double request = -1, granted = -1;
  auto result = RunRanks(*cluster_, 2, 1, [&](RankContext& ctx) {
    if (ctx.rank() == 0) {
      // Ahead in virtual time, first in wall time.
      ctx.Compute(1.0);
      { DistributedLock::Guard guard(lock, ctx); }
      Publish(released);
    } else {
      AwaitFlag(released);
      request = ctx.clock().now();
      lock.Acquire(ctx);
      granted = ctx.clock().now();
      lock.Release(ctx);
    }
  });
  ASSERT_TRUE(result.ok()) << result.error;
  // The hold at t = 1 s starts after this request: only the round trip.
  EXPECT_NEAR(granted, request + Hop(1, 0) + Hop(0, 1), 1e-12);
  EXPECT_DOUBLE_EQ(lock.wait().wait_s, 0.0);
}

TEST_F(Lease, RequestInsideAnEarlierBookedHoldWaitsForItsEnd) {
  DistributedLock lock(cluster_.get(), /*home_node=*/0);
  std::atomic<bool> released{false};
  double long_release = -1, short_release = -1, request = -1, granted = -1;
  auto result = RunRanks(*cluster_, 2, 1, [&](RankContext& ctx) {
    if (ctx.rank() == 0) {
      // First in wall order: a 5 s hold from t = 10 s.
      ctx.Compute(10.0);
      {
        DistributedLock::Guard guard(lock, ctx);
        ctx.Compute(5.0);
        long_release = ctx.clock().now();
      }
      Publish(released);
    } else {
      AwaitFlag(released);
      // Second in wall order, so its release is the last one: a short hold
      // near t = 0, virtually before the request that follows.
      {
        DistributedLock::Guard guard(lock, ctx);
        short_release = ctx.clock().now();
      }
      ctx.Compute(12.0 - ctx.clock().now());
      request = ctx.clock().now();
      lock.Acquire(ctx);
      granted = ctx.clock().now();
      lock.Release(ctx);
    }
  });
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_LT(short_release + Hop(1, 0), request);
  // The request lands inside the long hold and waits for its release.
  EXPECT_NEAR(granted, long_release + Hop(0, 0) + Hop(0, 1), 1e-9);
  EXPECT_GT(granted, request + 3.0);
}

TEST_F(Lease, HoldThatOutgrowsItsGapMovesAfterTheHoldItWouldOverlap) {
  DistributedLock lock(cluster_.get(), /*home_node=*/0);
  std::atomic<bool> released{false};
  double early_release = -1, request = -1, granted = -1, before_release = -1,
         after_release = -1;
  auto result = RunRanks(*cluster_, 2, 1, [&](RankContext& ctx) {
    if (ctx.rank() == 0) {
      // First in wall order: a short hold at t = 5 s.
      ctx.Compute(5.0);
      {
        DistributedLock::Guard guard(lock, ctx);
        early_release = ctx.clock().now();
      }
      Publish(released);
    } else {
      AwaitFlag(released);
      // Granted in the gap before t = 5 s, then held for 10 s: the hold
      // does not fit there.
      request = ctx.clock().now();
      lock.Acquire(ctx);
      granted = ctx.clock().now();
      ctx.Compute(10.0);
      before_release = ctx.clock().now();
      lock.Release(ctx);
      after_release = ctx.clock().now();
    }
  });
  ASSERT_TRUE(result.ok()) << result.error;
  const double grant_at_home = request + Hop(1, 0);
  EXPECT_NEAR(granted, grant_at_home + Hop(0, 1), 1e-12);
  // Booked after the hold it would overlap; the holder pays the shift, as
  // if its grant had waited for that hold's release.
  const double shift = early_release + Hop(0, 0) - grant_at_home;
  EXPECT_NEAR(after_release - before_release, shift, 1e-9);
  // The shift is the hold's wait, charged behind a virtually later hold.
  EXPECT_NEAR(lock.wait().wait_s, shift, 1e-9);
  EXPECT_NEAR(lock.wait().skew_s, shift, 1e-9);
}

}  // namespace
}  // namespace mm::comm
