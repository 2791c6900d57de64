// Parameterized tests for tree collectives across communicator sizes,
// including non-powers-of-two and sub-communicators.
#include <gtest/gtest.h>

#include <numeric>

#include "mm/comm/communicator.h"
#include "mm/comm/launch.h"

namespace mm::comm {
namespace {

class CollectiveTest : public ::testing::TestWithParam<int> {
 protected:
  /// Runs `body` on GetParam() ranks spread over ceil(n/4) nodes.
  void Run(const std::function<void(RankContext&, Communicator&)>& body) {
    int n = GetParam();
    int per_node = 4;
    auto cluster = sim::Cluster::PaperTestbed((n + per_node - 1) / per_node);
    auto result = RunRanks(*cluster, n, per_node, [&](RankContext& ctx) {
      Communicator comm(&ctx);
      body(ctx, comm);
    });
    ASSERT_TRUE(result.ok()) << result.error;
  }

  /// Per-rank results and virtual end times of one run on a fresh cluster.
  struct FreshRun {
    std::vector<std::vector<double>> data;
    std::vector<sim::SimTime> rank_times;
  };
  using Body = std::function<std::vector<double>(RankContext&, Communicator&)>;

  FreshRun RunFresh(const Body& body) {
    int n = GetParam();
    auto cluster = sim::Cluster::PaperTestbed((n + 3) / 4);
    FreshRun run;
    run.data.resize(static_cast<std::size_t>(n));
    auto result = RunRanks(*cluster, n, 4, [&](RankContext& ctx) {
      Communicator comm(&ctx);
      run.data[ctx.rank()] = body(ctx, comm);
    });
    EXPECT_TRUE(result.ok()) << result.error;
    run.rank_times = result.rank_times;
    return run;
  }

  /// The blocking form and the *Or form must be the same tree: identical
  /// results and identical virtual times, message for message.
  void ExpectSameTree(const char* what, const Body& blocking,
                      const Body& checked) {
    FreshRun a = RunFresh(blocking);
    FreshRun b = RunFresh(checked);
    EXPECT_EQ(a.data, b.data) << what;
    EXPECT_EQ(a.rank_times, b.rank_times) << what;
  }
};

TEST_P(CollectiveTest, BcastFromRankZero) {
  Run([](RankContext& ctx, Communicator& comm) {
    std::vector<int> data;
    if (ctx.rank() == 0) data = {7, 8, 9};
    comm.Bcast(data, 0);
    ASSERT_EQ(data.size(), 3u);
    EXPECT_EQ(data[0], 7);
    EXPECT_EQ(data[2], 9);
  });
}

TEST_P(CollectiveTest, BcastFromNonzeroRoot) {
  Run([](RankContext&, Communicator& comm) {
    int root = comm.size() - 1;
    std::vector<double> data;
    if (comm.rank() == root) data = {3.14};
    comm.Bcast(data, root);
    ASSERT_EQ(data.size(), 1u);
    EXPECT_DOUBLE_EQ(data[0], 3.14);
  });
}

TEST_P(CollectiveTest, ReduceSumsToRoot) {
  Run([](RankContext& ctx, Communicator& comm) {
    std::vector<long> data = {static_cast<long>(ctx.rank() + 1), 1};
    comm.Reduce(data, 0, [](long a, long b) { return a + b; });
    if (comm.rank() == 0) {
      long n = comm.size();
      EXPECT_EQ(data[0], n * (n + 1) / 2);
      EXPECT_EQ(data[1], n);
    }
  });
}

TEST_P(CollectiveTest, AllReduceMax) {
  Run([](RankContext& ctx, Communicator& comm) {
    std::vector<int> data = {ctx.rank()};
    comm.AllReduce(data, [](int a, int b) { return std::max(a, b); });
    EXPECT_EQ(data[0], comm.size() - 1);
  });
}

TEST_P(CollectiveTest, GatherVCollectsPerRankSizes) {
  Run([](RankContext& ctx, Communicator& comm) {
    // Rank r contributes r+1 copies of r.
    std::vector<int> mine(static_cast<std::size_t>(ctx.rank()) + 1, ctx.rank());
    auto all = comm.GatherV(mine, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), static_cast<std::size_t>(comm.size()));
      for (int r = 0; r < comm.size(); ++r) {
        ASSERT_EQ(all[r].size(), static_cast<std::size_t>(r) + 1);
        for (int v : all[r]) EXPECT_EQ(v, r);
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(CollectiveTest, AllGatherVConcatenatesInRankOrder) {
  Run([](RankContext& ctx, Communicator& comm) {
    std::vector<int> mine = {ctx.rank() * 2, ctx.rank() * 2 + 1};
    auto flat = comm.AllGatherV(mine);
    ASSERT_EQ(flat.size(), static_cast<std::size_t>(comm.size()) * 2);
    for (int i = 0; i < comm.size() * 2; ++i) {
      EXPECT_EQ(flat[i], i);
    }
  });
}

TEST_P(CollectiveTest, ScatterVDistributesParts) {
  Run([](RankContext& ctx, Communicator& comm) {
    std::vector<std::vector<int>> parts;
    if (comm.rank() == 0) {
      parts.resize(comm.size());
      for (int r = 0; r < comm.size(); ++r) {
        parts[r] = {r, r * 10};
      }
    }
    auto mine = comm.ScatterV(parts, 0);
    ASSERT_EQ(mine.size(), 2u);
    EXPECT_EQ(mine[0], ctx.rank());
    EXPECT_EQ(mine[1], ctx.rank() * 10);
  });
}

TEST_P(CollectiveTest, SplitFormsCorrectGroups) {
  Run([](RankContext& ctx, Communicator& comm) {
    int color = ctx.rank() % 2;
    Communicator sub = comm.Split(color);
    int expected_size = comm.size() / 2 + (color == 0 ? comm.size() % 2 : 0);
    EXPECT_EQ(sub.size(), expected_size);
    // Group collective works inside the sub-communicator.
    std::vector<int> data = {1};
    sub.AllReduce(data, [](int a, int b) { return a + b; });
    EXPECT_EQ(data[0], expected_size);
    // World ranks in my group all share my color.
    for (int i = 0; i < sub.size(); ++i) {
      EXPECT_EQ(sub.WorldRank(i) % 2, color);
    }
  });
}

TEST_P(CollectiveTest, NestedSplit) {
  Run([](RankContext& ctx, Communicator& comm) {
    if (comm.size() < 4) return;
    Communicator half = comm.Split(ctx.rank() < comm.size() / 2 ? 0 : 1);
    Communicator quarter = half.Split(half.rank() % 2);
    std::vector<int> ones = {1};
    quarter.AllReduce(ones, [](int a, int b) { return a + b; });
    EXPECT_EQ(ones[0], quarter.size());
  });
}

TEST_P(CollectiveTest, SubBarrierSynchronizesGroupClocks) {
  Run([](RankContext& ctx, Communicator& comm) {
    if (comm.size() < 2) return;
    Communicator sub = comm.Split(ctx.rank() % 2);
    ctx.Compute(0.1 * (sub.rank() + 1));
    double max_before = 0.1 * sub.size();
    sub.Barrier();
    EXPECT_GE(ctx.clock().now(), max_before - 1e-12);
  });
}

TEST_P(CollectiveTest, BlockingFormsRunTheOrTrees) {
  // GatherV is left out: its any-source fan-in reserves links in wall
  // order, so its virtual times are not reproducible run to run.
  auto mine = [](RankContext& ctx) {
    return std::vector<double>{ctx.rank() + 1.5, ctx.rank() * 0.25};
  };
  auto sum = [](double a, double b) { return a + b; };
  for (int root : {0, GetParam() - 1}) {
    ExpectSameTree(
        "Bcast",
        [&](RankContext& ctx, Communicator& comm) {
          std::vector<double> d;
          if (comm.rank() == root) d = mine(ctx);
          comm.Bcast(d, root);
          return d;
        },
        [&](RankContext& ctx, Communicator& comm) {
          std::vector<double> d;
          if (comm.rank() == root) d = mine(ctx);
          EXPECT_TRUE(comm.BcastOr(d, root).ok());
          return d;
        });
    ExpectSameTree(
        "Reduce",
        [&](RankContext& ctx, Communicator& comm) {
          auto d = mine(ctx);
          comm.Reduce(d, root, sum);
          return d;
        },
        [&](RankContext& ctx, Communicator& comm) {
          auto d = mine(ctx);
          EXPECT_TRUE(comm.ReduceOr(d, root, sum).ok());
          return d;
        });
    auto parts = [&](Communicator& comm) {
      std::vector<std::vector<double>> p;
      if (comm.rank() == root) {
        for (int r = 0; r < comm.size(); ++r) p.push_back({r * 2.0, 1.0});
      }
      return p;
    };
    ExpectSameTree(
        "ScatterV",
        [&](RankContext&, Communicator& comm) {
          return comm.ScatterV(parts(comm), root);
        },
        [&](RankContext&, Communicator& comm) {
          std::vector<double> d;
          EXPECT_TRUE(comm.ScatterVOr(parts(comm), root, &d).ok());
          return d;
        });
  }
  ExpectSameTree(
      "AllReduce",
      [&](RankContext& ctx, Communicator& comm) {
        auto d = mine(ctx);
        comm.AllReduce(d, sum);
        return d;
      },
      [&](RankContext& ctx, Communicator& comm) {
        auto d = mine(ctx);
        EXPECT_TRUE(comm.AllReduceOr(d, sum).ok());
        return d;
      });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 33));

TEST(CollectiveScaling, BcastCostGrowsLogarithmically) {
  // Tree broadcast virtual cost should grow ~log(p), far slower than linear.
  auto measure = [](int n) {
    auto cluster = sim::Cluster::PaperTestbed(n);
    sim::SimTime t = 0;
    auto result = RunRanks(*cluster, n, 1, [&](RankContext& ctx) {
      Communicator comm(&ctx);
      std::vector<char> data;
      if (ctx.rank() == 0) data.assign(1'000'000, 'x');
      comm.Bcast(data, 0);
      comm.Barrier();
      if (ctx.rank() == 0) t = ctx.clock().now();
    });
    EXPECT_TRUE(result.ok());
    return t;
  };
  sim::SimTime t4 = measure(4);
  sim::SimTime t16 = measure(16);
  // 4x ranks should cost roughly 2x (log2 16 / log2 4), well under 3x.
  EXPECT_LT(t16, t4 * 3.0);
  EXPECT_GT(t16, t4);
}

}  // namespace
}  // namespace mm::comm
