// Death-matrix tests (DESIGN.md §13): a rank dies mid-collective, while
// parked in a barrier / barrier serial section, and mid-epoch with DSM
// state on the dead node; plus a healed partition. Every scenario must
// terminate (bounded receives + failure detector — no hangs), survivors
// must converge through Revoke → CollectiveRecover/ShrinkAfterFailure, and
// recovery must either re-home or roll back the dead node's pages per
// core::RecoveryPolicy.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <thread>
#include <unistd.h>
#include <vector>

#include "mm/ckpt/collective.h"
#include "mm/ckpt/journal.h"
#include "mm/ckpt/recovery.h"
#include "mm/comm/communicator.h"
#include "mm/comm/launch.h"
#include "mm/core/service.h"
#include "mm/sim/cluster.h"
#include "mm/sim/fault.h"
#include "mm/sim/network.h"
#include "mm/util/byte_units.h"
#include "mm/util/hash.h"

namespace mm {
namespace {

using sim::TierKind;

std::uint64_t FaultSeed() {
  const char* env = std::getenv("MM_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 42;
}

// ---------------------------------------------------------------------------
// Mid-collective death
// ---------------------------------------------------------------------------

TEST(NodeDeath, MidCollectiveDeathShrinksAndContinues) {
  auto cluster = sim::Cluster::PaperTestbed(2);
  comm::WorldOptions wo;
  wo.kill.rank = 2;
  wo.kill.after_comm_ops = 5;  // dies inside an early AllReduce
  std::atomic<int> recovered{0};
  auto result =
      comm::RunRanks(*cluster, 4, 2, wo, [&](comm::RankContext& ctx) {
        comm::Communicator comm(&ctx);
        auto sum = [](int a, int b) { return a + b; };
        Status st = Status::Ok();
        for (int iter = 0; iter < 64; ++iter) {
          std::vector<int> v = {ctx.rank() + 1};
          st = comm.AllReduceOr(v, sum);
          if (!st.ok()) break;
          // A collective that reports success always delivered the full sum.
          EXPECT_EQ(v[0], 10);
        }
        // Every survivor gets a typed verdict instead of hanging.
        ASSERT_FALSE(st.ok());
        EXPECT_EQ(st.code(), StatusCode::kPeerDead) << st.ToString();
        comm.Revoke();
        auto shrunk = comm.ShrinkAfterFailure();
        ASSERT_TRUE(shrunk.ok()) << shrunk.status().ToString();
        EXPECT_EQ(ctx.world().live_ranks(), 3);
        EXPECT_GE(ctx.world().membership_epoch(), 1u);
        // Life goes on without the dead rank.
        std::vector<int> v = {ctx.rank() + 1};
        ASSERT_TRUE(shrunk->AllReduceOr(v, sum).ok());
        EXPECT_EQ(v[0], 1 + 2 + 4);  // ranks 0, 1, 3
        recovered.fetch_add(1);
      });
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.dead_ranks, std::vector<int>{2});
  EXPECT_EQ(recovered.load(), 3);
}

TEST(NodeDeath, DetectorChargesLatencyAndCountsMisses) {
  auto cluster = sim::Cluster::PaperTestbed(1);
  comm::WorldOptions wo;
  wo.kill.rank = 1;
  wo.kill.after_comm_ops = 1;  // dies at its very first comm op
  auto result =
      comm::RunRanks(*cluster, 2, 2, wo, [&](comm::RankContext& ctx) {
        comm::Communicator comm(&ctx);
        if (ctx.rank() == 0) {
          auto r = comm.RecvValueOr<int>(1, /*tag=*/3);
          ASSERT_FALSE(r.ok());
          EXPECT_EQ(r.status().code(), StatusCode::kPeerDead);
          EXPECT_NE(r.status().message().find("missed heartbeats"),
                    std::string::npos);
          // The verdict is not free: the detector charges
          // heartbeat_interval * miss_threshold of virtual time past the
          // death.
          comm::World& world = ctx.world();
          ASSERT_TRUE(world.RankDead(1));
          EXPECT_GE(ctx.clock().now(),
                    world.DeathTime(1) + world.detector().DetectionLatency());
          EXPECT_EQ(world.metrics()
                        .GetCounter("mm.net.heartbeat_miss_count")
                        ->value(),
                    static_cast<std::uint64_t>(
                        world.detector().miss_threshold));
        } else {
          comm.SendValue<int>(0, /*tag=*/3, 42);  // never executes the send
          ADD_FAILURE() << "killed rank survived its trigger";
        }
      });
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.dead_ranks, std::vector<int>{1});
}

// ---------------------------------------------------------------------------
// Death while parked in a barrier
// ---------------------------------------------------------------------------

TEST(NodeDeath, RankKilledWhileParkedInBarrierReleasesSurvivors) {
  auto cluster = sim::Cluster::PaperTestbed(1);
  std::atomic<bool> parked{false};
  auto result = comm::RunRanks(*cluster, 3, 3, [&](comm::RankContext& ctx) {
    comm::Communicator comm(&ctx);
    if (ctx.rank() == 0) {
      parked.store(true);
      comm.Barrier();  // killed while (most likely) parked here
      ADD_FAILURE() << "dead rank returned from barrier";
    } else if (ctx.rank() == 1) {
      while (!parked.load()) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ctx.world().KillRank(0, ctx.clock().now());
      comm.Barrier();
    } else {
      comm.Barrier();
    }
  });
  ASSERT_TRUE(result.ok()) << result.error;  // survivors released, no hang
  EXPECT_EQ(result.dead_ranks, std::vector<int>{0});
}

TEST(NodeDeath, BarrierSerialSurvivesParkedDeath) {
  auto cluster = sim::Cluster::PaperTestbed(1);
  std::atomic<bool> parked{false};
  std::atomic<int> serial_runs{0};
  auto result = comm::RunRanks(*cluster, 3, 3, [&](comm::RankContext& ctx) {
    comm::Communicator comm(&ctx);
    std::function<sim::SimTime(sim::SimTime)> serial =
        [&](sim::SimTime sync) -> sim::SimTime {
      serial_runs.fetch_add(1);
      return sync;
    };
    if (ctx.rank() == 1) {
      parked.store(true);
      (void)comm.BarrierSerial(serial);  // dies parked; unwinds via throw
      ADD_FAILURE() << "dead rank returned from barrier serial section";
    } else {
      if (ctx.rank() == 2) {
        while (!parked.load()) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ctx.world().KillRank(1, ctx.clock().now());
      }
      EXPECT_TRUE(comm.BarrierSerial(serial).ok());
    }
  });
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.dead_ranks, std::vector<int>{1});
  // The leader election still elects exactly one survivor.
  EXPECT_EQ(serial_runs.load(), 1);
}

// ---------------------------------------------------------------------------
// Healed partition
// ---------------------------------------------------------------------------

TEST(NodeDeath, HealedPartitionConvergesWithoutCasualties) {
  auto cluster = sim::Cluster::PaperTestbed(2);
  sim::NetFaultSpec spec;
  spec.partition_boundary = 1;  // node 0 | node 1
  spec.partition_start_s = 0.0;
  spec.partition_heal_s = 0.002;
  cluster->network().ConfigureFaults(spec, FaultSeed());
  auto result = comm::RunRanks(*cluster, 4, 2, [&](comm::RankContext& ctx) {
    comm::Communicator comm(&ctx);
    for (int iter = 0; iter < 4; ++iter) {
      std::vector<int> v = {ctx.rank() + 1};
      comm.AllReduce(v, [](int a, int b) { return a + b; });
      EXPECT_EQ(v[0], 10);
    }
  });
  ASSERT_TRUE(result.ok()) << result.error;
  // Cross-partition messages were held until the heal, not lost: the job
  // paid for the outage in virtual time and nobody was declared dead.
  EXPECT_GT(cluster->network().partition_holds(), 0u);
  EXPECT_GE(result.max_time, spec.partition_heal_s);
}

// ---------------------------------------------------------------------------
// Mid-epoch death with DSM state on the dead node
// ---------------------------------------------------------------------------

class NodeFailureCkptTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kPage = 4096;
  static constexpr std::uint64_t kPages = 8;

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mm_nodefail_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  static std::vector<std::uint8_t> Pattern(std::size_t n, std::uint64_t salt) {
    std::vector<std::uint8_t> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::uint8_t>((salt * 131 + i) & 0xFF);
    }
    return out;
  }

  std::unique_ptr<core::Service> MakeService(core::RecoveryPolicy policy) {
    clusters_.push_back(sim::Cluster::PaperTestbed(2));
    core::ServiceOptions so;
    so.tier_grants = {{TierKind::kDram, 128 * kKiB},
                      {TierKind::kNvme, MEGABYTES(4)}};
    so.ckpt.dir = (dir_ / "ckpt").string();
    so.recovery_policy = policy;
    // Every death / data-loss verdict must leave a postmortem artifact.
    so.telemetry.flightrec_dir = dir_.string();
    return std::make_unique<core::Service>(clusters_.back().get(), so);
  }

  /// `flightrec_<rank>.json` exists and is a parseable record naming the
  /// dump reason, with the span ring and a metrics snapshot attached.
  void ExpectFlightRecord(int rank, std::string_view reason) {
    std::filesystem::path path =
        dir_ / ("flightrec_" + std::to_string(rank) + ".json");
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    std::ifstream in(path);
    std::string json((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json[json.find_last_not_of('\n')], '}');
    EXPECT_NE(json.find("\"reason\":\"" + std::string(reason) + "\""),
              std::string::npos)
        << json.substr(0, 200);
    EXPECT_NE(json.find("\"spans\":["), std::string::npos);
    EXPECT_NE(json.find("\"metrics\":"), std::string::npos);
  }

  StatusOr<core::VectorMeta*> Register(core::Service& svc) {
    core::VectorOptions vo;
    vo.page_size = kPage;
    return svc.RegisterVector("posix://" + (dir_ / "v.bin").string(), 1, vo,
                              kPages * kPage);
  }

  std::filesystem::path dir_;
  std::vector<std::unique_ptr<sim::Cluster>> clusters_;
};

TEST_F(NodeFailureCkptTest, RehomePolicyRestagesCleanPagesOfDeadNode) {
  auto svc = MakeService(core::RecoveryPolicy::kRehome);
  sim::Cluster& cluster = *clusters_.back();
  core::Service::RecoveryStats stats;
  comm::WorldOptions wo;
  // Flight-recorder wiring: a rank kill dumps the dying node's postmortem
  // the moment the death registers (one rank per node here: rank == node).
  wo.death_observer = [&](int rank, sim::SimTime now) {
    svc->DumpFlightRecord(static_cast<std::size_t>(rank), "rank_kill", now);
  };
  auto run = comm::RunRanks(cluster, 2, 1, wo, [&](comm::RankContext& ctx) {
    comm::Communicator comm(&ctx);
    auto meta = Register(*svc);
    ASSERT_TRUE(meta.ok());
    // Each rank dirties its half of the pages from its own node.
    std::uint64_t begin = ctx.rank() == 0 ? 0 : kPages / 2;
    std::uint64_t end = ctx.rank() == 0 ? kPages / 2 : kPages;
    sim::SimTime t = ctx.clock().now();
    for (std::uint64_t p = begin; p < end; ++p) {
      auto out = svc->WriteRegion(**meta, p, 0, Pattern(kPage, 100 + p),
                                  ctx.node(), t);
      ASSERT_TRUE(out.status.ok());
      t = std::max(t, out.done);
    }
    ctx.clock().AdvanceTo(t);
    // The epoch checkpoint makes every page clean and durable.
    auto ck = ckpt::CollectiveCheckpoint(comm, *svc, "e1");
    ASSERT_TRUE(ck.ok()) << ck.status().message();
    if (ctx.rank() == 1) {
      ctx.world().KillRank(1, ctx.clock().now());
      throw comm::RankDeathError(1);
    }
    // Survivor: the next collective surfaces the death instead of hanging.
    Status st = comm.BarrierOr();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kPeerDead);
    comm.Revoke();
    auto rec = ckpt::CollectiveRecover(comm, *svc);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    stats = *rec;
    EXPECT_TRUE(svc->NodeFenced(1));
    // Every page — including the ones homed on the dead node — reads back
    // the exact pre-death bytes via lazy backend re-stage.
    sim::SimTime t2 = ctx.clock().now();
    for (std::uint64_t p = 0; p < kPages; ++p) {
      sim::SimTime done = t2;
      auto page = svc->ReadPage(**meta, p, 0, t2, &done);
      ASSERT_TRUE(page.ok()) << "page " << p << ": "
                             << page.status().message();
      EXPECT_EQ(*page, Pattern(kPage, 100 + p)) << "page " << p;
      t2 = std::max(t2, done);
    }
    EXPECT_EQ(svc->data_loss_count(), 0u);
  });
  ASSERT_TRUE(run.ok()) << run.error;
  EXPECT_EQ(run.dead_ranks, std::vector<int>{1});
  ExpectFlightRecord(1, "rank_kill");
  EXPECT_EQ(stats.pages_scanned, kPages);
  EXPECT_GT(stats.rehomed, 0u);  // clean primaries on node 1
  EXPECT_EQ(stats.lost, 0u);
  EXPECT_EQ(svc->metrics(0).GetCounter("mm.recovery.rehomed_count")->value(),
            stats.rehomed);
  EXPECT_EQ(
      svc->metrics(0).GetCounter("mm.recovery.data_loss_count")->value(), 0u);
}

TEST_F(NodeFailureCkptTest, RollbackPolicyRestoresLastCheckpoint) {
  auto svc = MakeService(core::RecoveryPolicy::kRollback);
  sim::Cluster& cluster = *clusters_.back();
  auto run = comm::RunRanks(cluster, 2, 1, [&](comm::RankContext& ctx) {
    comm::Communicator comm(&ctx);
    auto meta = Register(*svc);
    ASSERT_TRUE(meta.ok());
    std::uint64_t begin = ctx.rank() == 0 ? 0 : kPages / 2;
    std::uint64_t end = ctx.rank() == 0 ? kPages / 2 : kPages;
    sim::SimTime t = ctx.clock().now();
    for (std::uint64_t p = begin; p < end; ++p) {
      auto out = svc->WriteRegion(**meta, p, 0, Pattern(kPage, 100 + p),
                                  ctx.node(), t);
      ASSERT_TRUE(out.status.ok());
      t = std::max(t, out.done);
    }
    ctx.clock().AdvanceTo(t);
    auto ck = ckpt::CollectiveCheckpoint(comm, *svc, "e1");
    ASSERT_TRUE(ck.ok()) << ck.status().message();
    // Diverge past the epoch: these writes are the work the rollback
    // deliberately discards.
    t = ctx.clock().now();
    for (std::uint64_t p = begin; p < end; ++p) {
      auto out = svc->WriteRegion(**meta, p, 0, Pattern(kPage, 500 + p),
                                  ctx.node(), t);
      ASSERT_TRUE(out.status.ok());
      t = std::max(t, out.done);
    }
    ctx.clock().AdvanceTo(t);
    if (ctx.rank() == 1) {
      ctx.world().KillRank(1, ctx.clock().now());
      throw comm::RankDeathError(1);
    }
    Status st = comm.BarrierOr();
    ASSERT_FALSE(st.ok());
    comm.Revoke();
    // Rollback without naming a checkpoint is a typed config error.
    auto bad = ckpt::CollectiveRecover(comm, *svc);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kFailedPrecondition);
    auto rec = ckpt::CollectiveRecover(comm, *svc, "e1");
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_TRUE(svc->NodeFenced(1));
    // The whole vector is back at epoch e1 — the survivor's own post-epoch
    // writes are gone too (consistent cut, DESIGN.md §13).
    sim::SimTime t2 = ctx.clock().now();
    for (std::uint64_t p = 0; p < kPages; ++p) {
      sim::SimTime done = t2;
      auto page = svc->ReadPage(**meta, p, 0, t2, &done);
      ASSERT_TRUE(page.ok()) << "page " << p << ": "
                             << page.status().message();
      EXPECT_EQ(*page, Pattern(kPage, 100 + p)) << "page " << p;
      t2 = std::max(t2, done);
    }
    EXPECT_EQ(svc->data_loss_count(), 0u);
  });
  ASSERT_TRUE(run.ok()) << run.error;
  EXPECT_EQ(run.dead_ranks, std::vector<int>{1});
}

TEST_F(NodeFailureCkptTest, JournalHealsDirtyPagesOfDeadNode) {
  auto svc = MakeService(core::RecoveryPolicy::kRehome);
  auto meta = Register(*svc);
  ASSERT_TRUE(meta.ok());
  sim::SimTime t = 0.0;
  for (std::uint64_t p = 0; p < kPages; ++p) {
    auto out =
        svc->WriteRegion(**meta, p, 0, Pattern(kPage, 100 + p), 1, t);
    ASSERT_TRUE(out.status.ok());
    t = std::max(t, out.done);
  }
  // The journaled writeback's durable half-state: a redo record per page in
  // the dead node's journal (as FlushVector would have left behind).
  for (std::uint64_t p = 0; p < kPages; ++p) {
    ckpt::JournalRecord rec;
    rec.id = {(*meta)->vector_id, p};
    rec.version = 1;
    rec.offset = p * kPage;
    rec.payload = Pattern(kPage, 100 + p);
    rec.page_crc = Crc32(rec.payload);
    rec.key = (*meta)->key;
    ASSERT_TRUE(svc->journal(1)->Append(rec).ok());
  }
  auto stats = svc->RecoverDeadNode(/*dead_node=*/1, /*from_node=*/0, t);
  EXPECT_EQ(stats.pages_scanned, kPages);
  EXPECT_GT(stats.journal_recovered, 0u);  // dirty primaries on node 1
  EXPECT_EQ(stats.lost, 0u);
  EXPECT_EQ(stats.rehomed, 0u);  // nothing was clean
  for (std::uint64_t p = 0; p < kPages; ++p) {
    sim::SimTime done = t;
    auto page = svc->ReadPage(**meta, p, 0, t, &done);
    ASSERT_TRUE(page.ok()) << "page " << p << ": " << page.status().message();
    EXPECT_EQ(*page, Pattern(kPage, 100 + p)) << "page " << p;
    t = std::max(t, done);
  }
  EXPECT_EQ(svc->data_loss_count(), 0u);
}

TEST_F(NodeFailureCkptTest, DirtyPagesWithoutJournalAreTypedDataLoss) {
  auto svc = MakeService(core::RecoveryPolicy::kRehome);
  auto meta = Register(*svc);
  ASSERT_TRUE(meta.ok());
  sim::SimTime t = 0.0;
  for (std::uint64_t p = 0; p < kPages; ++p) {
    auto out =
        svc->WriteRegion(**meta, p, 0, Pattern(kPage, 100 + p), 1, t);
    ASSERT_TRUE(out.status.ok());
    t = std::max(t, out.done);
  }
  auto stats = svc->RecoverDeadNode(/*dead_node=*/1, /*from_node=*/0, t);
  EXPECT_EQ(stats.pages_scanned, kPages);
  EXPECT_GT(stats.lost, 0u);  // dirty, no redo record, no durable copy
  EXPECT_EQ(stats.journal_recovered, 0u);
  // The first kDataLoss verdict dumped the dead node's postmortem.
  ExpectFlightRecord(1, "data_loss");
  EXPECT_EQ(svc->data_loss_count(), static_cast<std::size_t>(stats.lost));
  // Exactly the lost pages fail typed on access; the rest read back intact.
  std::uint64_t read_losses = 0;
  for (std::uint64_t p = 0; p < kPages; ++p) {
    sim::SimTime done = t;
    auto page = svc->ReadPage(**meta, p, 0, t, &done);
    if (page.ok()) {
      EXPECT_EQ(*page, Pattern(kPage, 100 + p)) << "page " << p;
      t = std::max(t, done);
    } else {
      EXPECT_EQ(page.status().code(), StatusCode::kDataLoss) << "page " << p;
      ++read_losses;
    }
  }
  EXPECT_EQ(read_losses, stats.lost);
}

}  // namespace
}  // namespace mm
