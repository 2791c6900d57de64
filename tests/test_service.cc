// Service-level tests: vector registry, inline task execution,
// organizer wiring, ownership/placement, phases, YAML options, and
// read-only-global replication on a remote read.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>

#include "mm/comm/communicator.h"
#include "mm/comm/launch.h"
#include "mm/mega_mmap.h"
#include "mm/core/pcache.h"
#include "mm/sim/cost_model.h"
#include "mm/util/hash.h"

namespace mm::core {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = sim::Cluster::PaperTestbed(4);
    ServiceOptions so;
    so.tier_grants = {{sim::TierKind::kDram, MEGABYTES(4)},
                      {sim::TierKind::kNvme, MEGABYTES(16)}};
    svc_ = std::make_unique<Service>(cluster_.get(), so);
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::unique_ptr<Service> svc_;
};

TEST_F(ServiceTest, RegisterVectorIsIdempotent) {
  VectorOptions vo;
  vo.nonvolatile = false;
  auto a = svc_->RegisterVector("vec", 8, vo, 100);
  auto b = svc_->RegisterVector("vec", 8, vo, 100);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ((*a)->num_elements(), 100u);
}

TEST_F(ServiceTest, RegisterVectorRejectsElementSizeMismatch) {
  VectorOptions vo;
  vo.nonvolatile = false;
  ASSERT_TRUE(svc_->RegisterVector("vec", 8, vo, 100).ok());
  EXPECT_FALSE(svc_->RegisterVector("vec", 4, vo, 100).ok());
}

TEST_F(ServiceTest, FindVectorByKey) {
  VectorOptions vo;
  vo.nonvolatile = false;
  auto meta = svc_->RegisterVector("lookup_me", 8, vo, 10);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(svc_->FindVector("lookup_me"), *meta);
  EXPECT_EQ(svc_->FindVector("nope"), nullptr);
}

TEST_F(ServiceTest, PageBytesRoundedToWholeElements) {
  VectorOptions vo;
  vo.nonvolatile = false;
  vo.page_size = 1000;  // not a multiple of 24
  auto meta = svc_->RegisterVector("rounded", 24, vo, 100);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ((*meta)->page_bytes % 24, 0u);
  EXPECT_LE((*meta)->page_bytes, 1000u);
  EXPECT_EQ((*meta)->elems_per_page(), 41u);
}

TEST_F(ServiceTest, DefaultOwnerUsesPgasHint) {
  VectorOptions vo;
  vo.nonvolatile = false;
  vo.page_size = 64;  // 8 elements per page
  auto meta = svc_->RegisterVector("hinted", 8, vo, 64);
  ASSERT_TRUE(meta.ok());
  // 8 ranks over 4 nodes (2 per node), 64 elements -> 8 per rank, exactly
  // one page per rank.
  svc_->SetPgasHint(**meta, VectorMeta::PgasHint{64, 8, 2});
  for (std::uint64_t page = 0; page < 8; ++page) {
    storage::BlobId id{(*meta)->vector_id, page};
    EXPECT_EQ(svc_->DefaultOwner(**meta, id), page / 2) << "page " << page;
  }
  // Pages past the hinted size fall back to home-node hashing.
  storage::BlobId beyond{(*meta)->vector_id, 99};
  EXPECT_EQ(svc_->DefaultOwner(**meta, beyond),
            svc_->metadata().HomeNode(beyond));
}

TEST_F(ServiceTest, DefaultOwnerWithoutHintIsHomeNode) {
  VectorOptions vo;
  vo.nonvolatile = false;
  auto meta = svc_->RegisterVector("unhinted", 8, vo, 100);
  storage::BlobId id{(*meta)->vector_id, 3};
  EXPECT_EQ(svc_->DefaultOwner(**meta, id), svc_->metadata().HomeNode(id));
}

TEST_F(ServiceTest, WriteThenReadThroughTasks) {
  VectorOptions vo;
  vo.nonvolatile = false;
  vo.page_size = 4096;
  auto meta = svc_->RegisterVector("taskio", 1, vo, 8192);
  ASSERT_TRUE(meta.ok());
  std::vector<std::uint8_t> bytes(100, 0x5A);
  TaskOutcome outcome = svc_->WriteRegion(**meta, /*page=*/1, /*offset=*/50,
                                          bytes, /*from_node=*/0, /*now=*/0.0);
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.version, 1u);
  sim::SimTime done = 0;
  auto page = svc_->ReadPage(**meta, 1, /*from_node=*/2, outcome.done, &done);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ((*page)[49], 0);
  EXPECT_EQ((*page)[50], 0x5A);
  EXPECT_EQ((*page)[149], 0x5A);
  EXPECT_GT(done, 0.0);
}

TEST_F(ServiceTest, VersionsIncrementPerCommit) {
  VectorOptions vo;
  vo.nonvolatile = false;
  vo.page_size = 4096;
  auto meta = svc_->RegisterVector("versioned", 1, vo, 4096);
  std::vector<std::uint8_t> bytes(10, 1);
  for (std::uint64_t expect = 1; expect <= 3; ++expect) {
    auto outcome =
        svc_->WriteRegion(**meta, 0, 0, bytes, 0, 0.0);
    ASSERT_TRUE(outcome.status.ok());
    EXPECT_EQ(outcome.version, expect);
    if (expect == 1) {
      // First commit materializes the page: the base version is unknowable
      // (reported as ~0 so writer frames never falsely adopt it).
      EXPECT_EQ(outcome.prev_version, ~0ULL);
    } else {
      EXPECT_EQ(outcome.prev_version, expect - 1);
    }
  }
  // The directory holds the committed version; unplaced pages have none.
  auto placed = svc_->metadata().Lookup({(*meta)->vector_id, 0}, 0, 0.0,
                                        nullptr);
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(placed->version, 3u);
  EXPECT_FALSE(
      svc_->metadata().Lookup({(*meta)->vector_id, 99}, 0, 0.0, nullptr).ok());
}

TEST_F(ServiceTest, ReaderInACommitGapGetsACommittedStateAndHealsNothing) {
  VectorOptions vo;
  vo.nonvolatile = false;
  vo.page_size = 4096;
  auto meta = svc_->RegisterVector("gap", 1, vo, 4096);
  ASSERT_TRUE(meta.ok());
  const storage::BlobId id{(*meta)->vector_id, 0};
  const std::vector<std::uint8_t> old_bytes(4096, 0x11);
  TaskOutcome first = svc_->WriteRegion(**meta, 0, 0, old_bytes, 0, 0.0);
  ASSERT_TRUE(first.status.ok());
  auto entry = svc_->metadata().Lookup(id, 0, first.done, nullptr);
  ASSERT_TRUE(entry.ok());
  ASSERT_TRUE(entry->dirty);
  const std::size_t owner = entry->node;

  // The first half of a second commit: the owner's scache copy takes the
  // new bytes and stamp; the directory mirror has not landed yet.
  const std::vector<std::uint8_t> new_bytes(4096, 0x22);
  auto stamp = svc_->runtime(owner).buffer().PutPartial(id, 0, new_bytes,
                                                        first.done, nullptr);
  ASSERT_TRUE(stamp.ok());
  ASSERT_EQ(stamp->version, first.version + 1);

  const std::size_t remote = (owner + 1) % svc_->num_nodes();
  for (std::size_t reader : {owner, remote}) {
    SCOPED_TRACE("reader on node " + std::to_string(reader));
    std::uint64_t version = 0;
    sim::SimTime done = first.done;
    auto page = svc_->ReadPage(**meta, 0, reader, first.done, &done, &version);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    if (*page == new_bytes) {
      EXPECT_EQ(version, stamp->version);
    } else {
      EXPECT_EQ(*page, old_bytes);
      EXPECT_EQ(version, first.version);
    }
    EXPECT_TRUE(svc_->runtime(owner).buffer().FindBlob(id).has_value());
    EXPECT_FALSE(svc_->IsDataLost(id));
  }
}

TEST_F(ServiceTest, ScoresReachTheOrganizer) {
  VectorOptions vo;
  vo.nonvolatile = false;
  vo.page_size = 4096;
  auto meta = svc_->RegisterVector("scored", 1, vo, 4096);
  std::vector<std::uint8_t> bytes(10, 1);
  auto outcome = svc_->WriteRegion(**meta, 0, 0, bytes, 0, 0.0);
  ASSERT_TRUE(outcome.status.ok());
  auto loc = svc_->metadata().Lookup({(*meta)->vector_id, 0}, 0, 0.0, nullptr);
  ASSERT_TRUE(loc.ok());
  std::size_t owner = loc->node;
  svc_->SubmitScore(**meta, 0, 0.77f, 0, 0.0);
  storage::BlobId id{(*meta)->vector_id, 0};
  EXPECT_FLOAT_EQ(svc_->runtime(owner).buffer().GetScore(id), 0.77f);
}

TEST_F(ServiceTest, ChangePhaseDropsReplicas) {
  VectorOptions vo;
  vo.nonvolatile = false;
  vo.page_size = 4096;
  vo.mode = CoherenceMode::kReadOnlyGlobal;
  auto meta = svc_->RegisterVector("phased", 1, vo, 4096);
  std::vector<std::uint8_t> bytes(4096, 7);
  // Place the page on node 0, then read it from node 2 (replicates).
  auto outcome = svc_->WriteRegion(**meta, 0, 0, bytes, 0, 0.0);
  ASSERT_TRUE(outcome.status.ok());
  sim::SimTime done = 0;
  ASSERT_TRUE(svc_->ReadPage(**meta, 0, 2, outcome.done, &done).ok());
  storage::BlobId id{(*meta)->vector_id, 0};
  EXPECT_FALSE(svc_->metadata().Replicas(id, 0, 0.0, nullptr).empty());
  ASSERT_TRUE(
      svc_->ChangePhase(**meta, CoherenceMode::kWriteOnlyGlobal, 0, done,
                        nullptr)
          .ok());
  EXPECT_TRUE(svc_->metadata().Replicas(id, 0, 0.0, nullptr).empty());
}

TEST_F(ServiceTest, DestroyIsIdempotent) {
  VectorOptions vo;
  vo.nonvolatile = false;
  auto meta = svc_->RegisterVector("bye", 1, vo, 4096);
  std::vector<std::uint8_t> bytes(10, 1);
  // Write outcome is irrelevant; the test exercises DestroyVector below.
  (void)svc_->WriteRegion(**meta, 0, 0, bytes, 0, 0.0);
  EXPECT_TRUE(svc_->DestroyVector(**meta).ok());
  EXPECT_TRUE(svc_->DestroyVector(**meta).ok());
  EXPECT_EQ(svc_->metadata().BlobsOfVector((*meta)->vector_id).size(), 0u);
}

TEST_F(ServiceTest, RequiresTierGrants) {
  ServiceOptions so;  // empty grants
  EXPECT_THROW(Service bad(cluster_.get(), so), std::logic_error);
}

TEST_F(ServiceTest, ScacheDramReservedAgainstNodeBudget) {
  // The fixture service granted 4 MB DRAM on each node.
  for (std::size_t n = 0; n < cluster_->num_nodes(); ++n) {
    EXPECT_GE(cluster_->node(n).dram_used(), MEGABYTES(4));
  }
  std::uint64_t before = cluster_->node(0).dram_used();
  svc_->Shutdown();
  EXPECT_EQ(cluster_->node(0).dram_used(), before - MEGABYTES(4));
}

// Shutdown racing in-flight Submit()s (run under TSan in CI): every task
// gets an outcome — accepted tasks complete, rejected ones carry
// kFailedPrecondition — and no submitter may hang or crash.
TEST_F(ServiceTest, ShutdownVsInflightSubmitFulfillsEveryPromise) {
  VectorOptions vo;
  vo.nonvolatile = false;
  auto meta = svc_->RegisterVector("race", sizeof(double), vo, 4096);
  ASSERT_TRUE(meta.ok());
  std::vector<std::uint8_t> bytes(64, 7);
  constexpr int kSubmitters = 4, kPerThread = 50;
  std::atomic<int> resolved{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Must never hang.
        TaskOutcome out = svc_->WriteRegion(
            **meta, 0, (t * kPerThread + i) % 256, bytes, 0, 0.0);
        EXPECT_TRUE(out.status.ok() ||
                    out.status.code() == StatusCode::kFailedPrecondition)
            << out.status.ToString();
        resolved.fetch_add(1);
      }
    });
  }
  svc_->Shutdown();
  for (auto& t : submitters) t.join();
  EXPECT_EQ(resolved.load(), kSubmitters * kPerThread);
}

// Every outcome is final when Submit returns: each commit, score and
// read-back below is observable the moment its call returns, on both
// nodes, and mm.task.executed_count rose by exactly the tasks submitted.
TEST(ServiceInline, EveryOutcomeIsFinalWhenSubmitReturns) {
  auto cluster = sim::Cluster::PaperTestbed(2);
  ServiceOptions so;
  so.tier_grants = {{sim::TierKind::kDram, MEGABYTES(4)}};
  Service svc(cluster.get(), so);
  constexpr std::uint64_t kPage = 64;  // 8 elements
  VectorOptions vo;
  vo.page_size = kPage;
  vo.nonvolatile = false;
  auto meta = svc.RegisterVector("inline", 8, vo, 64);
  ASSERT_TRUE(meta.ok());
  // 2 ranks, one per node: pages 0-3 live on node 0, pages 4-7 on node 1.
  svc.SetPgasHint(**meta, VectorMeta::PgasHint{64, 2, 1});
  constexpr std::uint64_t kPages = 8;
  auto executed = [&] {
    std::uint64_t total = 0;
    for (std::size_t node = 0; node < svc.num_nodes(); ++node) {
      total += svc.metrics(node).GetCounter("mm.task.executed_count")->value();
    }
    return total;
  };
  const std::uint64_t before = executed();
  std::uint64_t submitted = 0;
  for (std::uint64_t round = 0; round < 16; ++round) {
    for (std::uint64_t page = 0; page < kPages; ++page) {
      const storage::BlobId id{(*meta)->vector_id, page};
      const std::size_t node = page / 4;
      const std::vector<std::uint8_t> bytes(8, std::uint8_t(round + 1));
      TaskOutcome commit =
          svc.WriteRegion(**meta, page, round % 8 * 8, bytes, node, 0.0);
      ASSERT_TRUE(commit.status.ok()) << commit.status.ToString();
      EXPECT_EQ(commit.version, round + 1);
      auto loc = svc.metadata().Lookup(id, node, 0.0, nullptr);
      ASSERT_TRUE(loc.ok());
      EXPECT_EQ(loc->node, node);
      EXPECT_EQ(loc->version, round + 1);
      const float score = 0.5f + 0.01f * float(round);
      svc.SubmitScore(**meta, page, score, node, 0.0);
      EXPECT_FLOAT_EQ(svc.runtime(node).buffer().GetScore(id), score);
      submitted += 2;
    }
  }
  // A fetch run of every page from node 0 returns the committed bytes.
  std::vector<PendingFetch> fetches =
      svc.ReadPagesAsync(**meta, 0, kPages, 0, 0.0);
  ASSERT_EQ(fetches.size(), kPages);
  for (std::uint64_t page = 0; page < kPages; ++page) {
    const TaskOutcome& out = fetches[page].outcome;
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_EQ(out.version, 16u);
    for (std::uint64_t off = 0; off < kPage; ++off) {
      // Round r wrote byte r + 1 at offset r % 8 * 8; rounds 8-15 last.
      EXPECT_EQ(out.data[off], off / 8 + 9) << "page " << page;
    }
    ++submitted;  // every page is a run of one: each is placed
  }
  EXPECT_EQ(executed() - before, submitted);
}

// Concurrent routed faults of one page on one node share fetches through
// ReadPage's in-flight slot: leaders and followers alike return the
// committed bytes and version, and no fault runs more than one get_page.
TEST(ServiceInline, ConcurrentFaultsOfOnePageAgree) {
  auto cluster = sim::Cluster::PaperTestbed(2);
  ServiceOptions so;
  so.tier_grants = {{sim::TierKind::kDram, MEGABYTES(16)}};
  Service svc(cluster.get(), so);
  // Large pages keep each fetch (copy and CRC check) long enough for the
  // other readers to join it.
  constexpr std::uint64_t kPage = 256 * kKiB, kElems = 2 * kPage / 8;
  VectorOptions vo;
  vo.page_size = kPage;
  vo.nonvolatile = false;
  auto meta = svc.RegisterVector("dedup", 8, vo, kElems);
  ASSERT_TRUE(meta.ok());
  // Page 1 lives on node 1; node 0 holds no copy, so every read from node
  // 0 is a routed fault.
  svc.SetPgasHint(**meta, VectorMeta::PgasHint{kElems, 2, 1});
  const std::vector<std::uint8_t> bytes(kPage, 0x5a);
  ASSERT_TRUE(svc.WriteRegion(**meta, 1, 0, bytes, 1, 0.0).status.ok());
  constexpr int kThreads = 4, kReads = 50;
  std::atomic<int> arrived{0}, wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < kReads; ++i) {
        // Start read i together with the other readers.
        arrived.fetch_add(1);
        while (arrived.load() < (i + 1) * kThreads) std::this_thread::yield();
        sim::SimTime done = 0.0;
        std::uint64_t version = 0;
        auto got = svc.ReadPage(**meta, 1, 0, 0.0, &done, &version);
        if (!got.ok() || *got != bytes || version != 1) wrong.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(svc.metrics(0).GetCounter("mm.service.fault_count")->value(),
            std::uint64_t{kThreads * kReads});
  const std::uint64_t fetches =
      svc.metrics(1)
          .GetHistogram("mm.task.get_page_ns", telemetry::LatencyBoundsNs())
          ->count();
  EXPECT_GE(fetches, 1u);
  EXPECT_LE(fetches, std::uint64_t{kThreads * kReads});
}

// ---- run stage-in (ReadPagesAsync) ----

constexpr std::uint64_t kRunPage = 64 * kKiB;

/// A service over a posix-backed vector of `pages` pages (64 KiB unless
/// given) whose bytes are a position pattern, placed by a Pgas hint over
/// `nprocs` ranks (one per node).
class RunStageInTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mm_run_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    cluster_ = sim::Cluster::PaperTestbed(4);
  }
  void TearDown() override {
    svc_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  VectorMeta& Open(std::uint64_t pages, int nprocs,
                   std::uint64_t page_bytes = kRunPage,
                   sim::FaultConfig faults = {}) {
    file_.resize(pages * page_bytes);
    for (std::size_t i = 0; i < file_.size(); ++i) {
      file_[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 16));
    }
    const std::string path = (dir_ / "run.bin").string();
    {
      std::ofstream out(path, std::ios::binary);
      out.write(reinterpret_cast<const char*>(file_.data()),
                static_cast<std::streamsize>(file_.size()));
    }
    ServiceOptions so;
    so.tier_grants = {{sim::TierKind::kDram, MEGABYTES(16)},
                      {sim::TierKind::kNvme, MEGABYTES(64)}};
    so.faults = faults;
    svc_ = std::make_unique<Service>(cluster_.get(), so);
    VectorOptions vo;
    vo.page_size = page_bytes;
    auto meta = svc_->RegisterVector("posix://" + path, 1, vo);
    MM_CHECK(meta.ok());
    svc_->SetPgasHint(**meta, VectorMeta::PgasHint{file_.size(), nprocs, 1});
    return **meta;
  }

  std::uint64_t Counter(const char* name) {
    std::uint64_t total = 0;
    for (std::size_t n = 0; n < svc_->num_nodes(); ++n) {
      total += svc_->metrics(n).GetCounter(name)->value();
    }
    return total;
  }

  /// The file's bytes of `page`.
  std::vector<std::uint8_t> FilePage(const VectorMeta& meta,
                                     std::uint64_t page) const {
    auto first = file_.begin() +
                 static_cast<std::ptrdiff_t>(page * meta.page_bytes);
    return {first, first + static_cast<std::ptrdiff_t>(meta.page_bytes)};
  }

  std::filesystem::path dir_;
  std::unique_ptr<sim::Cluster> cluster_;
  std::unique_ptr<Service> svc_;
  std::vector<std::uint8_t> file_;
};

TEST_F(RunStageInTest, RunPagesFollowTheStripe) {
  VectorMeta& meta = Open(1, 1);
  const std::uint64_t stripe = cluster_->pfs().spec().stripe_bytes;
  EXPECT_EQ(svc_->RunPages(meta), stripe / kRunPage);
  VectorOptions vo;
  vo.nonvolatile = false;
  auto vol = svc_->RegisterVector("volatile", 1, vo, kMiB);
  ASSERT_TRUE(vol.ok());
  EXPECT_EQ(svc_->RunPages(**vol), 1u);
}

TEST_F(RunStageInTest, SixteenUnplacedPagesStageInAsOneRead) {
  VectorMeta& meta = Open(16, 1);
  ASSERT_EQ(svc_->RunPages(meta), 16u);
  const std::uint64_t reads = Counter("mm.stager.read_count");
  const std::uint64_t bytes = Counter("mm.stager.read_bytes");
  std::vector<PendingFetch> fetches = svc_->ReadPagesAsync(meta, 0, 16, 0, 0.0);
  ASSERT_EQ(fetches.size(), 16u);
  for (std::uint64_t page = 0; page < 16; ++page) {
    const TaskOutcome& out = fetches[page].outcome;
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_EQ(fetches[page].owner, 0u);
    EXPECT_EQ(out.version, 0u);
    EXPECT_EQ(out.data, FilePage(meta, page)) << "page " << page;
    auto loc = svc_->metadata().Lookup({meta.vector_id, page}, 0, 0.0, nullptr);
    ASSERT_TRUE(loc.ok()) << "page " << page;
    EXPECT_EQ(loc->version, 0u);
    EXPECT_FALSE(loc->dirty);
    EXPECT_EQ(loc->crc, Crc32(out.data));
  }
  EXPECT_EQ(Counter("mm.stager.read_count") - reads, 1u);
  EXPECT_EQ(Counter("mm.stager.read_bytes") - bytes, kMiB);
}

TEST_F(RunStageInTest, PlacedPagesSplitTheRun) {
  // Page 5 is placed (a fault staged it in): the run splits around it, and
  // page 5 is served from its copy, not from the backend again.
  VectorMeta& meta = Open(16, 1);
  sim::SimTime done = 0.0;
  ASSERT_TRUE(svc_->ReadPage(meta, 5, 0, 0.0, &done).ok());
  const std::uint64_t reads = Counter("mm.stager.read_count");
  std::vector<PendingFetch> fetches =
      svc_->ReadPagesAsync(meta, 0, 16, 0, done);
  for (std::uint64_t page = 0; page < 16; ++page) {
    const TaskOutcome& out = fetches[page].outcome;
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_EQ(out.data, FilePage(meta, page)) << "page " << page;
  }
  EXPECT_EQ(Counter("mm.stager.read_count") - reads, 2u);  // [0,5) + [6,16)
}

TEST_F(RunStageInTest, RestoredPageStagesInUnderItsDirectoryStamp) {
  // Both pages carry the directory entry a restore writes: backend
  // residency, clean, the committed version and the CRC of the committed
  // bytes. Page 1's backend bytes are then corrupted.
  VectorMeta& meta = Open(2, 1);
  for (std::uint64_t page = 0; page < 2; ++page) {
    storage::BlobLocation loc;
    loc.tier = sim::TierKind::kPfs;
    loc.size = meta.page_bytes;
    loc.version = 7;
    loc.crc = Crc32(FilePage(meta, page));
    ASSERT_TRUE(svc_->metadata()
                    .Update({meta.vector_id, page}, loc, 0, 0.0, nullptr)
                    .ok());
  }
  {
    std::fstream f(dir_ / "run.bin",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(meta.page_bytes + 100));
    f.put(static_cast<char>(file_[meta.page_bytes + 100] ^ 0x5A));
  }

  // The intact page stages in and is cached under its directory stamp.
  const storage::BlobId good{meta.vector_id, 0};
  sim::SimTime done = 0.0;
  auto bytes = svc_->ReadPage(meta, 0, 0, 0.0, &done);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(*bytes, FilePage(meta, 0));
  std::vector<std::uint8_t> cached;
  auto stamp = svc_->runtime(0).buffer().GetInto(good, &cached, done, nullptr);
  ASSERT_TRUE(stamp.ok()) << stamp.status().ToString();
  EXPECT_EQ(stamp->version, 7u);
  EXPECT_EQ(stamp->crc, Crc32(FilePage(meta, 0)));
  auto loc = svc_->metadata().Lookup(good, 0, done, nullptr);
  ASSERT_TRUE(loc.ok());
  EXPECT_NE(loc->tier, sim::TierKind::kPfs);
  EXPECT_EQ(loc->version, 7u);
  EXPECT_EQ(loc->crc, stamp->crc);

  // The corrupted page fails its check against the directory CRC: typed
  // data loss, nothing cached.
  const storage::BlobId bad{meta.vector_id, 1};
  auto lost = svc_->ReadPage(meta, 1, 0, done, &done);
  EXPECT_EQ(lost.status().code(), StatusCode::kDataLoss)
      << lost.status().ToString();
  EXPECT_TRUE(svc_->IsDataLost(bad));
  EXPECT_FALSE(svc_->runtime(0).buffer().FindBlob(bad).has_value());
}

TEST_F(RunStageInTest, FourRunsShareTheStripeServers) {
  // Four ranks (one per node) each prefetch their own 16-page block at t=0:
  // four 1 MiB requests on the PFS's eight stripe servers all start at
  // once, where 64 single-page requests would queue for eight rounds.
  VectorMeta& meta = Open(64, 4);
  std::vector<std::vector<PendingFetch>> fetches;
  for (std::size_t r = 0; r < 4; ++r) {
    fetches.push_back(svc_->ReadPagesAsync(meta, 16 * r, 16, r, 0.0));
  }
  const sim::Device& pfs = cluster_->pfs();
  const sim::DeviceSpec dram = sim::DeviceSpec::Dram(0);
  const double puts = 16 * (dram.write_latency_s +
                            static_cast<double>(kRunPage) / dram.write_bw_Bps);
  const double bound = pfs.ReadDuration(pfs.spec().stripe_bytes) + puts +
                       sim::CostModel::Default().task_dispatch_s;
  sim::SimTime last = 0.0;
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::uint64_t i = 0; i < 16; ++i) {
      const TaskOutcome& out = fetches[r][i].outcome;
      ASSERT_TRUE(out.status.ok()) << out.status.ToString();
      EXPECT_EQ(fetches[r][i].owner, r);
      last = std::max(last, svc_->DeliverPage(meta, 16 * r + i, r, r, out));
    }
  }
  EXPECT_LE(last, bound);
  EXPECT_EQ(Counter("mm.stager.read_count"), 4u);
}

TEST_F(RunStageInTest, CommitInsideAnInflightRunIsNeverLost) {
  // A commit to a page of a concurrent stage-in runs on the stage-in's
  // node, one task at a time, so it is ordered against the stage-in:
  // whichever runs first, the committed bytes and version survive. Each
  // iteration uses a fresh pair of unplaced 4 KiB pages of one stage-in
  // block and reads a run of one (the committed page alone) or of two
  // pages.
  constexpr int kIters = 1000;
  VectorMeta& meta = Open(4 * kIters, 1, 4 * kKiB);
  ASSERT_GE(svc_->RunPages(meta), 2u);
  for (const std::uint64_t run : {1u, 2u}) {
    for (int it = 0; it < kIters; ++it) {
      const std::uint64_t first =
          2 * ((run - 1) * kIters + static_cast<std::uint64_t>(it));
      const std::uint64_t value = 0xA000 + static_cast<std::uint64_t>(it);
      std::vector<std::uint8_t> bytes(sizeof(value));
      std::memcpy(bytes.data(), &value, sizeof(value));
      TaskOutcome commit;
      std::thread writer([&] {
        commit = svc_->WriteRegion(meta, first + 1, 8, bytes, 0, 0.0);
      });
      std::vector<PendingFetch> fetches =
          svc_->ReadPagesAsync(meta, first + 2 - run, run, 0, 0.0);
      writer.join();
      const TaskOutcome& committed = commit;
      ASSERT_TRUE(committed.status.ok()) << committed.status.ToString();
      for (auto& f : fetches) ASSERT_TRUE(f.outcome.status.ok());
      sim::SimTime done = 0.0;
      auto page = svc_->ReadPage(meta, first + 1, 0, 0.0, &done);
      ASSERT_TRUE(page.ok()) << page.status().ToString();
      std::uint64_t got = 0;
      std::memcpy(&got, page->data() + 8, sizeof(got));
      ASSERT_EQ(got, value) << "run of " << run << ", iteration " << it;
      auto loc = svc_->metadata().Lookup({meta.vector_id, first + 1}, 0, 0.0,
                                         nullptr);
      ASSERT_TRUE(loc.ok());
      ASSERT_EQ(loc->version, 1u) << "run of " << run << ", iteration " << it;
      ASSERT_TRUE(loc->dirty);
    }
  }
}

TEST_F(RunStageInTest, StageAheadPlacesUnplacedPagesWithoutTheirBytes) {
  // Pages 5 and 7 of the 16-page file are placed, and pages 16-19 lie past
  // its end: stage-ahead of pages [0, 20) places [0, 5), 6 and [8, 16) —
  // one backend read each — and hands none of their bytes back. Each
  // staged page takes one pooled buffer, which moves into the scache.
  VectorMeta& meta = Open(16, 1);
  sim::SimTime done = 0.0;
  ASSERT_TRUE(svc_->ReadPage(meta, 5, 0, 0.0, &done).ok());
  ASSERT_TRUE(svc_->ReadPage(meta, 7, 0, 0.0, &done).ok());
  const std::uint64_t reads = Counter("mm.stager.read_count");
  const std::uint64_t bytes = Counter("mm.stager.read_bytes");
  PagePool& pool = svc_->runtime(0).pool();
  const std::uint64_t buffers = pool.allocations() + pool.reuses();
  auto staged = svc_->StageAhead(meta, 0, 20, 0.5f, 0, done);
  std::vector<std::uint64_t> pages;
  for (auto& [page, out] : staged) {
    pages.push_back(page);
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_TRUE(out.data.empty()) << "page " << page;
    EXPECT_GE(out.done, done);
  }
  EXPECT_EQ(pages, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 6, 8, 9, 10,
                                               11, 12, 13, 14, 15}));
  EXPECT_EQ(Counter("mm.stager.read_count") - reads, 3u);
  EXPECT_EQ(Counter("mm.stager.read_bytes") - bytes, 14 * kRunPage);
  EXPECT_EQ(pool.allocations() + pool.reuses() - buffers, 14u);
  // Every staged page now reads from its scache copy, not the backend.
  for (std::uint64_t page : pages) {
    auto loc = svc_->metadata().Lookup({meta.vector_id, page}, 0, 0.0, nullptr);
    ASSERT_TRUE(loc.ok()) << "page " << page;
    EXPECT_FALSE(loc->dirty);
    auto read = svc_->ReadPage(meta, page, 0, done, &done);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(*read, FilePage(meta, page)) << "page " << page;
  }
  EXPECT_EQ(Counter("mm.stager.read_count") - reads, 3u);
  // Placed pages, and pages past the backend's end, are never staged.
  EXPECT_TRUE(svc_->StageAhead(meta, 0, 20, 0.5f, 0, done).empty());
}

TEST_F(RunStageInTest, TransientFaultRetriesTheWholeRunOnce) {
  // Pick a seed whose first backend op draws a transient fault and whose
  // second does not, so the run fails once and then succeeds.
  sim::FaultConfig faults;
  faults.backend.transient_error_rate = 0.5;
  for (faults.seed = 1;; ++faults.seed) {
    sim::FaultInjector probe(faults);
    if (probe.OnBackendOp().kind ==
            sim::FaultInjector::Decision::Kind::kTransient &&
        probe.OnBackendOp().kind == sim::FaultInjector::Decision::Kind::kOk) {
      break;
    }
  }
  VectorMeta& meta = Open(16, 1, kRunPage, faults);
  std::vector<PendingFetch> fetches = svc_->ReadPagesAsync(meta, 0, 16, 0, 0.0);
  for (std::uint64_t page = 0; page < 16; ++page) {
    const TaskOutcome& out = fetches[page].outcome;
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_EQ(out.data, FilePage(meta, page)) << "page " << page;
  }
  EXPECT_EQ(Counter("mm.stager.retries_count"), 1u);
  EXPECT_EQ(Counter("mm.stager.read_count"), 1u);
  EXPECT_EQ(Counter("mm.stager.read_bytes"), kMiB);
}

TEST_F(RunStageInTest, PermanentFaultFailsEveryPage) {
  VectorMeta& meta = Open(16, 1);
  svc_->fault_injector().FailBackend();
  std::vector<PendingFetch> fetches = svc_->ReadPagesAsync(meta, 0, 16, 0, 0.0);
  ASSERT_EQ(fetches.size(), 16u);
  for (auto& f : fetches) {
    EXPECT_EQ(f.outcome.status.code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(Counter("mm.stager.read_count"), 0u);
}

TEST_F(RunStageInTest, RunAfterShutdownFulfilsEveryPage) {
  VectorMeta& meta = Open(16, 1);
  svc_->Shutdown();
  std::vector<PendingFetch> fetches = svc_->ReadPagesAsync(meta, 0, 16, 0, 0.0);
  ASSERT_EQ(fetches.size(), 16u);
  for (auto& f : fetches) {
    EXPECT_EQ(f.outcome.status.code(), StatusCode::kFailedPrecondition);
  }
}

// ---- ServiceOptions::FromYaml ----

TEST(ServiceOptionsYaml, ParsesFullConfig) {
  auto root = yaml::Parse(
      "runtime:\n"
      "  organize_every: 16\n"
      "  enable_prefetch: false\n"
      "tiers:\n"
      "  - kind: dram\n"
      "    capacity: 1g\n"
      "  - kind: nvme\n"
      "    capacity: 4g\n"
      "  - kind: hdd\n"
      "    capacity: 1t\n");
  ASSERT_TRUE(root.ok());
  auto opts = ServiceOptions::FromYaml(*root);
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts->organize_every, 16);
  EXPECT_FALSE(opts->enable_prefetch);
  EXPECT_TRUE(opts->enable_organizer);
  ASSERT_EQ(opts->tier_grants.size(), 3u);
  EXPECT_EQ(opts->tier_grants[0].kind, sim::TierKind::kDram);
  EXPECT_EQ(opts->tier_grants[0].capacity, kGiB);
  EXPECT_EQ(opts->tier_grants[2].kind, sim::TierKind::kHdd);
  EXPECT_EQ(opts->tier_grants[2].capacity, kTiB);
}

TEST(ServiceOptionsYaml, DefaultsWhenSectionsMissing) {
  auto root = yaml::Parse("tiers:\n  - kind: dram\n    capacity: 64m\n");
  ASSERT_TRUE(root.ok());
  auto opts = ServiceOptions::FromYaml(*root);
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts->organize_every, ServiceOptions{}.organize_every);
}

// A typo or a key the runtime no longer has (`telemetry.enabled`,
// `flightrec_capacity`, `ckpt.journal_writeback`) under `runtime:`,
// `telemetry:` or `ckpt:` is an error that names the key, not a silently
// ignored setting.
TEST(ServiceOptionsYaml, RejectsUnknownKeys) {
  const std::pair<std::string, std::string> cases[] = {
      {"runtime", "workers_per_node"},
      {"runtime", "enable_prefech"},
      {"telemetry", "enabled"},
      {"telemetry", "flightrec_capacity"},
      {"telemetry", "trace_pth"},
      {"ckpt", "journal_writeback"},
      {"ckpt", "dri"},
  };
  for (const auto& [section, key] : cases) {
    auto root = yaml::Parse(section + ":\n  " + key + ": 2\n");
    ASSERT_TRUE(root.ok());
    auto opts = ServiceOptions::FromYaml(*root);
    ASSERT_FALSE(opts.ok()) << section << "." << key;
    EXPECT_EQ(opts.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(opts.status().message().find(key), std::string::npos)
        << opts.status().ToString();
  }
  auto root = yaml::Parse(
      "telemetry:\n  flightrec_dir: /tmp/fr\nckpt:\n  dir: /tmp/ck\n");
  ASSERT_TRUE(root.ok());
  auto opts = ServiceOptions::FromYaml(*root);
  ASSERT_TRUE(opts.ok()) << opts.status().ToString();
  EXPECT_EQ(opts->telemetry.flightrec_dir, "/tmp/fr");
  EXPECT_EQ(opts->ckpt.dir, "/tmp/ck");
}

// The shipped example config stays loadable.
TEST(ServiceOptionsYaml, ExampleConfigParses) {
  auto root = yaml::ParseFile(std::string(MM_SOURCE_DIR) +
                              "/examples/configs/megammap.yaml");
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  auto opts = ServiceOptions::FromYaml(*root);
  ASSERT_TRUE(opts.ok()) << opts.status().ToString();
  EXPECT_EQ(opts->organize_every, 64);
  ASSERT_EQ(opts->tier_grants.size(), 4u);
  EXPECT_EQ(opts->tier_grants[0].kind, sim::TierKind::kDram);
  EXPECT_EQ(opts->tier_grants[0].capacity, 48 * kGiB);
  EXPECT_EQ(opts->retry.max_attempts, 4);
}

TEST(ServiceOptionsYaml, RejectsBadTier) {
  auto root = yaml::Parse("tiers:\n  - kind: floppy\n    capacity: 1m\n");
  ASSERT_TRUE(root.ok());
  EXPECT_FALSE(ServiceOptions::FromYaml(*root).ok());
}

TEST(ServiceOptionsYaml, RejectsZeroCapacity) {
  auto root = yaml::Parse("tiers:\n  - kind: dram\n");
  ASSERT_TRUE(root.ok());
  EXPECT_FALSE(ServiceOptions::FromYaml(*root).ok());
}

TEST(ServiceOptionsYaml, ConfigFileEndToEnd) {
  auto dir = std::filesystem::temp_directory_path() /
             ("mm_yaml_cfg_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir / "mm.yaml");
    out << "runtime:\n  organize_every: 16\n"
        << "tiers:\n  - kind: dram\n    capacity: 8m\n";
  }
  auto root = yaml::ParseFile((dir / "mm.yaml").string());
  ASSERT_TRUE(root.ok());
  auto opts = ServiceOptions::FromYaml(*root);
  ASSERT_TRUE(opts.ok());
  // A service boots from the parsed config.
  auto cluster = sim::Cluster::PaperTestbed(1);
  Service svc(cluster.get(), *opts);
  EXPECT_EQ(svc.options().organize_every, 16);
  std::filesystem::remove_all(dir);
}

// Every pcache miss is a Service::ReadPage, so a read-only-global page read
// from another node replicates into the reader's scache (Fig. 3).
TEST(ReadpathServiceTest, ReadOnlyGlobalRemoteReadReplicates) {
  auto cluster = sim::Cluster::PaperTestbed(2);
  core::ServiceOptions so;
  so.tier_grants = {{sim::TierKind::kDram, MEGABYTES(8)}};
  core::Service svc(cluster.get(), so);
  constexpr std::uint64_t kElems = 1024, kEpp = 128;  // 8 pages
  auto run = comm::RunRanks(*cluster, 2, 1, [&](comm::RankContext& ctx) {
    core::VectorOptions vo;
    vo.nonvolatile = false;
    vo.page_size = kEpp * sizeof(double);
    vo.mode = CoherenceMode::kReadOnlyGlobal;
    Vector<double> vec(svc, ctx, "ro_replicate", kElems, vo);
    comm::Communicator comm(&ctx);
    vec.Pgas(ctx.rank(), 2);
    // The transaction handle only iterates; TxEnd below closes it.
    (void)vec.SeqTxBegin(vec.local_off(), vec.local_off() + vec.local_size(),
                         core::MM_WRITE_ONLY);
    for (std::uint64_t i = vec.local_off();
         i < vec.local_off() + vec.local_size(); ++i) {
      vec[i] = double(i);
    }
    vec.TxEnd();
    comm.Barrier();
    if (ctx.rank() == 0) {
      const std::uint64_t page = kElems / kEpp - 1;  // rank 1's half
      const storage::BlobId id{vec.meta().vector_id, page};
      auto home = svc.metadata().Lookup(id, 0, 0.0, nullptr);
      ASSERT_TRUE(home.ok());
      ASSERT_EQ(home->node, 1u);
      telemetry::Counter* replicated =
          svc.metrics(0).GetCounter("mm.coherence.replicate_count");
      const std::uint64_t before = replicated->value();
      EXPECT_EQ(vec.Read(page * kEpp), double(page * kEpp));
      const auto replicas = svc.metadata().Replicas(id, 0, 0.0, nullptr);
      EXPECT_NE(std::find(replicas.begin(), replicas.end(), 0u),
                replicas.end());
      EXPECT_GT(replicated->value(), before);
      // The replica carries the stamp the primary was copied under, and
      // both match the directory entry.
      std::vector<std::uint8_t> bytes;
      sim::SimTime t = 0.0;
      auto replica = svc.runtime(0).buffer().GetInto(id, &bytes, 0.0, &t);
      auto primary = svc.runtime(1).buffer().GetInto(id, &bytes, 0.0, &t);
      auto entry = svc.metadata().Lookup(id, 0, 0.0, nullptr);
      ASSERT_TRUE(replica.ok()) << replica.status().ToString();
      ASSERT_TRUE(primary.ok()) << primary.status().ToString();
      ASSERT_TRUE(entry.ok());
      EXPECT_EQ(*replica, *primary);
      EXPECT_EQ(replica->crc, entry->crc);
      EXPECT_EQ(replica->crc, Crc32(bytes));
    }
    comm.Barrier();
  });
  ASSERT_TRUE(run.ok()) << run.error;
}

}  // namespace
}  // namespace mm::core
