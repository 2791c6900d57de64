// mm::ckpt unit + service-level tests (DESIGN.md §12): redo journal append/
// replay/torn-tail handling, manifest serialization and atomic publication,
// coordinator startup recovery, service checkpoint/restore round trips,
// incremental second checkpoints, and journal-backed tier-death recovery.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unistd.h>

#include "mm/ckpt/collective.h"
#include "mm/ckpt/coordinator.h"
#include "mm/ckpt/journal.h"
#include "mm/ckpt/manifest.h"
#include "mm/comm/launch.h"
#include "mm/core/service.h"
#include "mm/sim/cost_model.h"
#include "mm/telemetry/critpath.h"
#include "mm/util/byte_units.h"
#include "mm/util/hash.h"

namespace mm {
namespace {

using sim::TierKind;

class CkptDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mm_ckpt_" + std::to_string(::getpid()) + "_" +
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

  ckpt::JournalRecord MakeRecord(std::uint64_t vector_id, std::uint64_t page,
                                 std::uint64_t version, std::uint64_t salt,
                                 const std::string& key,
                                 std::size_t bytes = 256) {
    ckpt::JournalRecord rec;
    rec.id = {vector_id, page};
    rec.version = version;
    rec.offset = page * bytes;
    rec.payload = Pattern(bytes, salt);
    rec.page_crc = Crc32(rec.payload);
    rec.key = key;
    return rec;
  }

  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

using JournalTest = CkptDirTest;

TEST_F(JournalTest, AppendLatestRoundTrip) {
  ckpt::Journal journal((dir_ / "j.mmj").string());
  ASSERT_TRUE(journal.Append(MakeRecord(1, 0, 1, 10, "posix:///a")).ok());
  ASSERT_TRUE(journal.Append(MakeRecord(1, 1, 1, 11, "posix:///a")).ok());
  // A later record for the same page supersedes the earlier one.
  ASSERT_TRUE(journal.Append(MakeRecord(1, 0, 2, 12, "posix:///a")).ok());
  EXPECT_EQ(journal.record_count(), 3u);

  auto rec = journal.Latest({1, 0});
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->version, 2u);
  EXPECT_EQ(rec->payload, Pattern(256, 12));
  EXPECT_EQ(rec->page_crc, Crc32(rec->payload));
  EXPECT_EQ(rec->key, "posix:///a");
  EXPECT_FALSE(journal.Latest({9, 9}).ok());
}

TEST_F(JournalTest, ReplayVisitsIntactRecordsInAppendOrder) {
  ckpt::Journal journal((dir_ / "j.mmj").string());
  for (std::uint64_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(journal.Append(MakeRecord(7, p, 1, p, "posix:///b")).ok());
  }
  std::vector<std::uint64_t> order;
  std::uint64_t applied = 0, torn = 0;
  ASSERT_TRUE(journal
                  .Replay(
                      [&](const ckpt::JournalRecord& rec) {
                        order.push_back(rec.id.page_idx);
                        EXPECT_EQ(rec.payload,
                                  Pattern(256, rec.id.page_idx));
                        return Status::Ok();
                      },
                      &applied, &torn)
                  .ok());
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(applied, 4u);
  EXPECT_EQ(torn, 0u);
}

TEST_F(JournalTest, TornTailIsDiscardedAndTrimmed) {
  std::string path = (dir_ / "j.mmj").string();
  {
    ckpt::Journal journal(path);
    ASSERT_TRUE(journal.Append(MakeRecord(1, 0, 1, 1, "posix:///c")).ok());
    // Exactly what a crash mid-append leaves: header + half the payload.
    ASSERT_TRUE(journal.AppendTorn(MakeRecord(1, 1, 1, 2, "posix:///c")).ok());
  }
  // A fresh instance (restart) indexes only the intact prefix.
  ckpt::Journal reopened(path);
  EXPECT_EQ(reopened.record_count(), 1u);
  EXPECT_FALSE(reopened.Latest({1, 1}).ok());
  std::uint64_t applied = 0, torn = 0;
  ASSERT_TRUE(reopened
                  .Replay([](const ckpt::JournalRecord&) {
                    return Status::Ok();
                  },
                          &applied, &torn)
                  .ok());
  EXPECT_EQ(applied, 1u);
  EXPECT_EQ(torn, 1u);
  // The torn tail is trimmed before the next append lands.
  ASSERT_TRUE(reopened.Append(MakeRecord(1, 2, 1, 3, "posix:///c")).ok());
  EXPECT_EQ(reopened.record_count(), 2u);
  auto rec = reopened.Latest({1, 2});
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->payload, Pattern(256, 3));
}

TEST_F(JournalTest, TruncateDropsEverything) {
  ckpt::Journal journal((dir_ / "j.mmj").string());
  ASSERT_TRUE(journal.Append(MakeRecord(1, 0, 1, 1, "posix:///d")).ok());
  EXPECT_GT(journal.size_bytes(), 0u);
  ASSERT_TRUE(journal.Truncate().ok());
  EXPECT_EQ(journal.record_count(), 0u);
  EXPECT_EQ(journal.size_bytes(), 0u);
  EXPECT_FALSE(journal.Latest({1, 0}).ok());
  // The journal stays usable after a truncate.
  ASSERT_TRUE(journal.Append(MakeRecord(1, 0, 2, 2, "posix:///d")).ok());
  EXPECT_EQ(journal.record_count(), 1u);
}

TEST_F(JournalTest, ReopenIndexesExistingRecords) {
  std::string path = (dir_ / "j.mmj").string();
  {
    ckpt::Journal journal(path);
    ASSERT_TRUE(journal.Append(MakeRecord(3, 5, 7, 9, "shdf:///x:frag")).ok());
  }
  ckpt::Journal reopened(path);
  EXPECT_EQ(reopened.record_count(), 1u);
  auto rec = reopened.Latest({3, 5});
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->version, 7u);
  EXPECT_EQ(rec->offset, 5u * 256u);
  EXPECT_EQ(rec->key, "shdf:///x:frag");
  EXPECT_EQ(rec->payload, Pattern(256, 9));
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

using ManifestTest = CkptDirTest;

ckpt::Manifest SampleManifest() {
  ckpt::Manifest m;
  m.epoch = 3;
  m.tag = "iter-12";
  ckpt::ManifestVector mv;
  mv.key = "posix:///data/points.bin";
  mv.elem_size = 4;
  mv.size_bytes = 12000;
  mv.page_bytes = 4096;
  for (std::uint64_t p = 0; p < 3; ++p) {
    ckpt::ManifestPage mp;
    mp.page_idx = p;
    mp.version = p + 1;
    mp.crc = static_cast<std::uint32_t>(0xAB00 + p);
    mp.tier = 4;
    mp.node = p % 2;
    mv.pages.push_back(mp);
  }
  m.vectors.push_back(mv);
  return m;
}

TEST_F(ManifestTest, SerializeParseRoundTrip) {
  ckpt::Manifest m = SampleManifest();
  auto parsed = ckpt::ParseManifest(ckpt::SerializeManifest(m));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->epoch, 3u);
  EXPECT_EQ(parsed->tag, "iter-12");
  ASSERT_EQ(parsed->vectors.size(), 1u);
  const auto& mv = parsed->vectors[0];
  EXPECT_EQ(mv.key, "posix:///data/points.bin");
  EXPECT_EQ(mv.elem_size, 4u);
  EXPECT_EQ(mv.size_bytes, 12000u);
  EXPECT_EQ(mv.page_bytes, 4096u);
  ASSERT_EQ(mv.pages.size(), 3u);
  EXPECT_EQ(mv.pages[2].page_idx, 2u);
  EXPECT_EQ(mv.pages[2].version, 3u);
  EXPECT_EQ(mv.pages[2].crc, 0xAB02u);
  EXPECT_EQ(mv.pages[2].node, 0u);
}

TEST_F(ManifestTest, TamperedContentIsRejected) {
  std::string path = ckpt::ManifestPath(dir_.string(), "t");
  ASSERT_TRUE(ckpt::WriteManifest(SampleManifest(), path).ok());
  ASSERT_TRUE(ckpt::ReadManifest(path).ok());
  {
    // Flip one content byte; the trailing CRC must catch it.
    std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(40);
    io.put('~');
  }
  EXPECT_FALSE(ckpt::ReadManifest(path).ok());
}

TEST_F(ManifestTest, TempWriteThenPublishIsAtomic) {
  std::string path = ckpt::ManifestPath(dir_.string(), "epoch");
  EXPECT_EQ(path, (dir_ / "epoch.mmck").string());
  ASSERT_TRUE(ckpt::WriteManifestTemp(SampleManifest(), path).ok());
  // Not yet published: only the temp file exists, readers see nothing.
  EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(ckpt::ReadManifest(path).ok());
  ASSERT_TRUE(ckpt::PublishManifest(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto m = ckpt::ReadManifest(path);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->epoch, 3u);
}

TEST_F(ManifestTest, MissingManifestIsNotFoundLike) {
  EXPECT_FALSE(ckpt::ReadManifest((dir_ / "absent.mmck").string()).ok());
  // Publishing without a temp file fails instead of renaming garbage.
  EXPECT_FALSE(ckpt::PublishManifest((dir_ / "none.mmck").string()).ok());
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

using CoordinatorTest = CkptDirTest;

TEST_F(CoordinatorTest, DisabledWithoutDir) {
  ckpt::Coordinator coord(ckpt::CkptOptions{}, 2);
  EXPECT_FALSE(coord.enabled());
  EXPECT_EQ(coord.journal(0), nullptr);
  EXPECT_TRUE(coord.RecoverOnStartup().ok());
}

TEST_F(CoordinatorTest, RecoverAppliesJournalAndKeepsOverlay) {
  std::string key = "posix://" + (dir_ / "v.bin").string();
  auto stager = storage::MakePosixStager();
  auto resolved = storage::StagerRegistry::Default().Resolve(key);
  ASSERT_TRUE(resolved.ok());
  ASSERT_TRUE(resolved->first->Create(resolved->second, 1024).ok());

  ckpt::CkptOptions opts;
  opts.dir = (dir_ / "ckpt").string();
  {
    ckpt::Coordinator coord(opts, 1);
    ASSERT_TRUE(coord.enabled());
    ASSERT_TRUE(coord.journal(0)->Append(MakeRecord(1, 2, 5, 42, key)).ok());
  }
  // Restart: a fresh coordinator over the same directory replays the record
  // into the backing object and remembers the durable (version, CRC).
  ckpt::Coordinator coord(opts, 1);
  std::uint64_t applied = 0, torn = 0;
  ASSERT_TRUE(coord.RecoverOnStartup(&applied, &torn).ok());
  EXPECT_EQ(applied, 1u);
  EXPECT_EQ(torn, 0u);
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(resolved->first->Read(resolved->second, 2 * 256, 256, &back).ok());
  EXPECT_EQ(back, Pattern(256, 42));
  auto durable = coord.LatestDurable({1, 2});
  ASSERT_TRUE(durable.ok());
  EXPECT_EQ(durable->version, 5u);
  EXPECT_EQ(durable->page_crc, Crc32(Pattern(256, 42)));
  // A checkpoint (or completed restore) spends the journals and the overlay.
  ASSERT_TRUE(coord.TruncateJournals().ok());
  EXPECT_FALSE(coord.LatestDurable({1, 2}).ok());
  EXPECT_EQ(coord.journal(0)->record_count(), 0u);
}

TEST_F(CoordinatorTest, EpochSeedsPastExistingManifests) {
  ckpt::CkptOptions opts;
  opts.dir = dir_.string();
  ckpt::Manifest m = SampleManifest();
  m.epoch = 17;
  ASSERT_TRUE(ckpt::WriteManifest(m, ckpt::ManifestPath(opts.dir, "a")).ok());
  ckpt::Coordinator coord(opts, 1);
  // A restarted service keeps epochs monotonic across the crash.
  EXPECT_EQ(coord.NextEpoch(), 18u);
  EXPECT_EQ(coord.NextEpoch(), 19u);
}

TEST_F(CoordinatorTest, ResultChannelRoundTrips) {
  ckpt::Coordinator coord(ckpt::CkptOptions{}, 1);
  ckpt::CheckpointStats stats;
  stats.epoch = 4;
  stats.pages_written = 9;
  coord.PublishResult(Status::Ok(), stats);
  EXPECT_TRUE(coord.last_status().ok());
  EXPECT_EQ(coord.last_stats().epoch, 4u);
  EXPECT_EQ(coord.last_stats().pages_written, 9u);
  coord.PublishResult(Unavailable("leader crashed"), {});
  EXPECT_EQ(coord.last_status().code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// Service checkpoint / restore
// ---------------------------------------------------------------------------

class ServiceCkptTest : public CkptDirTest {
 protected:
  static constexpr std::uint64_t kPage = 4096;
  static constexpr std::uint64_t kPages = 8;

  std::unique_ptr<core::Service> MakeService(bool with_ckpt = true) {
    clusters_.push_back(sim::Cluster::PaperTestbed(1));
    core::ServiceOptions so;
    so.tier_grants = {{TierKind::kDram, 128 * kKiB},
                      {TierKind::kNvme, MEGABYTES(4)}};
    if (with_ckpt) so.ckpt.dir = (dir_ / "ckpt").string();
    return std::make_unique<core::Service>(clusters_.back().get(), so);
  }

  StatusOr<core::VectorMeta*> Register(core::Service& svc,
                                       const std::string& file = "v.bin") {
    core::VectorOptions vo;
    vo.page_size = kPage;
    return svc.RegisterVector("posix://" + (dir_ / file).string(), 1, vo,
                              kPages * kPage);
  }

  sim::SimTime WriteAll(core::Service& svc, core::VectorMeta& meta,
                        std::uint64_t salt, sim::SimTime t) {
    for (std::uint64_t p = 0; p < kPages; ++p) {
      auto out = svc.WriteRegion(meta, p, 0, Pattern(kPage, salt * 100 + p),
                                 0, t);
      EXPECT_TRUE(out.status.ok()) << "page " << p;
      t = std::max(t, out.done);
    }
    return t;
  }

  void ExpectContents(core::Service& svc, core::VectorMeta& meta,
                      std::uint64_t salt, sim::SimTime t) {
    for (std::uint64_t p = 0; p < kPages; ++p) {
      sim::SimTime done = t;
      auto page = svc.ReadPage(meta, p, 0, t, &done);
      ASSERT_TRUE(page.ok()) << "page " << p << ": "
                             << page.status().message();
      EXPECT_EQ(*page, Pattern(kPage, salt * 100 + p)) << "page " << p;
      t = std::max(t, done);
    }
  }

  std::vector<std::unique_ptr<sim::Cluster>> clusters_;
};

TEST_F(ServiceCkptTest, DisabledWithoutDirIsTyped) {
  auto svc = MakeService(/*with_ckpt=*/false);
  EXPECT_EQ(svc->journal(0), nullptr);
  sim::SimTime t = 0;
  EXPECT_EQ(svc->Checkpoint("e", 0, 0.0, &t).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(svc->Restore("e", 0, 0.0, &t).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ServiceCkptTest, CheckpointRestoreRoundTripIsBitIdentical) {
  auto svc = MakeService();
  auto meta = Register(*svc);
  ASSERT_TRUE(meta.ok());
  sim::SimTime t = WriteAll(*svc, **meta, 1, 0.0);

  auto stats = svc->Checkpoint("e1", 0, t, &t);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats->pages_total, kPages);
  EXPECT_EQ(stats->pages_written, kPages);  // first epoch: everything dirty
  EXPECT_DOUBLE_EQ(stats->incremental_ratio, 1.0);
  EXPECT_GT(stats->bytes_written, 0u);
  EXPECT_GT(stats->duration_s, 0.0);
  EXPECT_TRUE(std::filesystem::exists(stats->manifest_path));
  // Publication spends the journals.
  EXPECT_EQ(svc->journal(0)->record_count(), 0u);

  // Diverge: overwrite everything after the epoch (left dirty on purpose).
  t = WriteAll(*svc, **meta, 2, t);
  ASSERT_TRUE(svc->Restore("e1", 0, t, &t).ok());
  // Every page reads back exactly the epoch-1 bytes, CRC-verified on the
  // lazy stage-in.
  ExpectContents(*svc, **meta, 1, t);
  EXPECT_EQ(svc->data_loss_count(), 0u);
}

TEST_F(ServiceCkptTest, SecondCheckpointIsIncremental) {
  auto svc = MakeService();
  auto meta = Register(*svc);
  ASSERT_TRUE(meta.ok());
  sim::SimTime t = WriteAll(*svc, **meta, 1, 0.0);
  auto first = svc->Checkpoint("e1", 0, t, &t);
  ASSERT_TRUE(first.ok());

  // Touch exactly one page; the next epoch flushes only that page.
  auto out = svc->WriteRegion(**meta, 3, 0, Pattern(kPage, 777), 0, t);
  ASSERT_TRUE(out.status.ok());
  t = std::max(t, out.done);
  auto second = svc->Checkpoint("e2", 0, t, &t);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->epoch, first->epoch + 1);
  EXPECT_EQ(second->pages_total, kPages);
  EXPECT_EQ(second->pages_written, 1u);
  EXPECT_DOUBLE_EQ(second->incremental_ratio, 1.0 / kPages);
  EXPECT_LT(second->bytes_written, first->bytes_written);

  // The latest epoch restores exactly: the touched page carries its new
  // bytes, the untouched pages their epoch-1 bytes. (Earlier epochs are not
  // restorable once a later one has flushed in place — see DESIGN.md §12.)
  ASSERT_TRUE(svc->Restore("e2", 0, t, &t).ok());
  for (std::uint64_t p = 0; p < kPages; ++p) {
    sim::SimTime done = t;
    auto page = svc->ReadPage(**meta, p, 0, t, &done);
    ASSERT_TRUE(page.ok()) << "page " << p << ": "
                           << page.status().message();
    EXPECT_EQ(*page, Pattern(kPage, p == 3 ? 777 : 100 + p)) << "page " << p;
    t = std::max(t, done);
  }
}

TEST_F(ServiceCkptTest, FlushAppendsJournalRecordsBeforeInPlaceWrites) {
  auto svc = MakeService();
  auto meta = Register(*svc);
  ASSERT_TRUE(meta.ok());
  sim::SimTime t = WriteAll(*svc, **meta, 1, 0.0);
  ASSERT_TRUE(svc->FlushVector(**meta, 0, t, &t).ok());
  // One redo record per flushed page, spent only by a checkpoint.
  EXPECT_EQ(svc->journal(0)->record_count(), kPages);
  auto rec = svc->journal(0)->Latest({(*meta)->vector_id, 0});
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->key, (*meta)->key);
  EXPECT_EQ(rec->payload, Pattern(kPage, 100));
}

// Page sizes at which each owner's run fits in one PFS stripe (16 KiB pages,
// 512 KiB runs) and spans two stripes (64 KiB pages, 2 MiB runs).
class FlushGroupCommitTest
    : public ServiceCkptTest,
      public ::testing::WithParamInterface<std::uint64_t> {
 protected:
  static constexpr std::uint64_t kN = 64;

  /// A Pgas-split vector of `pages` pages over two nodes, each node owning
  /// one contiguous half, every page committed and dirty by `t_`.
  /// Journaled unless `journaled` is false.
  void WriteSplitVector(bool journaled = true, std::uint64_t pages = kN) {
    big_ = GetParam();
    pages_ = pages;
    clusters_.push_back(sim::Cluster::PaperTestbed(2));
    cluster_ = clusters_.back().get();
    core::ServiceOptions so;
    so.tier_grants = {{TierKind::kDram, MEGABYTES(8)},
                      {TierKind::kNvme, MEGABYTES(16)}};
    if (journaled) so.ckpt.dir = (dir_ / "ckpt").string();
    so.faults = faults_;
    svc_ = std::make_unique<core::Service>(cluster_, so);
    core::VectorOptions vo;
    vo.page_size = big_;
    auto meta = svc_->RegisterVector(
        "posix://" + (dir_ / "pgas.bin").string(), 1, vo, pages_ * big_);
    ASSERT_TRUE(meta.ok());
    meta_ = *meta;
    svc_->SetPgasHint(*meta_,
                      {pages_ * big_, /*nprocs=*/2, /*ranks_per_node=*/1});
    t_ = 0.0;
    for (std::uint64_t p = 0; p < pages_; ++p) {
      auto out = svc_->WriteRegion(*meta_, p, 0, Pattern(big_, p), 0, t_);
      ASSERT_TRUE(out.status.ok()) << "page " << p;
      t_ = std::max(t_, out.done);
    }
  }

  /// One owner's payload bytes: its contiguous half of the pages.
  std::uint64_t RunBytes() const { return pages_ / 2 * big_; }

  /// What an owner pays before its PFS writes: the dispatch and its DRAM
  /// reads, one page after another.
  double DispatchAndTierReads() const {
    const sim::DeviceSpec dram = sim::DeviceSpec::Dram(0);
    return sim::CostModel::Default().task_dispatch_s +
           pages_ / 2 * (dram.read_latency_s + big_ / dram.read_bw_Bps);
  }

  sim::FaultConfig faults_;  // set before WriteSplitVector
  std::uint64_t big_ = 0;
  std::uint64_t pages_ = 0;
  sim::Cluster* cluster_ = nullptr;
  std::unique_ptr<core::Service> svc_;
  core::VectorMeta* meta_ = nullptr;
  sim::SimTime t_ = 0.0;
};

TEST_P(FlushGroupCommitTest, FlushGroupCommitsOneBatchPerOwner) {
  const std::uint64_t kBig = GetParam();
  WriteSplitVector();
  const sim::SimTime t = t_;
  sim::Cluster& cluster = *cluster_;
  core::Service& svc = *svc_;

  sim::SimTime done = t;
  ASSERT_TRUE(svc.FlushVector(*meta_, 0, t, &done).ok());

  std::uint64_t stage_outs = 0, records = 0, stager_bytes = 0,
                journal_bytes = 0;
  for (std::size_t n = 0; n < 2; ++n) {
    telemetry::MetricsRegistry& reg = svc.metrics(n);
    stage_outs +=
        reg.GetHistogram("mm.task.stage_out_ns", telemetry::LatencyBoundsNs())
            ->count();
    stager_bytes += reg.GetCounter("mm.stager.write_bytes")->value();
    journal_bytes += reg.GetCounter("mm.ckpt.journal_bytes")->value();
    records += svc.journal(n)->record_count();
  }
  // Exactly one stage-out task per owner node, one redo record per page.
  EXPECT_EQ(stage_outs, 2u);
  EXPECT_EQ(records, kN);
  // The byte counters are the per-page sums, exactly as before batching.
  EXPECT_EQ(stager_bytes, kN * kBig);
  EXPECT_EQ(journal_bytes,
            kN * (kBig + ckpt::Journal::kRecordOverheadBytes));

  // Each owner pays its DRAM reads, one journal write and one in-place
  // write of its run — not one PFS latency per page.
  const sim::Device& pfs = cluster.pfs();
  const sim::DeviceSpec dram = sim::DeviceSpec::Dram(0);
  const std::uint64_t run_bytes = kN / 2 * kBig;
  const double tier_reads =
      kN / 2 * (dram.read_latency_s + kBig / dram.read_bw_Bps);
  const double bound =
      sim::CostModel::Default().task_dispatch_s + tier_reads +
      pfs.WriteDuration(run_bytes +
                        kN / 2 * ckpt::Journal::kRecordOverheadBytes) +
      pfs.WriteDuration(run_bytes);
  EXPECT_LE(done - t, bound);
  EXPECT_LT(done - t, kN * pfs.WriteDuration(kBig) / pfs.spec().channels);
  if (run_bytes > pfs.spec().stripe_bytes) {
    // A multi-stripe run: the journal batch and the in-place write each
    // spread over the stripe servers, so the flush beats one unstriped
    // journal write plus one unstriped in-place write of the run.
    EXPECT_LT(done - t,
              2 * (pfs.spec().write_latency_s +
                   static_cast<double>(run_bytes) / pfs.spec().write_bw_Bps));
  }
}

TEST_P(FlushGroupCommitTest, JournaledFlushReturnsWhenItsJournalIsDurable) {
  // 3 MiB per owner: its journal takes 4 of the 8 stripe servers and its
  // run 3, so an append charged after the other owner's write-back would
  // queue behind it.
  WriteSplitVector(/*journaled=*/true, 6 * kMiB / GetParam());
  sim::SimTime done = t_;
  ASSERT_TRUE(svc_->FlushVector(*meta_, 0, t_, &done).ok());
  const sim::Device& pfs = cluster_->pfs();
  // One striped journal round on an idle PFS: both owners' appends run
  // side by side, with no in-place term and no append queued behind the
  // other owner's write-back.
  EXPECT_LE(done - t_,
            DispatchAndTierReads() +
                pfs.WriteDuration(RunBytes() + pages_ / 2 *
                                      ckpt::Journal::kRecordOverheadBytes));
  // The in-place writes start at their owner's durability and end at the
  // horizon, past the flush.
  const sim::SimTime horizon = meta_->writeback_horizon.load();
  EXPECT_GE(horizon, done + pfs.WriteDuration(RunBytes()));
  // Every byte still reaches the backend in place.
  std::uint64_t stager_bytes = 0;
  for (std::size_t n = 0; n < 2; ++n) {
    stager_bytes +=
        svc_->metrics(n).GetCounter("mm.stager.write_bytes")->value();
  }
  EXPECT_EQ(stager_bytes, pages_ * big_);
}

TEST_P(FlushGroupCommitTest, SpikedWriteBackStaysOffTheFlushsClock) {
  // Every backend op is 10x slow: the in-place runs pay it on the PFS, the
  // journal appends and so the flush do not.
  constexpr double kSpike = 10.0;
  faults_.backend.latency_spike_rate = 1.0;
  faults_.backend.latency_spike_factor = kSpike;
  WriteSplitVector();
  sim::SimTime done = t_;
  ASSERT_TRUE(svc_->FlushVector(*meta_, 0, t_, &done).ok());
  const sim::Device& pfs = cluster_->pfs();
  EXPECT_LE(done - t_,
            DispatchAndTierReads() +
                pfs.WriteDuration(RunBytes() + pages_ / 2 *
                                      ckpt::Journal::kRecordOverheadBytes));
  EXPECT_GE(meta_->writeback_horizon.load(),
            done + kSpike * pfs.WriteDuration(RunBytes()));
}

TEST_P(FlushGroupCommitTest, UnjournaledFlushWaitsForItsInPlaceWrite) {
  WriteSplitVector(/*journaled=*/false);
  sim::SimTime done = t_;
  ASSERT_TRUE(svc_->FlushVector(*meta_, 0, t_, &done).ok());
  // Without a journal the in-place write is the durability: the flush
  // waits for it, and leaves no write-back behind.
  EXPECT_GE(done - t_, cluster_->pfs().WriteDuration(RunBytes()));
  EXPECT_LE(done - t_,
            DispatchAndTierReads() + cluster_->pfs().WriteDuration(RunBytes()));
  EXPECT_EQ(meta_->writeback_horizon.load(), 0.0);
}

TEST_P(FlushGroupCommitTest, CheckpointAfterFlushPublishesPastTheHorizon) {
  WriteSplitVector();
  sim::SimTime done = t_;
  ASSERT_TRUE(svc_->FlushVector(*meta_, 0, t_, &done).ok());
  const sim::SimTime horizon = meta_->writeback_horizon.load();
  ASSERT_GT(horizon, done);
  // Nothing is dirty, yet the manifest waits for the in-place writes it
  // promises, and so does the truncation of the journals that heal them.
  sim::SimTime ckpt_done = done;
  auto stats = svc_->Checkpoint("e", 0, done, &ckpt_done);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->pages_written, 0u);
  EXPECT_GE(ckpt_done, horizon);
}

TEST_P(FlushGroupCommitTest, StageInWaitsForTheWriteBackOfItsVector) {
  // A vector that is never flushed, its backend file written beforehand.
  const std::uint64_t kOther = 4;
  WriteSplitVector();
  const std::filesystem::path other_file = dir_ / "other.bin";
  {
    std::ofstream out(other_file, std::ios::binary);
    for (std::uint64_t p = 0; p < kOther; ++p) {
      const auto bytes = Pattern(big_, 500 + p);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
  }
  core::VectorOptions vo;
  vo.page_size = big_;
  auto other = svc_->RegisterVector("posix://" + other_file.string(), 1, vo,
                                    kOther * big_);
  ASSERT_TRUE(other.ok());

  sim::SimTime done = t_;
  ASSERT_TRUE(svc_->FlushVector(*meta_, 0, t_, &done).ok());
  const sim::SimTime horizon = meta_->writeback_horizon.load();
  ASSERT_GT(horizon, done);

  // Drop a flushed (clean) page everywhere: the next read stages it in,
  // and that backend read starts no earlier than the vector's horizon.
  const storage::BlobId id{meta_->vector_id, 3};
  auto loc = svc_->metadata().Lookup(id, 0, done, nullptr);
  ASSERT_TRUE(loc.ok());
  ASSERT_FALSE(loc->dirty);
  ASSERT_TRUE(svc_->runtime(loc->node).buffer().Erase(id).ok());
  ASSERT_TRUE(svc_->metadata().Remove(id, 0, done, nullptr).ok());
  sim::SimTime read_done = done;
  auto page = svc_->ReadPage(*meta_, 3, 0, done, &read_done);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_EQ(*page, Pattern(big_, 3));
  EXPECT_GE(read_done, horizon + cluster_->pfs().ReadDuration(big_));

  // The never-flushed vector has no horizon: its stage-in starts at once.
  EXPECT_EQ((*other)->writeback_horizon.load(), 0.0);
  sim::SimTime other_done = done;
  auto other_page = svc_->ReadPage(**other, 1, 0, done, &other_done);
  ASSERT_TRUE(other_page.ok()) << other_page.status().ToString();
  EXPECT_EQ(*other_page, Pattern(big_, 501));
  EXPECT_LT(other_done, horizon);
}

TEST_P(FlushGroupCommitTest, FlushFlowEndsAtDurabilityAndWriteBackIsBare) {
  WriteSplitVector();
  svc_->trace().set_enabled(true);
  sim::SimTime done = t_;
  ASSERT_TRUE(svc_->FlushVector(*meta_, 0, t_, &done).ok());
  const sim::SimTime horizon = meta_->writeback_horizon.load();
  const std::vector<telemetry::TraceEvent> events = svc_->trace().Snapshot();

  // The sync flush origin ends where the caller's clock does, and every
  // span of its flow ends by then.
  const telemetry::TraceEvent* flush = nullptr;
  for (const auto& ev : events) {
    if (ev.name == "flush") flush = &ev;
  }
  ASSERT_NE(flush, nullptr);
  EXPECT_EQ(flush->flow_ph, 's');
  const double flush_end_us = flush->ts_us + flush->dur_us;
  EXPECT_NEAR(flush_end_us, done * 1e6, 1e-3);
  int stage_outs = 0, writebacks = 0;
  double writeback_end_us = 0;
  for (const auto& ev : events) {
    if (ev.flow_id == flush->flow_id) {
      EXPECT_LE(ev.ts_us + ev.dur_us, flush_end_us + 1e-3) << ev.name;
      stage_outs += ev.name == "stage_out";
    }
    if (ev.name == "writeback") {
      // One write-back per owner, in no flow: nobody waits for it.
      ++writebacks;
      EXPECT_EQ(ev.flow_id, 0u);
      writeback_end_us = std::max(writeback_end_us, ev.ts_us + ev.dur_us);
    }
  }
  EXPECT_EQ(stage_outs, 2);
  EXPECT_EQ(writebacks, 2);
  EXPECT_NEAR(writeback_end_us, horizon * 1e6, 1e-3);
  // The analyzer attributes the stall the caller paid, no more.
  const telemetry::CritpathBreakdown cp =
      telemetry::AnalyzeCritpath(events, 0.0, horizon * 1e6 + 1.0);
  EXPECT_LE(static_cast<double>(cp.attributed_ns()), (done - t_) * 1e9 + 1.0);
}

INSTANTIATE_TEST_SUITE_P(PageSizes, FlushGroupCommitTest,
                         ::testing::Values(16 * kKiB, 64 * kKiB),
                         [](const auto& info) {
                           return std::to_string(info.param / kKiB) + "KiB";
                         });

TEST_F(ServiceCkptTest, StageOutLeavesACommitLandingAfterItsSnapshotDirty) {
  auto svc = MakeService();
  auto meta = Register(*svc);
  ASSERT_TRUE(meta.ok());
  sim::SimTime t = WriteAll(*svc, **meta, 1, 0.0);
  const storage::BlobId id{(*meta)->vector_id, 3};
  auto before = svc->metadata().Lookup(id, 0, t, nullptr);
  ASSERT_TRUE(before.ok());
  // A commit whose directory mirror has not landed: the scache copy holds
  // the new bytes under the new stamp, the entry the old version.
  const auto fresh = Pattern(kPage, 999);
  auto stamp = svc->runtime(0).buffer().PutPartial(id, 0, fresh, t, nullptr);
  ASSERT_TRUE(stamp.ok());
  ASSERT_EQ(stamp->version, before->version + 1);

  // The stage-out journals the copy under its own stamp, a committed
  // state. The entry it clears still names the old version, so the commit
  // landing after the snapshot keeps the page dirty.
  sim::SimTime fd = t;
  ASSERT_TRUE(svc->FlushVector(**meta, 0, t, &fd).ok());
  EXPECT_EQ(svc->journal(0)->record_count(), kPages);
  auto rec = svc->journal(0)->Latest(id);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->version, stamp->version);
  EXPECT_EQ(rec->payload, fresh);
  EXPECT_EQ(rec->page_crc, Crc32(fresh));
  auto still = svc->metadata().Lookup(id, 0, t, nullptr);
  ASSERT_TRUE(still.ok());
  EXPECT_TRUE(still->dirty);

  // Once the mirror lands, the next flush journals the new bytes under the
  // new stamp's version and CRC, and the page is clean.
  storage::BlobLocation landed = *before;
  landed.version = stamp->version;
  landed.crc = stamp->crc;
  ASSERT_TRUE(svc->metadata().Update(id, landed, 0, t, nullptr).ok());
  ASSERT_TRUE(svc->FlushVector(**meta, 0, t, &fd).ok());
  EXPECT_EQ(svc->journal(0)->record_count(), kPages + 1);
  rec = svc->journal(0)->Latest(id);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->version, stamp->version);
  EXPECT_EQ(rec->payload, fresh);
  EXPECT_EQ(rec->page_crc, stamp->crc);
  auto after = svc->metadata().Lookup(id, 0, t, nullptr);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->dirty);
}

TEST_F(ServiceCkptTest, CorruptDirtyPageAtStageOutIsDataLoss) {
  auto svc = MakeService();
  auto meta = Register(*svc);
  ASSERT_TRUE(meta.ok());
  sim::SimTime t = WriteAll(*svc, **meta, 1, 0.0);
  const storage::BlobId id{(*meta)->vector_id, 3};
  storage::BufferManager& bm = svc->runtime(0).buffer();
  auto tier = bm.FindBlob(id);
  ASSERT_TRUE(tier.has_value());
  ASSERT_TRUE(bm.tier(*tier).CorruptBlob(id, 100).ok());

  // The corrupt copy fails its CRC check at once: a typed loss naming the
  // page, never journaled; the other pages persist.
  sim::SimTime fd = t;
  Status st = svc->FlushVector(**meta, 0, t, &fd);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_NE(st.message().find(id.ToString()), std::string::npos)
      << st.ToString();
  EXPECT_EQ(svc->journal(0)->record_count(), kPages - 1);
  EXPECT_FALSE(svc->journal(0)->Latest(id).ok());
  EXPECT_TRUE(svc->IsDataLost(id));
}

TEST_F(ServiceCkptTest, FlushUnderAWriteStormJournalsConsistentSnapshots) {
  // Large pages widen a commit's window between its bytes and its CRC.
  constexpr std::uint64_t kBig = 64 * kKiB;
  const std::string key = "posix://" + (dir_ / "storm.bin").string();
  core::VectorOptions vo;
  vo.page_size = kBig;
  std::vector<std::uint64_t> last_salt(kPages);
  {
    auto svc = MakeService();
    auto meta = svc->RegisterVector(key, 1, vo, kPages * kBig);
    ASSERT_TRUE(meta.ok());
    sim::SimTime t = 0.0;
    for (std::uint64_t p = 0; p < kPages; ++p) {
      last_salt[p] = 100 + p;
      auto out =
          svc->WriteRegion(**meta, p, 0, Pattern(kBig, last_salt[p]), 0, t);
      ASSERT_TRUE(out.status.ok()) << "page " << p;
    }
    ASSERT_TRUE(svc->Checkpoint("e", 0, t, &t).ok());

    // Commits keep landing on pages 1.. between the stage-out batches
    // (tasks of one node run one at a time). Bursts of back-to-back
    // commits per page keep a page dirty from one commit while the next is
    // mid-flight.
    std::atomic<bool> storming{true};
    std::thread storm([&] {
      std::uint64_t salt = 1000;
      for (int round = 0; round < 40 && storming; ++round) {
        std::vector<core::TaskOutcome> pending;
        for (std::uint64_t p = 1; p < kPages; ++p) {
          for (int burst = 0; burst < 4; ++burst, ++salt) {
            pending.push_back(
                svc->WriteRegion(**meta, p, 0, Pattern(kBig, salt), 0, t));
            last_salt[p] = salt;
          }
        }
        for (auto& out : pending) {
          Status st = out.status;
          if (!st.ok()) {
            ADD_FAILURE() << st.ToString();
            storming = false;
          }
        }
      }
      storming = false;
    });
    while (storming) {
      sim::SimTime fd = t;
      Status st = svc->FlushVector(**meta, 0, t, &fd);
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    storm.join();
    // Every record journaled during the storm promises bytes that match its
    // page CRC: a snapshot torn by a commit would fail its stage-in later.
    std::uint64_t torn_snapshots = 0;
    ASSERT_TRUE(svc->journal(0)
                    ->Replay([&](const ckpt::JournalRecord& rec) {
                      if (Crc32(rec.payload) != rec.page_crc) ++torn_snapshots;
                      return Status::Ok();
                    })
                    .ok());
    EXPECT_EQ(torn_snapshots, 0u);
    // The final flush journals every page's last commit; then the process
    // dies without its clean-exit flush.
    sim::SimTime fd = t;
    ASSERT_TRUE(svc->FlushVector(**meta, 0, t, &fd).ok());
    svc->fault_injector().ForceCrash();
  }

  // Reboot over the journal: replay plus the restore overlay must bring
  // back every page's last committed bytes under a matching CRC.
  auto reborn = MakeService();
  sim::SimTime t = 0.0;
  ASSERT_TRUE(reborn->Restore("e", 0, 0.0, &t).ok());
  core::VectorMeta* meta = reborn->FindVector(key);
  ASSERT_NE(meta, nullptr);
  for (std::uint64_t p = 0; p < kPages; ++p) {
    sim::SimTime done = t;
    auto page = reborn->ReadPage(*meta, p, 0, t, &done);
    ASSERT_TRUE(page.ok()) << "page " << p << ": " << page.status().message();
    EXPECT_EQ(*page, Pattern(kBig, last_salt[p])) << "page " << p;
    t = std::max(t, done);
  }
  EXPECT_EQ(reborn->data_loss_count(), 0u);
}

TEST_F(ServiceCkptTest, JournalRecoversDirtyPageLostToTierDeath) {
  auto svc = MakeService();
  auto meta = Register(*svc);
  ASSERT_TRUE(meta.ok());
  auto pattern = Pattern(kPage, 5);
  auto out = svc->WriteRegion(**meta, 0, 0, pattern, 0, 0.0);
  ASSERT_TRUE(out.status.ok());
  storage::BlobId id{(*meta)->vector_id, 0};

  // The half-state journaled writeback leaves when the in-place write never
  // lands: a durable redo record at the dirty page's version.
  ckpt::JournalRecord rec;
  rec.id = id;
  rec.version = 1;
  rec.offset = 0;
  rec.payload = pattern;
  rec.page_crc = Crc32(pattern);
  rec.key = (*meta)->key;
  ASSERT_TRUE(svc->journal(0)->Append(rec).ok());

  auto tier_idx = svc->runtime(0).buffer().FindBlob(id);
  ASSERT_TRUE(tier_idx.has_value());
  svc->fault_injector().FailTier(
      svc->runtime(0).buffer().tier(*tier_idx).kind());
  // Without the journal this is the DirtyPageLossSurfacesAsDataLoss path;
  // with it, the redo record re-applies to the backend and the page
  // re-stages cleanly.
  sim::SimTime done = out.done;
  auto page = svc->ReadPage(**meta, 0, 0, out.done, &done);
  ASSERT_TRUE(page.ok()) << page.status().message();
  EXPECT_EQ(*page, pattern);
  EXPECT_EQ(svc->data_loss_count(), 0u);
}

TEST_F(ServiceCkptTest, CollectiveCheckpointElectsOneLeader) {
  clusters_.push_back(sim::Cluster::PaperTestbed(2));
  sim::Cluster& cluster = *clusters_.back();
  core::ServiceOptions so;
  so.tier_grants = {{TierKind::kDram, 128 * kKiB},
                    {TierKind::kNvme, MEGABYTES(4)}};
  so.ckpt.dir = (dir_ / "ckpt").string();
  auto svc = std::make_unique<core::Service>(&cluster, so);
  std::string key = "posix://" + (dir_ / "shared.bin").string();

  std::vector<ckpt::CheckpointStats> stats(2);
  auto run = comm::RunRanks(cluster, 2, 1, [&](comm::RankContext& ctx) {
    comm::Communicator comm(&ctx);
    core::VectorOptions vo;
    vo.page_size = kPage;
    auto meta = svc->RegisterVector(key, 1, vo, kPages * kPage);
    ASSERT_TRUE(meta.ok());
    // Each rank dirties its half of the pages.
    std::uint64_t begin = ctx.rank() == 0 ? 0 : kPages / 2;
    std::uint64_t end = ctx.rank() == 0 ? kPages / 2 : kPages;
    sim::SimTime t = ctx.clock().now();
    for (std::uint64_t p = begin; p < end; ++p) {
      auto out =
          svc->WriteRegion(**meta, p, 0, Pattern(kPage, 100 + p),
                           ctx.node(), t);
      ASSERT_TRUE(out.status.ok());
      t = std::max(t, out.done);
    }
    ctx.clock().AdvanceTo(t);
    auto s = ckpt::CollectiveCheckpoint(comm, *svc, "col");
    ASSERT_TRUE(s.ok()) << s.status().message();
    stats[ctx.rank()] = *s;
  });
  ASSERT_TRUE(run.ok()) << run.error;
  // Every rank observed the one leader's outcome: all pages of the shared
  // vector in a single epoch.
  EXPECT_EQ(stats[0].epoch, stats[1].epoch);
  EXPECT_EQ(stats[0].pages_total, kPages);
  EXPECT_EQ(stats[1].pages_written, kPages);
  EXPECT_TRUE(std::filesystem::exists(stats[0].manifest_path));

  // The published epoch restores to the exact bytes each rank wrote.
  sim::SimTime t = 0;
  ASSERT_TRUE(svc->Restore("col", 0, 0.0, &t).ok());
  auto meta = svc->FindVector(key);
  ASSERT_NE(meta, nullptr);
  for (std::uint64_t p = 0; p < kPages; ++p) {
    sim::SimTime done = t;
    auto page = svc->ReadPage(*meta, p, 0, t, &done);
    ASSERT_TRUE(page.ok()) << "page " << p;
    EXPECT_EQ(*page, Pattern(kPage, 100 + p));
    t = std::max(t, done);
  }
}

}  // namespace
}  // namespace mm
