// Crash matrix (DESIGN.md §12): a simulated node crash is injected at every
// point of the journaled-writeback / checkpoint / restore pipeline, then a
// fresh Service is built over the same directories — exactly what a
// restarted process sees — recovery replays the journals, and Restore must
// bring every page back bit-identical to what crash consistency promises:
// the journaled flushed state when the redo record is durable, the last
// published epoch otherwise.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string_view>
#include <unistd.h>

#include "mm/ckpt/manifest.h"
#include "mm/core/service.h"
#include "mm/sim/fault.h"
#include "mm/util/byte_units.h"

namespace mm {
namespace {

using sim::CrashPoint;
using sim::TierKind;

class CkptCrashTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kPage = 4096;
  static constexpr std::uint64_t kPages = 6;

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mm_crash_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    key_ = "posix://" + (dir_ / "v.bin").string();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// A fresh Service over the same backend + checkpoint directories: the
  /// "process restart" of the matrix. Its constructor runs startup recovery.
  std::unique_ptr<core::Service> MakeService() {
    clusters_.push_back(sim::Cluster::PaperTestbed(1));
    core::ServiceOptions so;
    so.tier_grants = {{TierKind::kDram, 128 * kKiB},
                      {TierKind::kNvme, MEGABYTES(4)}};
    so.ckpt.dir = (dir_ / "ckpt").string();
    // Every crash point must leave a postmortem artifact (DESIGN.md §11).
    so.telemetry.flightrec_dir = dir_.string();
    return std::make_unique<core::Service>(clusters_.back().get(), so);
  }

  /// The crash dumped `flightrec_0.json` and it is a parseable record:
  /// one JSON object carrying the crash reason and the span ring.
  void ExpectFlightRecord(std::string_view reason) {
    std::filesystem::path path = dir_ / "flightrec_0.json";
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
    return svc.RegisterVector(key_, 1, vo, kPages * kPage);
  }

  static std::vector<std::uint8_t> Pattern(std::uint64_t page,
                                           std::uint64_t salt) {
    std::vector<std::uint8_t> out(kPage);
    for (std::uint64_t i = 0; i < kPage; ++i) {
      out[i] = static_cast<std::uint8_t>((salt * 1000 + page * 131 + i) & 0xFF);
    }
    return out;
  }

  /// Writes every page with `salt` and publishes the "e" epoch.
  sim::SimTime SeedEpoch(core::Service& svc, core::VectorMeta& meta) {
    sim::SimTime t = 0.0;
    for (std::uint64_t p = 0; p < kPages; ++p) {
      auto out = svc.WriteRegion(meta, p, 0, Pattern(p, 1), 0, t);
      EXPECT_TRUE(out.status.ok()) << "page " << p;
      t = std::max(t, out.done);
    }
    auto stats = svc.Checkpoint("e", 0, t, &t);
    EXPECT_TRUE(stats.ok()) << stats.status().message();
    return t;
  }

  /// Dirties page `kVictim` with salt-2 bytes after the epoch.
  sim::SimTime DirtyVictim(core::Service& svc, core::VectorMeta& meta,
                           sim::SimTime t) {
    auto out = svc.WriteRegion(meta, kVictim, 0, Pattern(kVictim, 2), 0, t);
    EXPECT_TRUE(out.status.ok());
    return std::max(t, out.done);
  }

  /// Restores "e" on a reborn service and checks every page: the victims
  /// must read `victim_salt`, everything else the epoch's salt 1.
  void ExpectRestored(core::Service& svc, std::uint64_t victim_salt,
                      const std::vector<std::uint64_t>& victims = {kVictim}) {
    sim::SimTime t = 0.0;
    ASSERT_TRUE(svc.Restore("e", 0, 0.0, &t).ok());
    core::VectorMeta* meta = svc.FindVector(key_);
    ASSERT_NE(meta, nullptr);
    for (std::uint64_t p = 0; p < kPages; ++p) {
      sim::SimTime done = t;
      auto page = svc.ReadPage(*meta, p, 0, t, &done);
      ASSERT_TRUE(page.ok()) << "page " << p << ": "
                             << page.status().message();
      const bool victim =
          std::find(victims.begin(), victims.end(), p) != victims.end();
      EXPECT_EQ(*page, Pattern(p, victim ? victim_salt : 1)) << "page " << p;
      t = std::max(t, done);
    }
    EXPECT_EQ(svc.data_loss_count(), 0u);
  }

  static constexpr std::uint64_t kVictim = 2;

  /// The multi-page batch: four dirty pages on the one owner node, one
  /// contiguous run.
  const std::vector<std::uint64_t> kBatch = {1, 2, 3, 4};

  /// Seeds the epoch, dirties every kBatch page with salt-2 bytes, and
  /// flushes them as one stage-out batch with the crash armed at `point`.
  /// Returns the journal's record count as the crash left it.
  std::uint64_t CrashMidBatch(CrashPoint point) {
    auto svc = MakeService();
    auto meta = Register(*svc);
    EXPECT_TRUE(meta.ok());
    sim::SimTime t = SeedEpoch(*svc, **meta);
    for (std::uint64_t p : kBatch) {
      auto out = svc->WriteRegion(**meta, p, 0, Pattern(p, 2), 0, t);
      EXPECT_TRUE(out.status.ok()) << "page " << p;
      t = std::max(t, out.done);
    }
    svc->fault_injector().ArmCrash(point);
    sim::SimTime fd = t;
    EXPECT_EQ(svc->FlushVector(**meta, 0, t, &fd).code(),
              StatusCode::kUnavailable);
    EXPECT_TRUE(svc->fault_injector().crashed());
    return svc->journal(0)->record_count();
  }

  static std::uint64_t Replayed(core::Service& svc) {
    return svc.metrics(0).GetCounter("mm.ckpt.replayed_count")->value();
  }

  std::filesystem::path dir_;
  std::string key_;
  std::vector<std::unique_ptr<sim::Cluster>> clusters_;
};

TEST_F(CkptCrashTest, MidJournalAppendFallsBackToTheEpoch) {
  auto svc = MakeService();
  auto meta = Register(*svc);
  ASSERT_TRUE(meta.ok());
  sim::SimTime t = SeedEpoch(*svc, **meta);
  t = DirtyVictim(*svc, **meta, t);

  // The crash lands mid-append: a torn record, no in-place write.
  svc->fault_injector().ArmCrash(CrashPoint::kMidJournalAppend);
  sim::SimTime fd = t;
  Status flush = svc->FlushVector(**meta, 0, t, &fd);
  EXPECT_EQ(flush.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(svc->fault_injector().crashed());
  // Every later mutation is refused: the node is dead.
  EXPECT_EQ(svc->Checkpoint("late", 0, fd, &fd).status().code(),
            StatusCode::kUnavailable);
  ExpectFlightRecord("mid_journal_append");
  svc.reset();  // Shutdown skips the clean-exit flush after a crash

  auto reborn = MakeService();
  // Startup recovery discarded the torn tail; nothing was applied.
  EXPECT_EQ(reborn->journal(0)->record_count(), 0u);
  // The flushed salt-2 bytes never became durable: the victim reads the
  // last published epoch.
  ExpectRestored(*reborn, 1);
}

TEST_F(CkptCrashTest, AfterJournalAppendKeepsThePromise) {
  auto svc = MakeService();
  auto meta = Register(*svc);
  ASSERT_TRUE(meta.ok());
  sim::SimTime t = SeedEpoch(*svc, **meta);
  t = DirtyVictim(*svc, **meta, t);

  // The redo record is durable; the crash skips the in-place write.
  svc->fault_injector().ArmCrash(CrashPoint::kAfterJournalAppend);
  sim::SimTime fd = t;
  EXPECT_EQ(svc->FlushVector(**meta, 0, t, &fd).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(svc->journal(0)->record_count(), 1u);
  svc.reset();

  auto reborn = MakeService();
  // Recovery replayed the record into the backend: the journaled flush is a
  // promise kept, and Restore overlays the manifest with the newer durable
  // version.
  EXPECT_EQ(reborn->journal(0)->record_count(), 1u);
  ExpectRestored(*reborn, 2);
}

TEST_F(CkptCrashTest, MidInPlaceWriteHealsTheTornPage) {
  auto svc = MakeService();
  auto meta = Register(*svc);
  ASSERT_TRUE(meta.ok());
  sim::SimTime t = SeedEpoch(*svc, **meta);
  t = DirtyVictim(*svc, **meta, t);

  // The crash lands mid in-place write: the backend page is half salt-2,
  // half salt-1 — torn. The durable redo record heals it on restart.
  svc->fault_injector().ArmCrash(CrashPoint::kMidInPlaceWrite);
  sim::SimTime fd = t;
  EXPECT_EQ(svc->FlushVector(**meta, 0, t, &fd).code(),
            StatusCode::kUnavailable);
  svc.reset();

  auto reborn = MakeService();
  ExpectRestored(*reborn, 2);
}

TEST_F(CkptCrashTest, MidJournalAppendDropsTheWholeBatch) {
  // The torn group commit holds whole records of the batch's first pages
  // followed by a cut one; none of them was indexed.
  EXPECT_EQ(CrashMidBatch(CrashPoint::kMidJournalAppend), 0u);
  auto reborn = MakeService();
  // A batch is all-or-nothing: its intact prefix is discarded with the torn
  // tail, and every page reads the last published epoch.
  EXPECT_EQ(Replayed(*reborn), 0u);
  EXPECT_EQ(reborn->journal(0)->record_count(), 0u);
  ExpectRestored(*reborn, 1);
}

TEST_F(CkptCrashTest, AfterJournalAppendReplaysTheWholeBatch) {
  // One group commit made all four redo records durable; no in-place write.
  EXPECT_EQ(CrashMidBatch(CrashPoint::kAfterJournalAppend), kBatch.size());
  auto reborn = MakeService();
  EXPECT_EQ(Replayed(*reborn), kBatch.size());
  EXPECT_EQ(reborn->journal(0)->record_count(), kBatch.size());
  ExpectRestored(*reborn, 2, kBatch);
}

TEST_F(CkptCrashTest, MidInPlaceWriteHealsTheTornRun) {
  // The crash cut the run's in-place write halfway: the first pages carry
  // salt 2, the rest still salt 1. Replay rewrites the whole run.
  EXPECT_EQ(CrashMidBatch(CrashPoint::kMidInPlaceWrite), kBatch.size());
  auto reborn = MakeService();
  EXPECT_EQ(Replayed(*reborn), kBatch.size());
  ExpectRestored(*reborn, 2, kBatch);
}

TEST_F(CkptCrashTest, MidManifestRenameLeavesThePreviousManifest) {
  auto svc = MakeService();
  auto meta = Register(*svc);
  ASSERT_TRUE(meta.ok());
  sim::SimTime t = SeedEpoch(*svc, **meta);
  auto first = ckpt::ReadManifest(
      svc->checkpointer().ManifestPathFor("e"));
  ASSERT_TRUE(first.ok());
  t = DirtyVictim(*svc, **meta, t);

  // The second checkpoint flushes (journaled) and writes the temp manifest,
  // then crashes before the rename: readers still see epoch 1.
  svc->fault_injector().ArmCrash(CrashPoint::kMidManifestRename);
  sim::SimTime cd = t;
  EXPECT_EQ(svc->Checkpoint("e", 0, t, &cd).status().code(),
            StatusCode::kUnavailable);
  auto on_disk = ckpt::ReadManifest(svc->checkpointer().ManifestPathFor("e"));
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(on_disk->epoch, first->epoch);
  // The journals were NOT truncated: the flushed pages stay recoverable.
  EXPECT_EQ(svc->journal(0)->record_count(), 1u);
  ExpectFlightRecord("mid_manifest_rename");
  svc.reset();

  auto reborn = MakeService();
  // The old manifest plus the replayed journal overlay reconstruct the
  // flushed state: the victim reads its journaled salt-2 bytes.
  ExpectRestored(*reborn, 2);
}

TEST_F(CkptCrashTest, MidRestoreIsRerunnable) {
  {
    auto svc = MakeService();
    auto meta = Register(*svc);
    ASSERT_TRUE(meta.ok());
    SeedEpoch(*svc, **meta);
  }
  auto svc = MakeService();
  svc->fault_injector().ArmCrash(CrashPoint::kMidRestore);
  sim::SimTime t = 0.0;
  EXPECT_EQ(svc->Restore("e", 0, 0.0, &t).code(), StatusCode::kUnavailable);
  ExpectFlightRecord("mid_restore");
  svc.reset();

  // Restore mutates only the directory, never the backend: rerunning it on
  // the next incarnation starts over from the same manifest and succeeds.
  auto reborn = MakeService();
  ExpectRestored(*reborn, 1);
}

TEST_F(CkptCrashTest, ForcedCrashLosesOnlyUnjournaledWrites) {
  auto svc = MakeService();
  auto meta = Register(*svc);
  ASSERT_TRUE(meta.ok());
  sim::SimTime t = SeedEpoch(*svc, **meta);
  // Dirty the victim but never flush: no redo record exists.
  t = DirtyVictim(*svc, **meta, t);
  svc->fault_injector().ForceCrash();
  EXPECT_EQ(svc->Restore("e", 0, t, &t).code(), StatusCode::kUnavailable);
  svc.reset();  // the destructor must not flush the dirty page

  auto reborn = MakeService();
  EXPECT_EQ(reborn->journal(0)->record_count(), 0u);
  // The unjournaled write evaporated with the scache, exactly as crash
  // consistency promises: back to the published epoch.
  ExpectRestored(*reborn, 1);
}

}  // namespace
}  // namespace mm
