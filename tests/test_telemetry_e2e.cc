// End-to-end telemetry validation (ISSUE acceptance): a service-level run
// with telemetry.trace_path set must produce Chrome-trace JSON with valid
// traceEvents, virtual-clock timestamps, and at least 5 distinct span
// categories, plus an epoch report whose pcache hit/miss counts reconcile
// with the deterministic cache behavior test_pcache establishes.
#include <gtest/gtest.h>

#include <unistd.h>
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "mm/mega_mmap.h"
#include "mm/telemetry/report.h"

namespace mm {
namespace {

class TelemetryE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mm_tel_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  std::string Key(const std::string& name) {
    return "posix://" + (dir_ / name).string();
  }

  static std::string Slurp(const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  /// All distinct `"cat":"..."` values in a serialized trace.
  static std::set<std::string> Categories(const std::string& json) {
    std::set<std::string> cats;
    const std::string needle = "\"cat\":\"";
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1)) {
      std::size_t start = pos + needle.size();
      std::size_t end = json.find('"', start);
      if (end == std::string::npos) break;
      cats.insert(json.substr(start, end - start));
    }
    return cats;
  }

  std::filesystem::path dir_;
};

TEST_F(TelemetryE2eTest, TraceJsonSchemaAndCategories) {
  // Mixed read/write workload over a nonvolatile (backend-staged) vector
  // with a tight cache: exercises faults, evictions, writebacks, backend
  // staging, tasks, tier I/O and transactions in one run.
  const std::string trace_path = Path("trace.json");
  auto cluster = sim::Cluster::PaperTestbed(2);
  core::ServiceOptions so;
  so.tier_grants = {{sim::TierKind::kDram, MEGABYTES(4)},
                    {sim::TierKind::kNvme, MEGABYTES(32)}};
  so.telemetry.trace_path = trace_path;
  double max_time = 0;
  {
    core::Service svc(cluster.get(), so);
    const std::uint64_t n = 16384;
    auto result = comm::RunRanks(*cluster, 4, 2, [&](comm::RankContext& ctx) {
      core::VectorOptions vo;
      vo.page_size = 4096;
      vo.pcache_bytes = 16 * 1024;  // 4 frames: forces eviction traffic
      vo.nonvolatile = true;
      Vector<std::uint64_t> v(svc, ctx, Key("data.bin"), n, vo);
      std::uint64_t chunk = n / 4;
      std::uint64_t lo = ctx.rank() * chunk;
      {
        auto tx = v.SeqTxBegin(lo, chunk, core::MM_WRITE_ONLY);
        for (std::uint64_t i = lo; i < lo + chunk; ++i) v[i] = i;
        v.TxEnd();
      }
      {
        auto tx = v.SeqTxBegin(lo, chunk, core::MM_READ_ONLY);
        for (std::uint64_t i = lo; i < lo + chunk; ++i) {
          ASSERT_EQ(v.Read(i), i);
        }
        v.TxEnd();
      }
    });
    ASSERT_TRUE(result.ok()) << result.error;
    max_time = result.max_time;
    ASSERT_GT(svc.trace().size(), 0u);
  }  // Service shutdown writes the trace file.

  std::string json = Slurp(trace_path);
  ASSERT_FALSE(json.empty()) << "trace file not written: " << trace_path;

  // Chrome trace-event schema basics.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 80);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  // The instrumented subsystems must all show up.
  std::set<std::string> cats = Categories(json);
  EXPECT_GE(cats.size(), 5u) << ::testing::PrintToString(cats);

  // Every timestamp is virtual microseconds within the simulated runtime
  // (wall-clock stamps would be ~1e16 us since the epoch).
  const double limit_us = (max_time + 1.0) * 1e6;
  const std::string needle = "\"ts\":";
  std::size_t checked = 0;
  for (std::size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + 1)) {
    double ts = std::strtod(json.c_str() + pos + needle.size(), nullptr);
    ASSERT_GE(ts, 0.0);
    ASSERT_LE(ts, limit_us);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(TelemetryE2eTest, EpochReportReconcilesPcacheHitsAndMisses) {
  // Deterministic single-rank scan, prefetch off, cache big enough to hold
  // everything: the write pass must miss once per page (cold faults), the
  // read pass must hit once per page — the same cold/warm contract
  // test_pcache pins down at the PCache layer.
  auto cluster = sim::Cluster::PaperTestbed(1);
  core::ServiceOptions so;
  so.tier_grants = {{sim::TierKind::kDram, MEGABYTES(16)}};
  so.enable_prefetch = false;
  so.telemetry.report_path = Path("report.jsonl");
  core::Service svc(cluster.get(), so);

  constexpr std::uint64_t kPageBytes = 4096;
  constexpr std::uint64_t kPages = 8;
  constexpr std::uint64_t kN = kPages * kPageBytes / sizeof(std::uint64_t);
  auto result = comm::RunRanks(*cluster, 1, 1, [&](comm::RankContext& ctx) {
    core::VectorOptions vo;
    vo.page_size = kPageBytes;
    vo.pcache_bytes = MEGABYTES(1);  // no evictions
    vo.nonvolatile = false;
    Vector<std::uint64_t> v(svc, ctx, "tel_recon", kN, vo);
    {
      auto tx = v.SeqTxBegin(0, kN, core::MM_WRITE_ONLY);
      for (std::uint64_t i = 0; i < kN; ++i) v[i] = i ^ 0xabcd;
      v.TxEnd();
    }
    {
      auto tx = v.SeqTxBegin(0, kN, core::MM_READ_ONLY);
      for (std::uint64_t i = 0; i < kN; ++i) ASSERT_EQ(v.Read(i), i ^ 0xabcd);
      v.TxEnd();
    }
  });
  ASSERT_TRUE(result.ok()) << result.error;

  telemetry::ClusterSnapshot snap = svc.TelemetrySnapshot();
  EXPECT_EQ(snap.totals.counters.at("mm.pcache.miss_count"), kPages);
  EXPECT_EQ(snap.totals.counters.at("mm.pcache.hit_count"), kPages);
  EXPECT_EQ(snap.totals.counters.at("mm.pcache.eviction_count"), 0u);
  // With the prefetcher disabled every miss is a demand fault.
  EXPECT_EQ(snap.totals.counters.at("mm.service.fault_count"), kPages);

  // The epoch line reports the same counts (first epoch: delta == total).
  std::string line = svc.EpochReport(result.max_time);
  EXPECT_NE(line.find("\"mm.pcache.miss_count\":8"), std::string::npos)
      << line;
  EXPECT_NE(line.find("\"mm.pcache.hit_count\":8"), std::string::npos);

  // The paper-style table renders the aggregate without crashing and
  // mentions every subsystem family.
  std::string table = telemetry::FormatReportTable(snap);
  EXPECT_NE(table.find("mm.pcache.miss_count"), std::string::npos);
  EXPECT_NE(table.find("mm.task.executed_count"), std::string::npos);
}

}  // namespace
}  // namespace mm
