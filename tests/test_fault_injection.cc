// Fault injection, retry/backoff, and degraded-tier recovery (robustness
// tentpole): deterministic injector draws, retry accounting on the virtual
// clock, tier death -> drain -> re-route -> backend restore, CRC-32
// detection of silent corruption, and end-to-end KMeans under faults.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <unistd.h>

#include "mm/apps/datagen.h"
#include "mm/apps/kmeans.h"
#include "mm/apps/reference.h"
#include "mm/mega_mmap.h"
#include "mm/sim/fault.h"
#include "mm/util/hash.h"
#include "mm/util/retry.h"

namespace mm {
namespace {

using sim::FaultConfig;
using sim::FaultInjector;
using sim::TierKind;

using Kind = FaultInjector::Decision::Kind;

// ---------------------------------------------------------------------------
// FaultInjector unit tests
// ---------------------------------------------------------------------------

FaultConfig NoisyConfig(std::uint64_t seed) {
  FaultConfig cfg;
  cfg.seed = seed;
  cfg.tier(TierKind::kNvme).transient_error_rate = 0.5;
  cfg.tier(TierKind::kNvme).latency_spike_rate = 0.2;
  cfg.tier(TierKind::kNvme).latency_spike_factor = 8.0;
  return cfg;
}

TEST(FaultInjector, SameSeedSameSequence) {
  FaultInjector a(NoisyConfig(42)), b(NoisyConfig(42));
  for (int i = 0; i < 300; ++i) {
    auto da = a.OnDeviceOp(TierKind::kNvme);
    auto db = b.OnDeviceOp(TierKind::kNvme);
    ASSERT_EQ(da.kind, db.kind) << "op " << i;
    ASSERT_EQ(da.spike_factor, db.spike_factor) << "op " << i;
  }
}

TEST(FaultInjector, DifferentSeedDifferentSequence) {
  FaultInjector a(NoisyConfig(42)), b(NoisyConfig(43));
  int diffs = 0;
  for (int i = 0; i < 300; ++i) {
    if (a.OnDeviceOp(TierKind::kNvme).kind !=
        b.OnDeviceOp(TierKind::kNvme).kind) {
      ++diffs;
    }
  }
  EXPECT_GT(diffs, 0);
}

TEST(FaultInjector, StreamsAreIndependent) {
  // A fault plan on NVMe must not leak into the other streams.
  FaultInjector inj(NoisyConfig(7));
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(inj.OnDeviceOp(TierKind::kDram).ok());
    EXPECT_TRUE(inj.OnBackendOp().ok());
  }
  EXPECT_EQ(inj.ops_observed(TierKind::kDram), 200u);
  EXPECT_EQ(inj.backend_ops_observed(), 200u);
}

TEST(FaultInjector, TransientRateApproximatelyHonored) {
  FaultConfig cfg;
  cfg.seed = 1234;
  cfg.tier(TierKind::kSsd).transient_error_rate = 0.1;
  FaultInjector inj(cfg);
  const int kDraws = 20000;
  // Only the aggregate fault-rate counter matters, not each draw's status.
  for (int i = 0; i < kDraws; ++i) (void)inj.OnDeviceOp(TierKind::kSsd);
  double rate = static_cast<double>(inj.transient_faults()) / kDraws;
  EXPECT_NEAR(rate, 0.1, 0.02);
  EXPECT_EQ(inj.ops_observed(TierKind::kSsd), static_cast<unsigned>(kDraws));
}

TEST(FaultInjector, ThreadInterleavingDoesNotChangeFaultCount) {
  // Decisions are keyed on the per-stream op index, so the multiset of
  // outcomes is a function of the seed alone, not of which thread drew.
  auto count_transients = [](int threads) {
    FaultConfig cfg;
    cfg.seed = 99;
    cfg.tier(TierKind::kHdd).transient_error_rate = 0.3;
    FaultInjector inj(cfg);
    std::vector<std::thread> pool;
    std::atomic<int> remaining{400};
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        // Concurrency smoke: draw outcomes are irrelevant.
        while (remaining.fetch_sub(1) > 0) (void)inj.OnDeviceOp(TierKind::kHdd);
      });
    }
    for (auto& t : pool) t.join();
    return inj.transient_faults();
  };
  EXPECT_EQ(count_transients(1), count_transients(4));
}

TEST(FaultInjector, FailAfterOpsKillsTheStream) {
  FaultConfig cfg;
  cfg.tier(TierKind::kNvme).fail_after_ops = 3;
  FaultInjector inj(cfg);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(inj.OnDeviceOp(TierKind::kNvme).ok()) << "op " << i;
  }
  EXPECT_EQ(inj.OnDeviceOp(TierKind::kNvme).kind, Kind::kPermanent);
  EXPECT_TRUE(inj.TierFailed(TierKind::kNvme));
  EXPECT_EQ(inj.OnDeviceOp(TierKind::kNvme).kind, Kind::kPermanent);
  EXPECT_EQ(inj.permanent_failures(), 1u);  // counted once
}

TEST(FaultInjector, FailTierIsImmediate) {
  FaultInjector inj;
  EXPECT_TRUE(inj.OnDeviceOp(TierKind::kDram).ok());
  inj.FailTier(TierKind::kDram);
  EXPECT_EQ(inj.OnDeviceOp(TierKind::kDram).kind, Kind::kPermanent);
  inj.FailBackend();
  EXPECT_EQ(inj.OnBackendOp().kind, Kind::kPermanent);
}

TEST(FaultConfigYaml, ParsesPerTierSpecs) {
  auto root = yaml::Parse(
      "faults:\n"
      "  seed: 77\n"
      "  nvme:\n"
      "    transient_error_rate: 0.25\n"
      "    fail_after_ops: 500\n"
      "  backend:\n"
      "    latency_spike_rate: 0.05\n"
      "    latency_spike_factor: 20\n");
  ASSERT_TRUE(root.ok());
  auto cfg = FaultConfig::FromYaml((*root)["faults"]);
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg->seed, 77u);
  EXPECT_EQ(cfg->tier(TierKind::kNvme).transient_error_rate, 0.25);
  EXPECT_EQ(cfg->tier(TierKind::kNvme).fail_after_ops, 500u);
  EXPECT_EQ(cfg->backend.latency_spike_rate, 0.05);
  EXPECT_EQ(cfg->backend.latency_spike_factor, 20.0);
  EXPECT_TRUE(cfg->any());
}

TEST(FaultConfigYaml, RejectsOutOfRangeRates) {
  auto root = yaml::Parse("nvme:\n  transient_error_rate: 1.5\n");
  ASSERT_TRUE(root.ok());
  EXPECT_FALSE(FaultConfig::FromYaml(*root).ok());
  auto root2 = yaml::Parse("hdd:\n  latency_spike_factor: 0.5\n");
  ASSERT_TRUE(root2.ok());
  EXPECT_FALSE(FaultConfig::FromYaml(*root2).ok());
}

// ---------------------------------------------------------------------------
// RetryPolicy unit tests
// ---------------------------------------------------------------------------

TEST(RetryPolicy, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy p;
  p.initial_backoff_s = 1e-3;
  p.backoff_multiplier = 4.0;
  p.max_backoff_s = 10e-3;
  EXPECT_DOUBLE_EQ(p.BackoffBefore(1), 1e-3);
  EXPECT_DOUBLE_EQ(p.BackoffBefore(2), 4e-3);
  EXPECT_DOUBLE_EQ(p.BackoffBefore(3), 10e-3);  // 16e-3 capped
}

TEST(RetryPolicy, RetriesTransientUntilSuccess) {
  RetryPolicy p;
  p.max_attempts = 5;
  p.initial_backoff_s = 1.0;
  p.backoff_multiplier = 2.0;
  p.max_backoff_s = 100.0;
  int calls = 0, attempts = 0;
  double done = 0.0;
  Status st = RunWithRetry(
      p, /*now=*/10.0, &done,
      [&](double start, double* attempt_done) -> Status {
        ++calls;
        *attempt_done = start + 0.5;  // each attempt takes 0.5 virtual sec
        if (calls < 3) return IoError("flaky");
        return Status::Ok();
      },
      &attempts);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(attempts, 3);
  // Attempt 1: [10, 10.5] + backoff 1 -> attempt 2: [11.5, 12] + backoff 2
  // -> attempt 3: [14, 14.5]. All charged to the virtual clock.
  EXPECT_DOUBLE_EQ(done, 14.5);
}

TEST(RetryPolicy, NonRetryableFailsFast) {
  RetryPolicy p;
  p.max_attempts = 5;
  int calls = 0;
  double done = 0.0;
  Status st = RunWithRetry(p, 0.0, &done, [&](double, double*) -> Status {
    ++calls;
    return Unavailable("tier dead");
  });
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 1);
}

TEST(RetryPolicy, ExhaustsAttemptsAndReturnsLastError) {
  RetryPolicy p;
  p.max_attempts = 3;
  int calls = 0;
  Status st = RunWithRetry(p, 0.0, nullptr, [&](double, double*) -> Status {
    ++calls;
    return IoError("still flaky");
  });
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(calls, 3);
}

TEST(RetryPolicy, WorksWithStatusOr) {
  RetryPolicy p;
  p.max_attempts = 4;
  int calls = 0;
  auto result = RunWithRetry(
      p, 0.0, nullptr, [&](double, double*) -> StatusOr<int> {
        if (++calls < 2) return IoError("flaky");
        return 41 + 1;
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(calls, 2);
}

TEST(RetryPolicy, YamlRoundTripAndValidation) {
  auto root = yaml::Parse(
      "retry:\n"
      "  max_attempts: 6\n"
      "  initial_backoff_s: 0.001\n"
      "  backoff_multiplier: 2\n"
      "  max_backoff_s: 0.1\n");
  ASSERT_TRUE(root.ok());
  auto p = RetryPolicy::FromYaml((*root)["retry"]);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->max_attempts, 6);
  EXPECT_DOUBLE_EQ(p->initial_backoff_s, 0.001);
  auto bad = yaml::Parse("max_attempts: 0\n");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(RetryPolicy::FromYaml(*bad).ok());
}

// The bitwise definition of the reflected 0xEDB88320 CRC: advances the
// register `crc` over `n` bytes. Every CRC test compares against it.
std::uint32_t BitwiseCrcUpdate(std::uint32_t crc, const std::uint8_t* p,
                               std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : (crc >> 1);
    }
  }
  return crc;
}

TEST(Crc32, MatchesKnownVector) {
  // The canonical CRC-32 ("123456789") check value.
  const char* s = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesTheBytewiseDefinitionAtEveryLengthAndOffset) {
  auto reference = [](const std::uint8_t* p, std::size_t n) {
    return BitwiseCrcUpdate(0xFFFFFFFFu, p, n) ^ 0xFFFFFFFFu;
  };
  std::vector<std::uint8_t> data(300);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37 + (i >> 3));
  }
  // Unaligned starts and every tail length past the 8-byte steps.
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t n = 0; off + n <= data.size(); n += 7) {
      EXPECT_EQ(Crc32(data.data() + off, n), reference(data.data() + off, n))
          << "offset " << off << " length " << n;
    }
  }
}

TEST(Crc32, HardwarePathMatchesPortableAtEveryLengthAndAlignment) {
  // Every length through one 4 KiB node, then a stride up to two 64 KiB
  // pages that ends each 64-byte fold block in every way the folding path
  // distinguishes: whole 64-byte blocks, a 16-byte fold, a table tail.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 4096; ++n) lengths.push_back(n);
  for (std::size_t blocks = 65; blocks <= 2048; blocks += 61) {
    for (std::size_t r : {0, 1, 15, 16, 63, 64}) {
      lengths.push_back(blocks * 64 + r);
    }
  }
  lengths.push_back(2 * 65536);
  std::vector<std::uint8_t> data(lengths.back() + 16);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(MixU64(i));
  }
  std::size_t cases = 0;
  std::size_t mismatches = 0;
  std::string first_mismatch;
  for (std::size_t off = 0; off < 16; ++off) {
    const std::uint8_t* p = data.data() + off;
    // The reference register advances only over the bytes each longer
    // case adds, so the bitwise loop reads every byte once per alignment.
    std::uint32_t reg = 0xFFFFFFFFu;
    std::size_t done = 0;
    for (std::size_t n : lengths) {
      reg = BitwiseCrcUpdate(reg, p + done, n - done);
      done = n;
      const std::uint32_t got = Crc32(p, n);
      ++cases;
      if (got != detail::Crc32Portable(p, n) || got != (reg ^ 0xFFFFFFFFu)) {
        if (mismatches++ == 0) {
          first_mismatch =
              "offset " + std::to_string(off) + " length " + std::to_string(n);
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << cases << "; first at "
                            << first_mismatch;
}

// ---------------------------------------------------------------------------
// TierStore / BufferManager fault behavior
// ---------------------------------------------------------------------------

TEST(TierStoreFaults, TransientFaultReturnsIoErrorWithoutConsumingData) {
  FaultConfig cfg;
  cfg.tier(TierKind::kNvme).transient_error_rate = 1.0;
  FaultInjector inj(cfg);
  sim::Device dev(sim::DeviceSpec::Nvme(MEGABYTES(10)));
  storage::TierStore store(&dev, MEGABYTES(1), &inj);
  std::vector<std::uint8_t> data(1000, 0xAB);
  sim::SimTime done = 0;
  Status st = store.Put({1, 0}, std::move(data), {}, 0.0, &done);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(data.size(), 1000u);  // kept for the caller's retry
  EXPECT_GT(done, 0.0);           // the failed attempt still took time
  EXPECT_FALSE(store.Contains({1, 0}));
}

TEST(TierStoreFaults, PermanentFaultFlipsStoreToFailed) {
  FaultConfig cfg;
  cfg.tier(TierKind::kNvme).fail_after_ops = 1;
  FaultInjector inj(cfg);
  sim::Device dev(sim::DeviceSpec::Nvme(MEGABYTES(10)));
  storage::TierStore store(&dev, MEGABYTES(1), &inj);
  ASSERT_TRUE(store.Put({1, 0}, std::vector<std::uint8_t>(64, 1), {}, 0.0,
                        nullptr).ok());
  EXPECT_EQ(store.Get({1, 0}, 0.0, nullptr).status().code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(store.failed());
  EXPECT_EQ(store.capacity(), 0u);
  EXPECT_EQ(store.free_bytes(), 0u);
  auto lost = store.FailAndDrain();
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0], (storage::BlobId{1, 0}));
  EXPECT_TRUE(store.FailAndDrain().empty());  // idempotent
}

TEST(TierStoreFaults, CorruptBlobFlipsBytesUnderTheirStamp) {
  sim::Device dev(sim::DeviceSpec::Nvme(MEGABYTES(10)));
  storage::TierStore store(&dev, MEGABYTES(1));
  std::vector<std::uint8_t> data(256, 0x5A);
  const storage::BlobStamp stamp{1, Crc32(data)};
  ASSERT_TRUE(store.Put({1, 0}, std::move(data), stamp, 0.0, nullptr).ok());
  std::vector<std::uint8_t> copy;
  auto got = store.GetInto({1, 0}, &copy, 0.0, nullptr);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, stamp);
  EXPECT_EQ(Crc32(copy), stamp.crc);
  // Silent media corruption: the bytes change, their stamp does not, so a
  // reader's CRC check catches it.
  ASSERT_TRUE(store.CorruptBlob({1, 0}, 17).ok());
  got = store.GetInto({1, 0}, &copy, 0.0, nullptr);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, stamp);
  EXPECT_NE(Crc32(copy), stamp.crc);
  EXPECT_EQ(store.CorruptBlob({9, 9}, 0).code(), StatusCode::kNotFound);
}

TEST(BufferManagerFaults, RetriesTransientFaultsTransparently) {
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.tier(TierKind::kNvme).transient_error_rate = 0.3;
  FaultInjector inj(cfg);
  RetryPolicy retry;
  retry.max_attempts = 8;
  auto cluster = sim::Cluster::PaperTestbed(1);
  storage::BufferManager bm(&cluster->node(0),
                            {{TierKind::kNvme, MEGABYTES(2)}}, &inj, retry);
  sim::SimTime t = 0;
  for (std::uint64_t p = 0; p < 32; ++p) {
    ASSERT_TRUE(bm.PutScored({1, p}, std::vector<std::uint8_t>(4096, 0x11),
                             0.5f, {}, t, &t).ok());
  }
  for (std::uint64_t p = 0; p < 32; ++p) {
    auto data = bm.Get({1, p}, t, &t);
    ASSERT_TRUE(data.ok()) << "page " << p;
    EXPECT_EQ((*data)[0], 0x11);
  }
  // The plan injected faults, and every one was absorbed by a retry.
  EXPECT_GT(inj.transient_faults(), 0u);
  EXPECT_EQ(bm.num_live_tiers(), 1u);
}

TEST(BufferManagerFaults, PermanentFailureDrainsAndReRoutes) {
  FaultInjector inj;  // faults only via explicit FailTier
  auto cluster = sim::Cluster::PaperTestbed(1);
  storage::BufferManager bm(&cluster->node(0),
                            {{TierKind::kDram, MEGABYTES(1)},
                             {TierKind::kNvme, MEGABYTES(4)}},
                            &inj, RetryPolicy{});
  std::vector<storage::BlobId> reported;
  sim::TierKind reported_kind = TierKind::kPfs;
  bm.SetTierFailureHandler([&](sim::TierKind kind,
                               const std::vector<storage::BlobId>& lost,
                               sim::SimTime) {
    reported_kind = kind;
    reported = lost;
  });
  auto t0 = bm.PutScored({1, 0}, std::vector<std::uint8_t>(4096, 1), 0.5f, {},
                         0.0, nullptr);
  ASSERT_TRUE(t0.ok());
  EXPECT_EQ(*t0, 0u);  // DRAM
  inj.FailTier(TierKind::kDram);
  // The next access against the dead tier surfaces kUnavailable, drains the
  // tier, and reports the lost blobs to the handler exactly once.
  auto miss = bm.Get({1, 0}, 1.0, nullptr);
  EXPECT_EQ(miss.status().code(), StatusCode::kUnavailable);
  ASSERT_EQ(reported.size(), 1u);
  EXPECT_EQ(reported[0], (storage::BlobId{1, 0}));
  EXPECT_EQ(reported_kind, TierKind::kDram);
  EXPECT_EQ(bm.num_live_tiers(), 1u);
  // Placement now re-routes to the surviving tier.
  auto t1 = bm.PutScored({1, 1}, std::vector<std::uint8_t>(4096, 2), 0.5f, {},
                         2.0, nullptr);
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(*t1, 1u);  // NVMe
  reported.clear();
  (void)bm.Get({1, 9}, 3.0, nullptr);  // dead tier is not re-reported
  EXPECT_TRUE(reported.empty());
}

TEST(BufferManagerFaults, AllTiersDeadReturnsUnavailable) {
  FaultInjector inj;
  auto cluster = sim::Cluster::PaperTestbed(1);
  storage::BufferManager bm(&cluster->node(0),
                            {{TierKind::kDram, MEGABYTES(1)}}, &inj,
                            RetryPolicy{});
  inj.FailTier(TierKind::kDram);
  auto st = bm.PutScored({1, 0}, std::vector<std::uint8_t>(64, 1), 0.5f, {},
                         0.0,
                         nullptr);
  EXPECT_EQ(st.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(bm.num_live_tiers(), 0u);
}

// ---------------------------------------------------------------------------
// Service-level recovery (tentpole acceptance)
// ---------------------------------------------------------------------------

class ServiceFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mm_fault_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// One-node service with a small DRAM slice over a larger NVMe slice.
  std::unique_ptr<core::Service> MakeService(core::ServiceOptions so = {}) {
    cluster_ = sim::Cluster::PaperTestbed(1);
    if (so.tier_grants.empty()) {
      so.tier_grants = {{TierKind::kDram, 128 * kKiB},
                        {TierKind::kNvme, MEGABYTES(4)}};
    }
    return std::make_unique<core::Service>(cluster_.get(), so);
  }

  static std::vector<std::uint8_t> PagePattern(std::uint64_t page,
                                               std::uint64_t bytes) {
    std::vector<std::uint8_t> data(bytes);
    for (std::uint64_t i = 0; i < bytes; ++i) {
      data[i] = static_cast<std::uint8_t>((page * 131 + i) & 0xFF);
    }
    return data;
  }

  std::filesystem::path dir_;
  std::unique_ptr<sim::Cluster> cluster_;
};

TEST_F(ServiceFaultTest, PermanentTierFailureDegradesAndRestoresCleanPages) {
  auto svc = MakeService();
  core::VectorOptions vo;
  vo.page_size = 4096;
  auto meta = svc->RegisterVector("posix://" + (dir_ / "v.bin").string(), 1,
                                  vo, 48 * 4096);
  ASSERT_TRUE(meta.ok());
  const std::uint64_t kPages = 48;
  sim::SimTime t = 0.0;
  for (std::uint64_t p = 0; p < kPages; ++p) {
    core::TaskOutcome out =
        svc->WriteRegion(**meta, p, 0, PagePattern(p, 4096), 0, t);
    ASSERT_TRUE(out.status.ok()) << "page " << p;
    t = std::max(t, out.done);
  }
  // Persist everything so every page is clean before the tier dies.
  sim::SimTime flush_done = t;
  ASSERT_TRUE(svc->FlushVector(**meta, 0, t, &flush_done).ok());
  t = flush_done;
  // 48 pages over a 32-page DRAM slice: a good chunk lives on NVMe.
  svc->fault_injector().FailTier(TierKind::kNvme);
  // Every page must still read back correctly: DRAM residents directly,
  // NVMe residents via drain -> metadata reconcile -> backend re-stage.
  for (std::uint64_t p = 0; p < kPages; ++p) {
    sim::SimTime done = t;
    auto page = svc->ReadPage(**meta, p, 0, t, &done);
    ASSERT_TRUE(page.ok()) << "page " << p << ": " << page.status().message();
    EXPECT_EQ(*page, PagePattern(p, 4096)) << "page " << p;
    t = std::max(t, done);
  }
  EXPECT_EQ(svc->data_loss_count(), 0u);  // everything was clean
  EXPECT_EQ(svc->runtime(0).buffer().num_live_tiers(), 1u);
  EXPECT_EQ(svc->fault_injector().permanent_failures(), 1u);
  // New writes re-route to the surviving DRAM tier (or write through).
  auto out = svc->WriteRegion(**meta, 2, 0, PagePattern(99, 4096), 0, t);
  EXPECT_TRUE(out.status.ok());
}

TEST_F(ServiceFaultTest, TierFailureInsideATaskLeavesLostPagesUnplaced) {
  // The NVMe tier dies, and the first to notice is a page read's task on
  // the node. The tier-failure handler runs inside that task: it drops the
  // lost clean pages and makes no runtime call, so the read must return
  // (not wait forever on the node's execution mutex its own thread holds),
  // and the other lost pages stage back in on their next touch.
  auto svc = MakeService();
  core::VectorOptions vo;
  vo.page_size = 4096;
  constexpr std::uint64_t kPages = 16;
  auto meta = svc->RegisterVector("posix://" + (dir_ / "v.bin").string(), 1,
                                  vo, kPages * 4096);
  // A volatile vector fills the 32-page DRAM slice first, so the backed
  // vector's pages land on NVMe; dropping it leaves DRAM room to re-stage.
  core::VectorOptions fill = vo;
  fill.nonvolatile = false;
  auto filler = svc->RegisterVector("filler", 1, fill, 32 * 4096);
  ASSERT_TRUE(meta.ok() && filler.ok());
  sim::SimTime t = 0.0;
  for (std::uint64_t p = 0; p < 32; ++p) {
    ASSERT_TRUE(svc->WriteRegion(**filler, p, 0, PagePattern(p, 4096), 0, t)
                    .status.ok());
  }
  for (std::uint64_t p = 0; p < kPages; ++p) {
    core::TaskOutcome out =
        svc->WriteRegion(**meta, p, 0, PagePattern(p, 4096), 0, t);
    ASSERT_TRUE(out.status.ok()) << "page " << p;
    t = std::max(t, out.done);
  }
  sim::SimTime flush_done = t;
  ASSERT_TRUE(svc->FlushVector(**meta, 0, t, &flush_done).ok());
  t = flush_done;
  storage::BufferManager& bm = svc->runtime(0).buffer();
  for (std::uint64_t p = 0; p < kPages; ++p) {
    auto tier = bm.FindBlob({(*meta)->vector_id, p});
    ASSERT_TRUE(tier.has_value()) << "page " << p;
    ASSERT_EQ(bm.tier(*tier).kind(), TierKind::kNvme) << "page " << p;
  }
  ASSERT_TRUE(svc->DestroyVector(**filler).ok());
  auto counter = [&](const char* name) {
    return svc->metrics(0).GetCounter(name)->value();
  };
  const std::uint64_t reads = counter("mm.stager.read_count");
  const std::uint64_t executed = counter("mm.task.executed_count");
  svc->fault_injector().FailTier(TierKind::kNvme);

  std::promise<std::vector<core::PendingFetch>> result;
  auto returned = result.get_future();
  std::thread reader(
      [&] { result.set_value(svc->ReadPagesAsync(**meta, 0, 1, 0, t)); });
  if (returned.wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    // The reader is stuck holding the node's mutex: tearing the service
    // down would wait on it too.
    std::fprintf(stderr, "ReadPagesAsync did not return within 30 s\n");
    std::_Exit(1);
  }
  reader.join();
  const std::vector<core::PendingFetch> fetched = returned.get();
  ASSERT_EQ(fetched.size(), 1u);
  ASSERT_TRUE(fetched[0].outcome.status.ok())
      << fetched[0].outcome.status.ToString();
  EXPECT_EQ(fetched[0].outcome.data, PagePattern(0, 4096));
  EXPECT_EQ(svc->fault_injector().permanent_failures(), 1u);
  // The read was one step and one backend read, its own page's stage-in.
  EXPECT_EQ(counter("mm.task.executed_count") - executed, 1u);
  EXPECT_EQ(counter("mm.stager.read_count") - reads, 1u);
  auto first = svc->metadata().Lookup({(*meta)->vector_id, 0}, 0, t, nullptr);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->tier, TierKind::kDram);
  for (std::uint64_t p = 1; p < kPages; ++p) {
    EXPECT_FALSE(
        svc->metadata().Lookup({(*meta)->vector_id, p}, 0, t, nullptr).ok())
        << "page " << p << " was re-staged eagerly";
  }
  for (std::uint64_t p = 1; p < kPages; ++p) {
    sim::SimTime done = t;
    auto page = svc->ReadPage(**meta, p, 0, t, &done);
    ASSERT_TRUE(page.ok()) << "page " << p << ": " << page.status().message();
    EXPECT_EQ(*page, PagePattern(p, 4096)) << "page " << p;
  }
  EXPECT_EQ(svc->data_loss_count(), 0u);
}

TEST_F(ServiceFaultTest, DirtyPageLossSurfacesAsDataLossNotAbort) {
  auto svc = MakeService();
  core::VectorOptions vo;
  vo.page_size = 4096;
  auto meta = svc->RegisterVector("posix://" + (dir_ / "v.bin").string(), 1,
                                  vo, 8 * 4096);
  ASSERT_TRUE(meta.ok());
  // Dirty write, never flushed: the only copy lives in the scache.
  core::TaskOutcome out = svc->WriteRegion(
      **meta, 0, 16, std::vector<std::uint8_t>(64, 0xEE), 0, 0.0);
  ASSERT_TRUE(out.status.ok());
  storage::BlobId id{(*meta)->vector_id, 0};
  auto tier_idx = svc->runtime(0).buffer().FindBlob(id);
  ASSERT_TRUE(tier_idx.has_value());
  svc->fault_injector().FailTier(
      svc->runtime(0).buffer().tier(*tier_idx).kind());
  // The read trips over the dead tier; the unstaged modification is gone and
  // MUST surface as typed data loss, not a crash or silent zeros.
  sim::SimTime done = out.done;
  auto page = svc->ReadPage(**meta, 0, 0, out.done, &done);
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kDataLoss);
  EXPECT_GE(svc->data_loss_count(), 1u);
  // A full-page overwrite replaces the lost bytes and clears the condition.
  core::TaskOutcome out2 =
      svc->WriteRegion(**meta, 0, 0, PagePattern(0, 4096), 0, done);
  ASSERT_TRUE(out2.status.ok()) << out2.status.message();
  EXPECT_EQ(svc->data_loss_count(), 0u);
  sim::SimTime done2 = out2.done;
  auto healed = svc->ReadPage(**meta, 0, 0, out2.done, &done2);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(*healed, PagePattern(0, 4096));
}

TEST_F(ServiceFaultTest, CrcCatchesSilentCorruption) {
  // The check must not depend on whether the caller asks for the version.
  for (bool with_version : {true, false}) {
    SCOPED_TRACE(with_version ? "with version" : "without version");
    auto svc = MakeService();
    core::VectorOptions vo;
    vo.page_size = 4096;
    auto meta = svc->RegisterVector(
        "posix://" +
            (dir_ / (with_version ? "v_ver.bin" : "v_nover.bin")).string(),
        1, vo, 8 * 4096);
    ASSERT_TRUE(meta.ok());
    sim::SimTime t = 0.0;
    // Page 0: dirty (unstaged). Page 1: flushed clean.
    for (std::uint64_t p = 0; p < 2; ++p) {
      core::TaskOutcome out =
          svc->WriteRegion(**meta, p, 0, PagePattern(p, 4096), 0, t);
      ASSERT_TRUE(out.status.ok());
      t = std::max(t, out.done);
    }
    ASSERT_TRUE(svc->FlushVector(**meta, 0, t, &t).ok());
    core::TaskOutcome redirty =
        svc->WriteRegion(**meta, 0, 8, std::vector<std::uint8_t>(16, 0x77), 0,
                         t);
    ASSERT_TRUE(redirty.status.ok());
    t = std::max(t, redirty.done);

    auto& bm = svc->runtime(0).buffer();
    storage::BlobId dirty_id{(*meta)->vector_id, 0};
    storage::BlobId clean_id{(*meta)->vector_id, 1};
    auto dt = bm.FindBlob(dirty_id);
    auto ct = bm.FindBlob(clean_id);
    ASSERT_TRUE(dt.has_value());
    ASSERT_TRUE(ct.has_value());
    ASSERT_TRUE(bm.tier(*dt).CorruptBlob(dirty_id, 100).ok());
    ASSERT_TRUE(bm.tier(*ct).CorruptBlob(clean_id, 100).ok());

    // Dirty page: the CRC mismatch means the modification is unrecoverable.
    std::uint64_t version = 0;
    std::uint64_t* version_out = with_version ? &version : nullptr;
    sim::SimTime done = t;
    auto dirty_read = svc->ReadPage(**meta, 0, 0, t, &done, version_out);
    ASSERT_FALSE(dirty_read.ok());
    EXPECT_EQ(dirty_read.status().code(), StatusCode::kDataLoss);
    EXPECT_GE(svc->data_loss_count(), 1u);

    // Clean page: the bad copy is dropped and re-staged from the backend.
    sim::SimTime done2 = t;
    auto clean_read = svc->ReadPage(**meta, 1, 0, t, &done2, version_out);
    ASSERT_TRUE(clean_read.ok()) << clean_read.status().message();
    EXPECT_EQ(*clean_read, PagePattern(1, 4096));
  }
}

// The one loss rule: whatever drops a copy (its tier's death, its node's
// death, or a failed CRC check), one page state gets one outcome: the same
// directory entry, loss count and read result. A dropped primary stages
// back in at the version it was dropped at (Service::RestageVersion).
enum class CopyState { kReplica, kCleanPrimary, kDirtyWithRecord, kDirtyNoRecord };
enum class LossTrigger { kTierDeath, kNodeDeath, kCrcMismatch };

TEST_F(ServiceFaultTest, EveryLossTriggerGivesAPageStateOneOutcome) {
  struct Cell {
    CopyState state;
    const char* name;
    const char* expected;  // entry, loss count and read result
  };
  const Cell cells[] = {
      {CopyState::kReplica, "replica",
       "entry v1 clean; 0 lost; read OK, committed bytes"},
      {CopyState::kCleanPrimary, "clean primary",
       "entry v1 clean; 0 lost; read OK, committed bytes"},
      {CopyState::kDirtyWithRecord, "dirty primary with a durable record",
       "entry v1 clean; 0 lost; read OK, committed bytes"},
      {CopyState::kDirtyNoRecord, "dirty primary without a record",
       "no entry; 1 lost; read DATA_LOSS"},
  };
  const std::pair<LossTrigger, const char*> triggers[] = {
      {LossTrigger::kTierDeath, "FailTier"},
      {LossTrigger::kNodeDeath, "RecoverDeadNode"},
      {LossTrigger::kCrcMismatch, "CorruptBlob + ReadPage"},
  };
  constexpr std::uint64_t kPage = 4096;
  const std::vector<std::uint8_t> committed = PagePattern(0, kPage);
  int run = 0;
  for (const Cell& cell : cells) {
    for (const auto& [trigger, trigger_name] : triggers) {
      SCOPED_TRACE(std::string(cell.name) + " x " + trigger_name);
      // A fresh two-node service per cell, with its own journals and
      // backend.
      const std::filesystem::path cell_dir = dir_ / std::to_string(run++);
      std::filesystem::create_directories(cell_dir);
      core::ServiceOptions so;
      so.tier_grants = {{TierKind::kDram, 128 * kKiB},
                        {TierKind::kNvme, MEGABYTES(4)}};
      so.ckpt.dir = (cell_dir / "ckpt").string();
      cluster_ = sim::Cluster::PaperTestbed(2);
      auto svc = std::make_unique<core::Service>(cluster_.get(), so);
      core::VectorOptions vo;
      vo.page_size = kPage;
      auto meta = svc->RegisterVector(
          "posix://" + (cell_dir / "v.bin").string(), 1, vo, 4 * kPage);
      ASSERT_TRUE(meta.ok());
      const storage::BlobId id{(*meta)->vector_id, 0};
      sim::SimTime t = 0.0;
      core::TaskOutcome wrote = svc->WriteRegion(**meta, 0, 0, committed, 0, t);
      ASSERT_TRUE(wrote.status.ok());
      t = std::max(t, wrote.done);
      auto primary = svc->metadata().Lookup(id, 0, t, nullptr);
      ASSERT_TRUE(primary.ok());
      // `holder` is the node whose copy is lost.
      std::size_t holder = primary->node;
      switch (cell.state) {
        case CopyState::kReplica: {
          ASSERT_TRUE(svc->FlushVector(**meta, 0, t, &t).ok());
          ASSERT_TRUE(svc->ChangePhase(**meta,
                                       core::CoherenceMode::kReadOnlyGlobal,
                                       0, t, &t)
                          .ok());
          holder = 1 - primary->node;
          ASSERT_TRUE(svc->ReadPage(**meta, 0, holder, t, &t).ok());
          ASSERT_EQ(svc->metadata().Replicas(id, 0, t, nullptr),
                    std::vector<std::size_t>{holder});
          break;
        }
        case CopyState::kCleanPrimary:
          ASSERT_TRUE(svc->FlushVector(**meta, 0, t, &t).ok());
          break;
        case CopyState::kDirtyWithRecord: {
          ckpt::JournalRecord rec;
          rec.id = id;
          rec.version = primary->version;
          rec.page_crc = Crc32(committed);
          rec.key = (*meta)->key;
          rec.payload = committed;
          ASSERT_TRUE(svc->journal(holder)->Append(rec).ok());
          break;
        }
        case CopyState::kDirtyNoRecord:
          break;
      }
      storage::BufferManager& bm = svc->runtime(holder).buffer();
      auto tier = bm.FindBlob(id);
      ASSERT_TRUE(tier.has_value());
      std::size_t reader = holder;
      switch (trigger) {
        case LossTrigger::kTierDeath:
          svc->fault_injector().FailTier(bm.tier(*tier).kind());
          break;
        case LossTrigger::kNodeDeath:
          reader = 1 - holder;
          svc->RecoverDeadNode(holder, reader, t);
          break;
        case LossTrigger::kCrcMismatch:
          ASSERT_TRUE(bm.tier(*tier).CorruptBlob(id, 100).ok());
          break;
      }
      sim::SimTime done = t;
      auto read = svc->ReadPage(**meta, 0, reader, t, &done);
      auto entry = svc->metadata().Lookup(id, reader, done, nullptr);
      std::string got =
          entry.ok() ? "entry v" + std::to_string(entry->version) +
                           (entry->dirty ? " dirty" : " clean")
                     : std::string("no entry");
      got += "; " + std::to_string(svc->data_loss_count()) + " lost; read ";
      got += read.ok() ? (*read == committed ? "OK, committed bytes"
                                             : "OK, wrong bytes")
                       : std::string(StatusCodeName(read.status().code()));
      EXPECT_EQ(got, cell.expected);
    }
  }
}

TEST_F(ServiceFaultTest, SubmitAfterShutdownReturnsFailedPrecondition) {
  auto svc = MakeService();
  core::VectorOptions vo;
  vo.nonvolatile = false;
  vo.page_size = 4096;
  auto meta = svc->RegisterVector("vol", 1, vo, 4096);
  ASSERT_TRUE(meta.ok());
  svc->Shutdown();
  // A straggler write after shutdown is rejected with a typed error — it
  // must not abort the process or hang.
  auto out = svc->WriteRegion(**meta, 0, 0, std::vector<std::uint8_t>(16, 1),
                              0, 0.0);
  EXPECT_EQ(out.status.code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// End-to-end: KMeans under injected faults (ISSUE acceptance)
// ---------------------------------------------------------------------------

class KMeansFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mm_kmf_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    gen_.num_particles = 20000;
    gen_.halos = 4;
    gen_.halo_sigma = 4.0;
    gen_.seed = 42;
    key_ = "posix://" + (dir_ / "pts.bin").string();
    ASSERT_TRUE(apps::GenerateToBackend(gen_, key_).ok());
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  apps::KMeansConfig Config() {
    apps::KMeansConfig cfg;
    cfg.k = 4;
    cfg.max_iter = 4;
    cfg.seed = 5;
    cfg.page_size = 16 * 1024;
    cfg.pcache_bytes = 64 * 1024;
    return cfg;
  }

  /// Runs single-rank KMeansMega under the given service options.
  apps::KMeansResult Run(core::ServiceOptions so,
                         core::Service** svc_out = nullptr) {
    auto cluster = sim::Cluster::PaperTestbed(1);
    auto svc = std::make_unique<core::Service>(cluster.get(), so);
    apps::KMeansResult result;
    auto run = comm::RunRanks(*cluster, 1, 1, [&](comm::RankContext& ctx) {
      comm::Communicator comm(&ctx);
      result = apps::KMeansMega(*svc, comm, key_, Config());
    });
    EXPECT_TRUE(run.ok()) << run.error;
    if (svc_out != nullptr) *svc_out = svc.get();
    stats_transient_ = svc->fault_injector().transient_faults();
    stats_permanent_ = svc->fault_injector().permanent_failures();
    data_loss_ = svc->data_loss_count();
    return result;
  }

  static void ExpectByteIdentical(const apps::KMeansResult& a,
                                  const apps::KMeansResult& b) {
    ASSERT_EQ(a.centroids.size(), b.centroids.size());
    ASSERT_EQ(0, std::memcmp(a.centroids.data(), b.centroids.data(),
                             a.centroids.size() * sizeof(apps::Point3)));
    EXPECT_EQ(0, std::memcmp(&a.inertia, &b.inertia, sizeof(double)));
  }

  core::ServiceOptions BaseOptions() {
    core::ServiceOptions so;
    // A deliberately tiny DRAM slice: the ~470 KiB dataset spills to NVMe,
    // so the NVMe fault plans actually fire.
    so.tier_grants = {{TierKind::kDram, 32 * kKiB},
                      {TierKind::kNvme, MEGABYTES(32)}};
    return so;
  }

  std::filesystem::path dir_;
  apps::DatagenConfig gen_;
  std::string key_;
  std::uint64_t stats_transient_ = 0;
  std::uint64_t stats_permanent_ = 0;
  std::size_t data_loss_ = 0;
};

TEST_F(KMeansFaultTest, ByteIdenticalUnderTransientFaults) {
  apps::KMeansResult baseline = Run(BaseOptions());

  core::ServiceOptions faulty = BaseOptions();
  faulty.faults.seed = 1234;
  faulty.faults.tier(TierKind::kNvme).transient_error_rate = 0.10;
  faulty.retry.max_attempts = 6;
  apps::KMeansResult result = Run(faulty);

  // 10% of NVMe ops failed transiently; retries absorbed every one and the
  // answer is byte-identical to the fault-free run.
  EXPECT_GT(stats_transient_, 0u);
  EXPECT_EQ(data_loss_, 0u);
  ExpectByteIdentical(baseline, result);
}

TEST_F(KMeansFaultTest, SurvivesPermanentNvmeDeathMidRun) {
  apps::KMeansResult baseline = Run(BaseOptions());

  core::ServiceOptions faulty = BaseOptions();
  faulty.faults.tier(TierKind::kNvme).fail_after_ops = 50;
  apps::KMeansResult result = Run(faulty);

  // The NVMe tier died mid-run. The dataset is read-only (all pages clean),
  // so recovery re-staged from the PFS backend and the run degraded to the
  // surviving DRAM tier — same answer, no data loss.
  EXPECT_EQ(stats_permanent_, 1u);
  EXPECT_EQ(data_loss_, 0u);
  ExpectByteIdentical(baseline, result);
}

}  // namespace
}  // namespace mm
