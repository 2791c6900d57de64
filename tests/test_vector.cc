// End-to-end tests of mm::Vector over the full stack: pcache, the node
// runtime, tiered scache, metadata, staging backends, coherence modes.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "mm/mega_mmap.h"

namespace mm {
namespace {

using core::Service;
using core::ServiceOptions;
using core::VectorOptions;

class VectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mm_vec_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    cluster_ = sim::Cluster::PaperTestbed(2);
    sopts_.tier_grants = {{sim::TierKind::kDram, MEGABYTES(4)},
                          {sim::TierKind::kNvme, MEGABYTES(16)}};
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Key(const std::string& scheme, const std::string& name,
                  const std::string& frag = "") {
    std::string k = scheme + "://" + (dir_ / name).string();
    if (!frag.empty()) k += ":" + frag;
    return k;
  }

  VectorOptions SmallPages() {
    VectorOptions o;
    o.page_size = 4096;
    o.pcache_bytes = 64 * kKiB;
    return o;
  }

  /// Elements of std::uint64_t per SmallPages() page.
  static constexpr std::uint64_t kEpp = 4096 / sizeof(std::uint64_t);

  /// Writes 0, 1, ..., n-1 as std::uint64_t to `name`; returns its path.
  std::string WriteIota(const std::string& name, std::uint64_t n) {
    std::vector<std::uint64_t> init(n);
    std::iota(init.begin(), init.end(), 0);
    const std::string path = (dir_ / name).string();
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(init.data()),
              static_cast<std::streamsize>(n * sizeof(std::uint64_t)));
    return path;
  }

  /// A counter summed over every node of `svc`.
  static std::uint64_t Counter(Service& svc, const char* name) {
    std::uint64_t total = 0;
    for (std::size_t node = 0; node < svc.num_nodes(); ++node) {
      total += svc.metrics(node).GetCounter(name)->value();
    }
    return total;
  }

  std::filesystem::path dir_;
  std::unique_ptr<sim::Cluster> cluster_;
  ServiceOptions sopts_;
};

TEST_F(VectorTest, SingleRankWriteReadBack) {
  Service svc(cluster_.get(), sopts_);
  auto result = comm::RunRanks(*cluster_, 1, 1, [&](comm::RankContext& ctx) {
    Vector<double> v(svc, ctx, Key("posix", "wr.bin"), 10000, SmallPages());
    EXPECT_EQ(v.size(), 10000u);
    auto tx = v.SeqTxBegin(0, 10000, MM_WRITE_ONLY);
    for (std::uint64_t i = 0; i < 10000; ++i) v[i] = static_cast<double>(i);
    v.TxEnd();
    auto rtx = v.SeqTxBegin(0, 10000, MM_READ_ONLY);
    double sum = 0;
    for (double x : rtx) sum += x;
    v.TxEnd();
    EXPECT_DOUBLE_EQ(sum, 10000.0 * 9999.0 / 2);
  });
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_GT(result.max_time, 0.0);
}

TEST_F(VectorTest, BoundMemoryForcesEvictionAndDataSurvives) {
  Service svc(cluster_.get(), sopts_);
  auto result = comm::RunRanks(*cluster_, 1, 1, [&](comm::RankContext& ctx) {
    VectorOptions o = SmallPages();
    o.pcache_bytes = 4 * 4096;  // 4 pages for ~20 pages of data
    Vector<std::uint64_t> v(svc, ctx, Key("posix", "bm.bin"), 10000, o);
    auto tx = v.SeqTxBegin(0, 10000, MM_WRITE_ONLY);
    for (std::uint64_t i = 0; i < 10000; ++i) v[i] = i * 3;
    v.TxEnd();
    EXPECT_GT(v.evictions(), 0u);
    EXPECT_LE(v.pcache().used(), o.pcache_bytes);
    auto rtx = v.SeqTxBegin(0, 10000, MM_READ_ONLY);
    for (std::uint64_t i = 0; i < 10000; ++i) {
      ASSERT_EQ(v[i], i * 3) << "element " << i;
    }
    v.TxEnd();
  });
  ASSERT_TRUE(result.ok()) << result.error;
}

TEST_F(VectorTest, TwoRanksShareDataAfterBarrier) {
  Service svc(cluster_.get(), sopts_);
  auto result = comm::RunRanks(*cluster_, 2, 1, [&](comm::RankContext& ctx) {
    comm::Communicator comm(&ctx);
    Vector<int> v(svc, ctx, Key("posix", "share.bin"), 4096, SmallPages());
    if (ctx.rank() == 0) {
      auto tx = v.SeqTxBegin(0, 4096, MM_WRITE_ONLY);
      for (int i = 0; i < 4096; ++i) v[i] = i + 1;
      v.TxEnd();
    }
    comm.Barrier();
    if (ctx.rank() == 1) {
      auto tx = v.SeqTxBegin(0, 4096, MM_READ_ONLY);
      long sum = 0;
      for (int x : tx) sum += x;
      v.TxEnd();
      EXPECT_EQ(sum, 4096L * 4097 / 2);
    }
  });
  ASSERT_TRUE(result.ok()) << result.error;
}

TEST_F(VectorTest, PgasPartitionCoversAllElementsExactly) {
  Service svc(cluster_.get(), sopts_);
  const std::uint64_t n = 1003;  // deliberately not divisible
  std::atomic<std::uint64_t> covered{0};
  auto result = comm::RunRanks(*cluster_, 4, 2, [&](comm::RankContext& ctx) {
    Vector<int> v(svc, ctx, Key("posix", "pgas.bin"), n, SmallPages());
    v.Pgas(ctx.rank(), ctx.size());
    covered.fetch_add(v.local_size());
    // Partitions are contiguous and ordered.
    if (ctx.rank() == 0) EXPECT_EQ(v.local_off(), 0u);
    EXPECT_LE(v.local_off() + v.local_size(), n);
  });
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(covered.load(), n);
}

TEST_F(VectorTest, NonOverlappingWritesLocalMode) {
  // Read/Write Local (Fig. 3): every rank writes its own partition; all
  // partitions must be intact afterwards, including ranks sharing pages.
  Service svc(cluster_.get(), sopts_);
  const std::uint64_t n = 8192;
  auto result = comm::RunRanks(*cluster_, 4, 2, [&](comm::RankContext& ctx) {
    comm::Communicator comm(&ctx);
    VectorOptions o = SmallPages();
    o.mode = core::CoherenceMode::kLocal;
    Vector<std::uint32_t> v(svc, ctx, Key("posix", "local.bin"), n, o);
    v.Pgas(ctx.rank(), ctx.size());
    auto tx = v.SeqTxBegin(v.local_off(), v.local_size(), MM_WRITE_ONLY);
    for (std::uint64_t i = v.local_off(); i < v.local_off() + v.local_size();
         ++i) {
      v[i] = static_cast<std::uint32_t>(i ^ 0xABCD);
    }
    v.TxEnd();
    comm.Barrier();
    // Everyone verifies everything.
    auto rtx = v.SeqTxBegin(0, n, MM_READ_ONLY);
    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(v[i], static_cast<std::uint32_t>(i ^ 0xABCD)) << i;
    }
    v.TxEnd();
  });
  ASSERT_TRUE(result.ok()) << result.error;
}

TEST_F(VectorTest, PersistenceAcrossServices) {
  // Write with one service, shut it down, read the file with a fresh one.
  std::string key = Key("posix", "persist.bin");
  {
    Service svc(cluster_.get(), sopts_);
    auto result = comm::RunRanks(*cluster_, 1, 1, [&](comm::RankContext& ctx) {
      Vector<std::uint64_t> v(svc, ctx, key, 5000, SmallPages());
      auto tx = v.SeqTxBegin(0, 5000, MM_WRITE_ONLY);
      for (std::uint64_t i = 0; i < 5000; ++i) v[i] = i * i;
      v.TxEnd();
    });
    ASSERT_TRUE(result.ok()) << result.error;
    svc.Shutdown();  // stages all dirty pages to the backend
  }
  EXPECT_TRUE(std::filesystem::exists(
      (dir_ / "persist.bin")));
  {
    auto cluster2 = sim::Cluster::PaperTestbed(2);
    Service svc(cluster2.get(), sopts_);
    auto result = comm::RunRanks(*cluster2, 1, 1, [&](comm::RankContext& ctx) {
      Vector<std::uint64_t> v(svc, ctx, key, 0, SmallPages());
      ASSERT_EQ(v.size(), 5000u);  // size recovered from the backend
      auto tx = v.SeqTxBegin(0, 5000, MM_READ_ONLY);
      for (std::uint64_t i = 0; i < 5000; ++i) {
        ASSERT_EQ(v[i], i * i) << i;
      }
      v.TxEnd();
    });
    ASSERT_TRUE(result.ok()) << result.error;
  }
}

TEST_F(VectorTest, ShdfBackedVectorPersists) {
  std::string key = Key("shdf", "data.h5", "positions");
  {
    Service svc(cluster_.get(), sopts_);
    auto result = comm::RunRanks(*cluster_, 1, 1, [&](comm::RankContext& ctx) {
      Vector<float> v(svc, ctx, key, 4096, SmallPages());
      auto tx = v.SeqTxBegin(0, 4096, MM_WRITE_ONLY);
      for (std::uint64_t i = 0; i < 4096; ++i) v[i] = i * 0.5f;
      v.TxEnd();
      v.Flush();
    });
    ASSERT_TRUE(result.ok()) << result.error;
  }
  // Independently verify through the stager API.
  auto resolved = storage::StagerRegistry::Default().Resolve(key);
  ASSERT_TRUE(resolved.ok());
  auto size = resolved->first->Size(resolved->second);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 4096 * sizeof(float));
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(resolved->first->Read(resolved->second, 0, 64, &bytes).ok());
  float f0, f1;
  std::memcpy(&f0, bytes.data(), 4);
  std::memcpy(&f1, bytes.data() + 4, 4);
  EXPECT_FLOAT_EQ(f0, 0.0f);
  EXPECT_FLOAT_EQ(f1, 0.5f);
}

TEST_F(VectorTest, SparBackedVectorRoundTrips) {
  struct Point3D {
    float x, y, z;
  };
  std::string key = Key("spar", "pts.parquet", "f4x3");
  Service svc(cluster_.get(), sopts_);
  auto result = comm::RunRanks(*cluster_, 1, 1, [&](comm::RankContext& ctx) {
    VectorOptions o;
    o.page_size = 120 * 16;  // multiple of 12-byte rows
    Vector<Point3D> v(svc, ctx, key, 5000, o);
    auto tx = v.SeqTxBegin(0, 5000, MM_WRITE_ONLY);
    for (std::uint64_t i = 0; i < 5000; ++i) {
      v[i] = Point3D{float(i), float(i) * 2, float(i) * 3};
    }
    v.TxEnd();
    v.Flush();
    auto rtx = v.SeqTxBegin(0, 5000, MM_READ_ONLY);
    for (std::uint64_t i = 0; i < 5000; ++i) {
      Point3D p = v[i];
      ASSERT_FLOAT_EQ(p.y, float(i) * 2) << i;
    }
    v.TxEnd();
  });
  ASSERT_TRUE(result.ok()) << result.error;
}

TEST_F(VectorTest, AppendGrowsVector) {
  Service svc(cluster_.get(), sopts_);
  auto result = comm::RunRanks(*cluster_, 2, 1, [&](comm::RankContext& ctx) {
    comm::Communicator comm(&ctx);
    VectorOptions o = SmallPages();
    o.mode = core::CoherenceMode::kAppendOnlyGlobal;
    Vector<int> v(svc, ctx, Key("posix", "append.bin"), 0, o);
    for (int i = 0; i < 500; ++i) {
      v.Append(ctx.rank() * 1000 + i);
    }
    v.Flush();
    comm.Barrier();
    EXPECT_EQ(v.size(), 1000u);
  });
  ASSERT_TRUE(result.ok()) << result.error;
}

TEST_F(VectorTest, VolatileVectorNeverTouchesBackend) {
  Service svc(cluster_.get(), sopts_);
  auto result = comm::RunRanks(*cluster_, 1, 1, [&](comm::RankContext& ctx) {
    VectorOptions o = SmallPages();
    o.nonvolatile = false;
    Vector<int> v(svc, ctx, "scratch_volatile", 2048, o);
    auto tx = v.SeqTxBegin(0, 2048, MM_READ_WRITE);
    for (int i = 0; i < 2048; ++i) v[i] = -i;
    for (int i = 0; i < 2048; ++i) ASSERT_EQ(v[i], -i);
    v.TxEnd();
  });
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_FALSE(std::filesystem::exists("scratch_volatile"));
}

TEST_F(VectorTest, DestroyRemovesScacheState) {
  Service svc(cluster_.get(), sopts_);
  auto result = comm::RunRanks(*cluster_, 1, 1, [&](comm::RankContext& ctx) {
    VectorOptions o = SmallPages();
    o.nonvolatile = false;
    Vector<int> v(svc, ctx, "doomed", 4096, o);
    auto tx = v.SeqTxBegin(0, 4096, MM_WRITE_ONLY);
    for (int i = 0; i < 4096; ++i) v[i] = i;
    v.TxEnd();
    EXPECT_GT(svc.metadata().TotalBlobs(), 0u);
    v.Destroy();
  });
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(svc.metadata().TotalBlobs(), 0u);
}

TEST_F(VectorTest, ReadOnlyGlobalReplicates) {
  Service svc(cluster_.get(), sopts_);
  std::string key = Key("posix", "ro.bin");
  // Pre-create the dataset.
  {
    auto resolved = storage::StagerRegistry::Default().Resolve(key);
    ASSERT_TRUE(resolved.ok());
    std::vector<std::uint8_t> bytes(64 * 1024);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<std::uint8_t>(i);
    }
    ASSERT_TRUE(resolved->first->Create(resolved->second, bytes.size()).ok());
    ASSERT_TRUE(resolved->first->Write(resolved->second, 0, bytes).ok());
  }
  auto result = comm::RunRanks(*cluster_, 2, 1, [&](comm::RankContext& ctx) {
    comm::Communicator comm(&ctx);
    VectorOptions o = SmallPages();
    o.mode = core::CoherenceMode::kReadOnlyGlobal;
    Vector<std::uint8_t> v(svc, ctx, key, 0, o);
    comm.Barrier();
    auto tx = v.SeqTxBegin(0, v.size(), MM_READ_ONLY);
    std::uint64_t sum = 0;
    for (std::uint8_t b : tx) sum += b;
    v.TxEnd();
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < 64 * 1024; ++i) {
      expected += static_cast<std::uint8_t>(i);
    }
    EXPECT_EQ(sum, expected);
  });
  ASSERT_TRUE(result.ok()) << result.error;
}

TEST_F(VectorTest, PhaseChangeInvalidatesReplicasAndAllowsWrites) {
  Service svc(cluster_.get(), sopts_);
  std::string key = Key("posix", "phase.bin");
  auto result = comm::RunRanks(*cluster_, 2, 1, [&](comm::RankContext& ctx) {
    comm::Communicator comm(&ctx);
    VectorOptions o = SmallPages();
    o.mode = core::CoherenceMode::kWriteOnlyGlobal;
    Vector<int> v(svc, ctx, key, 2048, o);
    // Phase 1: rank 0 writes.
    if (ctx.rank() == 0) {
      auto tx = v.SeqTxBegin(0, 2048, MM_WRITE_ONLY);
      for (int i = 0; i < 2048; ++i) v[i] = 1;
      v.TxEnd();
    }
    comm.Barrier();
    // Phase 2: read-only; both ranks read (replication kicks in).
    v.ChangePhase(core::CoherenceMode::kReadOnlyGlobal);
    comm.Barrier();
    {
      auto tx = v.SeqTxBegin(0, 2048, MM_READ_ONLY);
      long sum = 0;
      for (int x : tx) sum += x;
      v.TxEnd();
      EXPECT_EQ(sum, 2048);
    }
    comm.Barrier();
    // Phase 3: back to writable; rank 1 rewrites, then all re-read.
    v.ChangePhase(core::CoherenceMode::kWriteOnlyGlobal);
    comm.Barrier();
    if (ctx.rank() == 1) {
      auto tx = v.SeqTxBegin(0, 2048, MM_WRITE_ONLY);
      for (int i = 0; i < 2048; ++i) v[i] = 2;
      v.TxEnd();
    }
    comm.Barrier();
    v.ChangePhase(core::CoherenceMode::kReadOnlyGlobal);
    comm.Barrier();
    {
      auto tx = v.SeqTxBegin(0, 2048, MM_READ_ONLY);
      long sum = 0;
      for (int x : tx) sum += x;
      v.TxEnd();
      EXPECT_EQ(sum, 4096);  // stale replicas would give 2048
    }
  });
  ASSERT_TRUE(result.ok()) << result.error;
}

TEST_F(VectorTest, PrefetchReducesFaults) {
  Service svc(cluster_.get(), sopts_);
  std::uint64_t faults_with = 0, faults_without = 0;
  auto run = [&](bool prefetch, const std::string& key,
                 std::uint64_t* faults) {
    ServiceOptions so = sopts_;
    so.enable_prefetch = prefetch;
    auto cluster = sim::Cluster::PaperTestbed(1);
    Service s(cluster.get(), so);
    auto result = comm::RunRanks(*cluster, 1, 1, [&](comm::RankContext& ctx) {
      VectorOptions o = SmallPages();
      o.pcache_bytes = 8 * 4096;
      Vector<std::uint64_t> v(s, ctx, key, 20000, o);
      {  // materialize everything first
        auto tx = v.SeqTxBegin(0, 20000, MM_WRITE_ONLY);
        for (std::uint64_t i = 0; i < 20000; ++i) v[i] = i;
        v.TxEnd();
      }
      auto tx = v.SeqTxBegin(0, 20000, MM_READ_ONLY);
      std::uint64_t sum = 0;
      for (std::uint64_t x : tx) sum += x;
      v.TxEnd();
      EXPECT_EQ(sum, 20000ULL * 19999 / 2);
      *faults = v.faults();
    });
    ASSERT_TRUE(result.ok()) << result.error;
  };
  run(true, Key("posix", "pf_on.bin"), &faults_with);
  run(false, Key("posix", "pf_off.bin"), &faults_without);
  EXPECT_LT(faults_with, faults_without);
}

TEST_F(VectorTest, SpanScanAdoptsAPrefetchOnEveryMiss) {
  // Two ranks each scan their Pgas partition of a posix-backed vector
  // read-only, through an 8-page pcache, in spans of MaxSpanElems (half the
  // pcache). Each prefetch step refills the frames its evict pass frees, so
  // after the first chunk every pcache miss adopts a prefetch. The one
  // exception: rank 1's partition starts mid-page, so its chunks span one
  // page more than half the cache, and the second chunk's last page may be
  // a demand fault.
  constexpr std::uint64_t kN = 49 * kEpp;  // the partition boundary is mid-page
  const std::string path = WriteIota("scan.bin", kN);
  Service svc(cluster_.get(), sopts_);
  std::atomic<std::uint64_t> total{0};
  auto result = comm::RunRanks(*cluster_, 2, 1, [&](comm::RankContext& ctx) {
    VectorOptions o = SmallPages();
    o.pcache_bytes = 8 * 4096;
    Vector<std::uint64_t> v(svc, ctx, "posix://" + path, 0, o);
    ASSERT_EQ(v.size(), kN);
    v.Pgas(ctx.rank(), ctx.size());
    const std::uint64_t lo = v.local_off();
    const std::uint64_t hi = lo + v.local_size();
    const std::uint64_t chunk = v.MaxSpanElems();
    v.SeqTxBegin(lo, hi - lo, MM_READ_ONLY);
    std::uint64_t sum = 0;
    std::uint64_t faults_after_first = 0;
    for (std::uint64_t s = lo; s < hi; s += chunk) {
      const std::uint64_t e = std::min(hi, s + chunk);
      const std::uint64_t faults_before = v.faults();
      auto span = v.ReadSpan(s, e);
      for (std::uint64_t i = s; i < e; ++i) sum += span[i];
      if (s != lo) faults_after_first += v.faults() - faults_before;
    }
    v.TxEnd();
    total.fetch_add(sum);
    EXPECT_LE(faults_after_first, 1u) << "rank " << ctx.rank();
    EXPECT_GT(v.prefetches(), 0u);
  });
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(total.load(), kN * (kN - 1) / 2);
}

TEST_F(VectorTest, BackToBackScansTakeNoMoreFaultsOnTheSecondPass) {
  // One rank scans a 48-page posix-backed vector from mid-page 0 through
  // an 8-page pcache in MaxSpanElems spans, twice, one read-only
  // transaction per pass. The second pass starts with the pcache full of
  // the first pass's frames; its first prefetch step reclaims them for its
  // window, so after its first chunk it takes no more demand faults than
  // the first pass did.
  const std::uint64_t n = 48 * kEpp;
  const std::string path = WriteIota("passes.bin", n);
  Service svc(cluster_.get(), sopts_);
  auto result = comm::RunRanks(*cluster_, 1, 1, [&](comm::RankContext& ctx) {
    VectorOptions o = SmallPages();
    o.pcache_bytes = 8 * 4096;
    Vector<std::uint64_t> v(svc, ctx, "posix://" + path, 0, o);
    const std::uint64_t lo = kEpp / 2;
    const std::uint64_t chunk = v.MaxSpanElems();
    auto pass = [&] {
      v.SeqTxBegin(lo, n - lo, MM_READ_ONLY);
      std::uint64_t sum = 0;
      std::uint64_t faults_after_first = 0;
      for (std::uint64_t s = lo; s < n; s += chunk) {
        const std::uint64_t e = std::min(n, s + chunk);
        const std::uint64_t faults_before = v.faults();
        auto span = v.ReadSpan(s, e);
        for (std::uint64_t i = s; i < e; ++i) sum += span[i];
        if (s != lo) faults_after_first += v.faults() - faults_before;
      }
      v.TxEnd();
      EXPECT_EQ(sum, n * (n - 1) / 2 - lo * (lo - 1) / 2);
      return faults_after_first;
    };
    const std::uint64_t first = pass();
    const std::uint64_t second = pass();
    EXPECT_LE(second, first);
  });
  ASSERT_TRUE(result.ok()) << result.error;
}

TEST_F(VectorTest, StagedPagesAreReadNoEarlierThanTheyLanded) {
  // A read-only transaction on a posix-backed vector stages the scored
  // pages past its prefetch window in from the backend. A page it then
  // adopts from a prefetch, or faults, completes in virtual time no earlier
  // than its stage-ahead landed, and every page stages in exactly once.
  const std::uint64_t pages = 96;
  const std::uint64_t n = pages * kEpp;
  const std::string path = WriteIota("staged.bin", n);
  Service svc(cluster_.get(), sopts_);
  std::atomic<std::uint64_t> total{0};
  auto result = comm::RunRanks(*cluster_, 1, 1, [&](comm::RankContext& ctx) {
    VectorOptions o = SmallPages();
    o.pcache_bytes = 8 * 4096;
    // Score past a resident window too: next to its DRAM reads, a PFS page
    // would score below the default floor.
    o.min_score = 1e-9;
    Vector<std::uint64_t> v(svc, ctx, "posix://" + path, 0, o);
    v.Pgas(0, 1);  // every page stages in on this rank's node
    auto read_page = [&](std::uint64_t page) {
      const sim::SimTime ready = v.StagedReadyTime(page);
      auto span = v.ReadSpan(page * kEpp, (page + 1) * kEpp);
      std::uint64_t page_sum = 0;
      for (std::uint64_t i = page * kEpp; i < (page + 1) * kEpp; ++i) {
        page_sum += span[i];
      }
      EXPECT_GE(ctx.clock().now(), ready) << "page " << page;
      return page_sum;
    };
    // Pages 0-7 fault in. With the window 0-7 resident, a transaction over
    // [0, 9) stages page 8 in alone, and one over [8, 9) then prefetches it
    // as it lands.
    for (std::uint64_t page = 0; page < 8; ++page) read_page(page);
    v.SeqTxBegin(0, 9 * kEpp, MM_READ_ONLY);
    v.TxEnd();
    v.SeqTxBegin(8 * kEpp, kEpp, MM_READ_ONLY);
    v.TxEnd();
    const std::uint64_t faults = v.faults();
    EXPECT_GT(v.StagedReadyTime(8), ctx.clock().now());
    read_page(8);  // adopts the prefetch
    EXPECT_EQ(v.faults(), faults);
    // A transaction over [0, 10) stages page 9 in alone; still landing, it
    // is then read as a demand fault.
    v.SeqTxBegin(0, 10 * kEpp, MM_READ_ONLY);
    v.TxEnd();
    EXPECT_GT(v.StagedReadyTime(9), ctx.clock().now());
    read_page(9);
    EXPECT_EQ(v.faults(), faults + 1);
    // Every page once more: [0, 80) in a transaction, the rest outside.
    std::uint64_t sum = 0;
    v.SeqTxBegin(0, 80 * kEpp, MM_READ_ONLY);
    for (std::uint64_t page = 0; page < 80; ++page) sum += read_page(page);
    v.TxEnd();
    for (std::uint64_t page = 80; page < pages; ++page) sum += read_page(page);
    total.fetch_add(sum);
  });
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(total.load(), n * (n - 1) / 2);
  EXPECT_GT(Counter(svc, "mm.prefetch.staged_count"), 0u);
  EXPECT_EQ(Counter(svc, "mm.stager.read_bytes"), n * sizeof(std::uint64_t));
}

TEST_F(VectorTest, DestroyAndChangePhaseWaitForStageAheads) {
  // A transaction's first prefetch step stages pages ahead; ending the
  // transaction at once leaves those runs in flight. ChangePhase and
  // Destroy must neither hang on them nor let one land after the teardown.
  const std::uint64_t n = 96 * kEpp;
  const std::string path = WriteIota("inflight.bin", n);
  Service svc(cluster_.get(), sopts_);
  auto result = comm::RunRanks(*cluster_, 1, 1, [&](comm::RankContext& ctx) {
    VectorOptions o = SmallPages();
    o.pcache_bytes = 8 * 4096;
    o.mode = core::CoherenceMode::kReadOnlyGlobal;
    Vector<std::uint64_t> v(svc, ctx, "posix://" + path, 0, o);
    v.SeqTxBegin(0, n, MM_READ_ONLY);
    v.TxEnd();
    v.ChangePhase(core::CoherenceMode::kReadWriteGlobal);
    // A staged page reads back the backend's bytes under the new phase.
    EXPECT_EQ(v.Read(40 * kEpp + 3), 40 * kEpp + 3);
    v.SeqTxBegin(0, n, MM_READ_ONLY);
    v.TxEnd();
    v.Destroy();
  });
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_GT(Counter(svc, "mm.prefetch.staged_count"), 0u);
  EXPECT_EQ(svc.metadata().TotalBlobs(), 0u);
  EXPECT_EQ(svc.ScacheDramUsed(), 0u);
}

TEST_F(VectorTest, LargeDatasetSpillsToNvme) {
  // Dataset bigger than the DRAM grant: pages must overflow into NVMe and
  // still read back correctly.
  ServiceOptions so = sopts_;
  so.tier_grants = {{sim::TierKind::kDram, MEGABYTES(1)},
                    {sim::TierKind::kNvme, MEGABYTES(16)}};
  Service svc(cluster_.get(), so);
  auto result = comm::RunRanks(*cluster_, 1, 1, [&](comm::RankContext& ctx) {
    VectorOptions o = SmallPages();
    o.pcache_bytes = 16 * 4096;
    const std::uint64_t n = MEGABYTES(3) / sizeof(std::uint64_t);
    Vector<std::uint64_t> v(svc, ctx, Key("posix", "spill.bin"), n, o);
    auto tx = v.SeqTxBegin(0, n, MM_WRITE_ONLY);
    for (std::uint64_t i = 0; i < n; ++i) v[i] = ~i;
    v.TxEnd();
    // Something must have landed in NVMe.
    std::uint64_t nvme_used = 0;
    for (std::size_t node = 0; node < svc.num_nodes(); ++node) {
      auto& bm = svc.runtime(node).buffer();
      nvme_used += bm.tier(1).used();
    }
    EXPECT_GT(nvme_used, 0u);
    auto rtx = v.SeqTxBegin(0, n, MM_READ_ONLY);
    for (std::uint64_t i = 0; i < n; i += 997) {
      ASSERT_EQ(v[i], ~i) << i;
    }
    v.TxEnd();
  });
  ASSERT_TRUE(result.ok()) << result.error;
}

TEST_F(VectorTest, DroppedPageKeepsItsVersionSoAStaleFrameRevalidates) {
  // A clean primary is dropped by the loss rule. If it came back at
  // version 0, the next commit would publish v1 again, and a reader's
  // frame still holding the pre-drop v1 bytes would pass the version check
  // at its next transaction. Two ways back: a failed CRC check whose read
  // stages the page in, and a tier death that the next commit finds.
  for (const bool tier_death : {false, true}) {
    SCOPED_TRACE(tier_death ? "tier death, then a commit"
                            : "CRC mismatch, then a read");
    cluster_ = sim::Cluster::PaperTestbed(2);
    Service svc(cluster_.get(), sopts_);
    const std::string key = Key("posix", tier_death ? "tier.bin" : "crc.bin");
    auto result = comm::RunRanks(*cluster_, 2, 1, [&](comm::RankContext& ctx) {
      comm::Communicator comm(&ctx);
      VectorOptions o = SmallPages();
      o.mode = core::CoherenceMode::kReadWriteGlobal;
      Vector<std::uint64_t> v(svc, ctx, key, kEpp, o);
      if (ctx.rank() == 0) {
        auto tx = v.SeqTxBegin(0, kEpp, MM_WRITE_ONLY);
        for (std::uint64_t i = 0; i < kEpp; ++i) v[i] = 1;
        v.TxEnd();
        v.Flush();  // the primary is clean: its bytes are on the backend
      }
      comm.Barrier();
      if (ctx.rank() == 1) {
        // Caches the page at v1.
        auto tx = v.SeqTxBegin(0, kEpp, MM_READ_ONLY);
        EXPECT_EQ(v[0], 1u);
        v.TxEnd();
      }
      comm.Barrier();
      if (ctx.rank() == 0) {
        const storage::BlobId id{v.meta().vector_id, 0};
        sim::SimTime t = ctx.clock().now();
        auto entry = svc.metadata().Lookup(id, 0, t, nullptr);
        ASSERT_TRUE(entry.ok());
        ASSERT_EQ(entry->version, 1u);
        const std::size_t owner = entry->node;
        storage::BufferManager& bm = svc.runtime(owner).buffer();
        auto tier = bm.FindBlob(id);
        ASSERT_TRUE(tier.has_value());
        if (tier_death) {
          svc.fault_injector().FailTier(bm.tier(*tier).kind());
        } else {
          ASSERT_TRUE(bm.tier(*tier).CorruptBlob(id, 100).ok());
          // The owner's read drops the bad copy and stages the page in.
          ASSERT_TRUE(svc.ReadPage(v.meta(), 0, owner, t, &t).ok());
          auto restaged = svc.metadata().Lookup(id, 0, t, nullptr);
          ASSERT_TRUE(restaged.ok());
          EXPECT_EQ(restaged->version, 1u);
        }
        auto tx = v.SeqTxBegin(0, kEpp, MM_WRITE_ONLY);
        for (std::uint64_t i = 0; i < kEpp; ++i) v[i] = 2;
        v.TxEnd();
        auto committed = svc.metadata().Lookup(id, 0, t, nullptr);
        ASSERT_TRUE(committed.ok());
        EXPECT_EQ(committed->version, 2u);
      }
      comm.Barrier();
      if (ctx.rank() == 1) {
        auto tx = v.SeqTxBegin(0, kEpp, MM_READ_ONLY);
        EXPECT_EQ(v[0], 2u) << "a frame kept the pre-drop bytes";
        v.TxEnd();
      }
    });
    ASSERT_TRUE(result.ok()) << result.error;
  }
}

TEST_F(VectorTest, ElementSizeMismatchRejected) {
  Service svc(cluster_.get(), sopts_);
  auto result = comm::RunRanks(*cluster_, 1, 1, [&](comm::RankContext& ctx) {
    VectorOptions o = SmallPages();
    o.nonvolatile = false;
    Vector<int> a(svc, ctx, "typed", 128, o);
    EXPECT_THROW(Vector<double> b(svc, ctx, "typed", 128, o),
                 std::runtime_error);
  });
  ASSERT_TRUE(result.ok()) << result.error;
}

TEST_F(VectorTest, OutOfRangeAccessChecks) {
  Service svc(cluster_.get(), sopts_);
  auto result = comm::RunRanks(*cluster_, 1, 1, [&](comm::RankContext& ctx) {
    VectorOptions o = SmallPages();
    o.nonvolatile = false;
    Vector<int> v(svc, ctx, "oob", 100, o);
    EXPECT_THROW(v[100], std::logic_error);
  });
  ASSERT_TRUE(result.ok()) << result.error;
}

}  // namespace
}  // namespace mm
