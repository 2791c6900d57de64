// Hot-path overhaul tests: pinned Span access under eviction pressure,
// span<->scalar write-visibility equivalence, and the page-buffer pool
// recycling runtime payloads.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>

#include "mm/core/memory_task.h"
#include "mm/mega_mmap.h"

namespace mm {
namespace {

using core::PagePool;
using core::PoolReturn;
using core::Service;
using core::ServiceOptions;
using core::VectorOptions;

class HotPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mm_hot_" + std::to_string(::getpid()) + "_" +
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

  std::string Key(const std::string& scheme, const std::string& name) {
    return scheme + "://" + (dir_ / name).string();
  }

  VectorOptions SmallPages() {
    VectorOptions o;
    o.page_size = 4096;
    o.pcache_bytes = 64 * kKiB;
    return o;
  }

  std::filesystem::path dir_;
  std::unique_ptr<sim::Cluster> cluster_;
  ServiceOptions sopts_;
};

// A live span's frames must survive a full eviction sweep: ~20 pages are
// scanned through a 4-page cache (with the prefetcher's eviction pass
// active) while the span pins the first page, and every raw pointer the
// span handed out must still read the original bytes.
TEST_F(HotPathTest, SpanPinsSurviveEvictionPressure) {
  Service svc(cluster_.get(), sopts_);
  auto result = comm::RunRanks(*cluster_, 1, 1, [&](comm::RankContext& ctx) {
    VectorOptions o = SmallPages();
    o.pcache_bytes = 4 * 4096;  // 4 frames for ~20 pages of data
    Vector<std::uint64_t> v(svc, ctx, Key("posix", "pin.bin"), 10000, o);
    {
      auto tx = v.SeqTxBegin(0, 10000, MM_WRITE_ONLY);
      for (std::uint64_t i = 0; i < 10000; ++i) v[i] = i * 7;
      v.TxEnd();
    }
    const std::uint64_t epp = v.elems_per_page();
    {
      auto span = v.ReadSpan(0, epp);
      EXPECT_TRUE(v.pcache().IsPinned(0));
      // Sweep the whole vector under a read transaction: the prefetcher
      // runs its eviction pass at every page boundary and must skip the
      // pinned frame.
      auto tx = v.SeqTxBegin(0, 10000, MM_READ_ONLY);
      std::uint64_t sum = 0;
      for (std::uint64_t i = 0; i < 10000; ++i) sum += v.Read(i);
      EXPECT_EQ(sum, 7ull * (10000ull * 9999ull / 2));
      EXPECT_GT(v.evictions(), 0u);
      EXPECT_LE(v.pcache().used(), o.pcache_bytes + v.page_bytes());
      // The pinned window still reads the original bytes through the
      // pointers resolved at span construction.
      for (std::uint64_t i = 0; i < epp; ++i) {
        ASSERT_EQ(span[i], i * 7) << "element " << i;
      }
      v.TxEnd();
    }
    EXPECT_FALSE(v.pcache().IsPinned(0));
    EXPECT_EQ(v.pcache().num_pinned(), 0u);
  });
  ASSERT_TRUE(result.ok()) << result.error;
}

// Writes made through a WriteSpan and through the scalar path must be
// mutually visible and identically durable, including when the pcache is
// small enough that span-dirtied pages are evicted and committed along the
// way.
TEST_F(HotPathTest, SpanScalarWriteVisibilityEquivalence) {
  Service svc(cluster_.get(), sopts_);
  auto result = comm::RunRanks(*cluster_, 1, 1, [&](comm::RankContext& ctx) {
    constexpr std::uint64_t kN = 8192;
    VectorOptions o = SmallPages();
    o.pcache_bytes = 4 * 4096;
    Vector<std::uint64_t> v(svc, ctx, Key("posix", "wrvis.bin"), kN, o);
    {
      auto tx = v.SeqTxBegin(0, kN, MM_WRITE_ONLY);
      const std::uint64_t chunk = v.MaxSpanElems();
      // First half through spans, second half through the scalar path.
      for (std::uint64_t s = 0; s < kN / 2; s += chunk) {
        std::uint64_t e = std::min<std::uint64_t>(kN / 2, s + chunk);
        auto span = v.WriteSpan(s, e);
        for (std::uint64_t i = s; i < e; ++i) span[i] = i * 11;
      }
      for (std::uint64_t i = kN / 2; i < kN; ++i) v[i] = i * 11;
      v.TxEnd();
    }
    // Read everything back through the opposite path.
    {
      auto tx = v.SeqTxBegin(0, kN, MM_READ_ONLY);
      for (std::uint64_t i = 0; i < kN / 2; ++i) {
        ASSERT_EQ(v.Read(i), i * 11) << "scalar read of span write " << i;
      }
      const std::uint64_t chunk = v.MaxSpanElems();
      for (std::uint64_t s = kN / 2; s < kN; s += chunk) {
        std::uint64_t e = std::min<std::uint64_t>(kN, s + chunk);
        auto span = v.ReadSpan(s, e);
        for (std::uint64_t i = s; i < e; ++i) {
          ASSERT_EQ(span[i], i * 11) << "span read of scalar write " << i;
        }
      }
      v.TxEnd();
    }
    // Scalar overwrite of a span-written element is seen by a later span.
    v.Set(3, 99);
    v.Commit();
    {
      auto span = v.ReadSpan(0, 8);
      EXPECT_EQ(span[3], 99u);
      EXPECT_EQ(span[4], 44u);
    }
  });
  ASSERT_TRUE(result.ok()) << result.error;
}

// Mixed span/scalar writes must survive a full flush + reopen (the
// per-page dirty ranges recorded by WriteSpan drive the same commit
// machinery as per-element dirty bits).
TEST_F(HotPathTest, SpanWritesAreDurableAcrossReopen) {
  Service svc(cluster_.get(), sopts_);
  auto result = comm::RunRanks(*cluster_, 1, 1, [&](comm::RankContext& ctx) {
    constexpr std::uint64_t kN = 4096;
    const std::string key = Key("posix", "durable.bin");
    {
      Vector<std::uint64_t> v(svc, ctx, key, kN, SmallPages());
      {
        auto span = v.WriteSpan(0, kN);
        for (std::uint64_t i = 0; i < kN; ++i) span[i] = i + 1;
      }
      // Span destroyed (frames unpinned); stage to the backend and drop
      // the shared object so the reopen must read staged bytes.
      v.Flush();
      v.Destroy(/*remove_backend=*/false);
    }
    {
      Vector<std::uint64_t> v(svc, ctx, key, kN, SmallPages());
      auto span = v.ReadSpan(0, kN);
      for (std::uint64_t i = 0; i < kN; ++i) {
        ASSERT_EQ(span[i], i + 1) << "element " << i;
      }
    }
  });
  ASSERT_TRUE(result.ok()) << result.error;
}

TEST(PagePoolTest, ReusesReturnedBuffers) {
  PagePool pool;
  std::vector<std::uint8_t> a = pool.Acquire(4096);
  EXPECT_EQ(a.size(), 4096u);
  EXPECT_EQ(pool.allocations(), 1u);
  EXPECT_EQ(pool.reuses(), 0u);
  const std::uint8_t* ptr = a.data();
  pool.Release(std::move(a));
  EXPECT_EQ(pool.pooled_bytes(), 4096u);
  std::vector<std::uint8_t> b = pool.Acquire(4096);
  EXPECT_EQ(b.data(), ptr);  // same buffer came back
  EXPECT_EQ(b.size(), 4096u);
  EXPECT_EQ(pool.allocations(), 1u);
  EXPECT_EQ(pool.reuses(), 1u);
  // A different size misses the bucket and allocates fresh.
  std::vector<std::uint8_t> c = pool.Acquire(128);
  EXPECT_EQ(pool.allocations(), 2u);
}

TEST(PagePoolTest, AcquireZeroedScrubsRecycledBytes) {
  PagePool pool;
  std::vector<std::uint8_t> a = pool.Acquire(256);
  std::fill(a.begin(), a.end(), 0xAB);
  pool.Release(std::move(a));
  std::vector<std::uint8_t> b = pool.AcquireZeroed(256);
  ASSERT_EQ(pool.reuses(), 1u);  // really the recycled buffer
  for (std::uint8_t byte : b) ASSERT_EQ(byte, 0u);
}

TEST(PagePoolTest, CapDropsExcessBuffers) {
  PagePool pool(/*max_bytes=*/4096);
  std::vector<std::uint8_t> a = pool.Acquire(4096);
  std::vector<std::uint8_t> b = pool.Acquire(4096);
  pool.Release(std::move(a));
  pool.Release(std::move(b));  // over the cap: freed, not pooled
  EXPECT_EQ(pool.pooled_bytes(), 4096u);
}

TEST(PagePoolTest, PoolReturnGuardReturnsOnError) {
  PagePool pool;
  try {
    std::vector<std::uint8_t> buf = pool.Acquire(128);
    PoolReturn guard(pool, buf);
    throw std::runtime_error("task failed");
  } catch (const std::runtime_error&) {
  }
  // The error path still returned the buffer to the pool.
  EXPECT_EQ(pool.pooled_bytes(), 128u);
}

TEST(PagePoolTest, PoolReturnSkipsMovedFromBuffers) {
  PagePool pool;
  std::vector<std::uint8_t> taken;
  {
    std::vector<std::uint8_t> buf = pool.Acquire(128);
    PoolReturn guard(pool, buf);
    taken = std::move(buf);  // success path: payload moves to the caller
  }
  EXPECT_EQ(taken.size(), 128u);
  // The guard saw a moved-from (zero-capacity) vector and returned nothing.
  EXPECT_EQ(pool.pooled_bytes(), 0u);
}

}  // namespace
}  // namespace mm
