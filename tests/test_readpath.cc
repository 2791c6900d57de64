// Optimistic read-path stress (DESIGN.md §14), built to run under TSan:
// lock-free readers race the owner thread's insertions, evictions
// (retirement), recycling, and guarded writes. A validated read must NEVER
// be torn — pages are filled with a uniform byte so any mix of two
// versions is detectable — and retries must stay bounded per attempt.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mm/comm/communicator.h"
#include "mm/comm/launch.h"
#include "mm/core/optimistic_guard.h"
#include "mm/core/pcache.h"
#include "mm/core/service.h"
#include "mm/core/vector.h"
#include "mm/mega_mmap.h"
#include "mm/util/hash.h"

namespace mm::core {
namespace {

constexpr std::uint64_t kPageBytes = 256, kEPP = 32;

std::uint8_t FillOf(std::uint64_t page, std::uint64_t gen) {
  return static_cast<std::uint8_t>(MixU64(page * 1315423911ULL + gen) | 1);
}

std::vector<std::uint8_t> Page(std::uint8_t fill) {
  return std::vector<std::uint8_t>(kPageBytes, fill);
}

// Readers vs. the owner's insert/evict/recycle churn: every frame a reader
// can reach is constantly being retired and re-targeted, and every
// validated read must still be byte-uniform.
TEST(ReadpathStressTest, ReadersVsEvictionAndRecycle) {
  PCache pc(kPageBytes, kEPP, 8 * kPageBytes, /*optimistic_readers=*/true);
  constexpr std::uint64_t kPages = 32;
  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> hits{0}, retries{0}, torn{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t rng = 0x9e3779b97f4a7c15ULL * (r + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        rng = MixU64(rng);
        const std::uint64_t page = rng % kPages;
        for (int attempt = 0; attempt < 3; ++attempt) {
          const PageFrame* f = pc.PeekFrame(page);
          if (f == nullptr) break;
          OptimisticGuard g(*f);
          if (!g.valid() || g.page() != page) {
            retries.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          std::uint8_t buf[kPageBytes];
          g.ReadBytes(0, buf, kPageBytes);
          if (!g.Validate()) {
            retries.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          hits.fetch_add(1, std::memory_order_relaxed);
          for (std::uint64_t i = 1; i < kPageBytes; ++i) {
            if (buf[i] != buf[0]) {
              torn.fetch_add(1, std::memory_order_relaxed);
              break;
            }
          }
          break;
        }
      }
    });
  }

  // Owner: churn pages through the 8-frame cache — every insert past
  // capacity retires a victim, parks it on the free list, and recycles it
  // on the next insert, exactly the eviction/writeback life cycle. Churns
  // until the readers have real validated hits (bounded; yields so single
  // core machines still schedule the readers).
  std::uint64_t gen = 0;
  for (std::uint64_t round = 0;
       round < 2000 ||
       (hits.load(std::memory_order_relaxed) < 500 && round < 5000000);
       ++round) {
    if (round % 1024 == 0) std::this_thread::yield();
    const std::uint64_t page = MixU64(round) % kPages;
    if (pc.Contains(page)) {
      pc.Remove(page);
    } else {
      while (pc.NeedsEviction()) {
        auto victim = pc.PickVictim();
        ASSERT_TRUE(victim.has_value());
        pc.Remove(*victim);
      }
      std::vector<std::uint8_t> displaced;
      pc.Insert(page, Page(FillOf(page, ++gen)), &displaced);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u) << "a validated optimistic read was torn";
  EXPECT_GT(hits.load(), 0u);
}

// Readers vs. a guarded writer rewriting whole pages in place (the
// coherence-invalidation + refill pattern): reads overlapping the write
// section must fail validation, and validated reads must be uniform.
TEST(ReadpathStressTest, ReadersVsGuardedWrites) {
  PCache pc(kPageBytes, kEPP, 8 * kPageBytes, /*optimistic_readers=*/true);
  PageFrame* frame = pc.Insert(0, Page(FillOf(0, 0)));
  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> hits{0}, torn{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        OptimisticGuard g(*frame);
        if (!g.valid()) continue;
        std::uint8_t buf[kPageBytes];
        g.ReadBytes(0, buf, kPageBytes);
        if (!g.Validate()) continue;
        hits.fetch_add(1, std::memory_order_relaxed);
        for (std::uint64_t i = 1; i < kPageBytes; ++i) {
          if (buf[i] != buf[0]) {
            torn.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
  }

  // Write until the readers have validated reads to prove torn-free (the
  // yield opens stable windows between write sections; bounded).
  std::vector<std::uint8_t> scratch(kPageBytes);
  for (std::uint64_t gen = 1;
       gen <= 4000 ||
       (hits.load(std::memory_order_relaxed) < 500 && gen < 2000000);
       ++gen) {
    if (gen % 64 == 0) std::this_thread::yield();
    std::memset(scratch.data(), FillOf(0, gen), kPageBytes);
    FrameWriteGuard wg(frame);
    OptimisticGuard::StoreBytes(*frame, 0, scratch.data(), kPageBytes);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u) << "a validated read overlapped a write";
  EXPECT_GT(hits.load(), 0u);
}

// End-to-end: raw reader threads use Vector::TryReadOptimistic against the
// owning rank's live Set() churn (optimistic_readers on). Elements are
// written as self-consistent pairs, so a torn element is detectable.
TEST(ReadpathStressTest, VectorTryReadOptimisticVsOwnerWrites) {
  struct Pair {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
  };
  auto cluster = sim::Cluster::PaperTestbed(1);
  core::ServiceOptions so;
  so.tier_grants = {{sim::TierKind::kDram, MEGABYTES(8)},
                    {sim::TierKind::kNvme, MEGABYTES(32)}};
  core::Service svc(cluster.get(), so);
  std::atomic<std::uint64_t> mismatches{0}, fast_hits{0}, total_retries{0};
  auto run = comm::RunRanks(*cluster, 1, 1, [&](comm::RankContext& ctx) {
    core::VectorOptions vo;
    vo.nonvolatile = false;
    vo.page_size = 1024;
    vo.pcache_bytes = 8 * 1024;
    vo.optimistic_readers = true;
    constexpr std::uint64_t kElems = 512;
    Vector<Pair> vec(svc, ctx, "readpath_pairs", kElems, vo);
    for (std::uint64_t i = 0; i < kElems; ++i) {
      vec.Set(i, Pair{i, ~i});
    }
    vec.Commit();

    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int r = 0; r < 4; ++r) {
      readers.emplace_back([&, r] {
        std::uint64_t rng = MixU64(r + 1);
        while (!stop.load(std::memory_order_relaxed)) {
          rng = MixU64(rng);
          const std::uint64_t i = rng % kElems;
          Pair p;
          int retries = 0;
          if (vec.TryReadOptimistic(i, &p, &retries)) {
            fast_hits.fetch_add(1, std::memory_order_relaxed);
            // Every committed value is (a, ~a) with a ≡ i mod kElems.
            if (p.b != ~p.a || p.a % kElems != i) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
          total_retries.fetch_add(retries, std::memory_order_relaxed);
        }
      });
    }
    // Owner keeps overwriting (and evicting: the bound holds 8 of 64
    // pages) until the readers have real fast-path hits (bounded; the
    // yield lets oversubscribed machines schedule the readers).
    for (std::uint64_t round = 1;
         round <= 40 ||
         (fast_hits.load(std::memory_order_relaxed) < 200 && round < 20000);
         ++round) {
      std::this_thread::yield();
      for (std::uint64_t i = 0; i < kElems; ++i) {
        const std::uint64_t v = i + round * kElems;
        vec.Set(i, Pair{v, ~v});
      }
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& t : readers) t.join();
  });
  ASSERT_TRUE(run.ok()) << run.error;
  EXPECT_EQ(mismatches.load(), 0u) << "validated optimistic element was torn";
  EXPECT_GT(fast_hits.load(), 0u);
  // Bounded retries: attempts cap at 3 probes, so retries can never grow
  // faster than a small multiple of successful reads under this load.
  EXPECT_LT(total_retries.load(), (fast_hits.load() + 1) * 10);
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
    }
    comm.Barrier();
  });
  ASSERT_TRUE(run.ok()) << run.error;
}

}  // namespace
}  // namespace mm::core
