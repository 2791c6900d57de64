// Algorithm 1 unit tests against synthetic transactions and a recording
// callback harness.
#include "mm/core/prefetcher.h"

#include <gtest/gtest.h>

#include "mm/core/pcache.h"

#include <map>
#include <set>

namespace mm::core {
namespace {

constexpr std::size_t kES = 8, kEPP = 16;
constexpr std::uint64_t kPageBytes = kES * kEPP;  // 128

struct Harness {
  std::map<std::uint64_t, float> scores;
  std::set<std::uint64_t> evicted;
  std::vector<std::uint64_t> fetched;
  std::set<std::uint64_t> cached;
  std::set<std::uint64_t> pinned;  // cached pages a live span holds
  std::vector<std::uint64_t> reclaim_requests;
  std::map<std::uint64_t, float> staged;
  double per_page_cost = 1.0;

  PrefetcherOps Ops() {
    PrefetcherOps ops;
    ops.set_score = [this](std::uint64_t p, float s) { scores[p] = s; };
    ops.evict_page = [this](std::uint64_t p) {
      if (pinned.count(p) > 0) return false;
      evicted.insert(p);
      return cached.erase(p) > 0;
    };
    ops.fetch_ahead = [this](std::uint64_t p) {
      fetched.push_back(p);
      cached.insert(p);
    };
    ops.cached_or_pending = [this](std::uint64_t p) {
      return cached.count(p) > 0;
    };
    ops.est_read_seconds = [this](std::uint64_t, std::uint64_t) {
      return per_page_cost;
    };
    // Reclaims unpinned cached pages outside `keep`, lowest page first.
    ops.reclaim = [this](std::uint64_t frames,
                         const std::set<std::uint64_t>& keep) {
      reclaim_requests.push_back(frames);
      std::uint64_t freed = 0;
      for (auto it = cached.begin(); it != cached.end() && freed < frames;) {
        if (keep.count(*it) > 0 || pinned.count(*it) > 0) {
          ++it;
          continue;
        }
        evicted.insert(*it);
        it = cached.erase(it);
        ++freed;
      }
      return freed;
    };
    ops.stage_ahead = [this](std::uint64_t p, float s) { staged[p] = s; };
    return ops;
  }
};

PrefetchVecState State(std::uint64_t max_pages, std::uint64_t cur_pages) {
  return PrefetchVecState{max_pages * kPageBytes, cur_pages * kPageBytes,
                          kPageBytes};
}

/// A harness whose residency is a real PCache: reclaim takes
/// PCache::PickVictims and records the evicted pages in order.
struct CacheHarness : Harness {
  PCache cache{kPageBytes, kEPP, 4 * kPageBytes};
  std::vector<std::uint64_t> reclaimed;

  void Insert(std::initializer_list<std::uint64_t> pages) {
    for (std::uint64_t p : pages) {
      cache.Insert(p, std::vector<std::uint8_t>(kPageBytes));
    }
  }

  PrefetcherOps CacheOps() {
    PrefetcherOps ops = Ops();
    ops.cached_or_pending = [this](std::uint64_t p) {
      return cache.Contains(p) || cached.count(p) > 0;
    };
    ops.reclaim = [this](std::uint64_t frames,
                         const std::set<std::uint64_t>& keep) {
      reclaim_requests.push_back(frames);
      const std::vector<std::uint64_t> victims =
          cache.PickVictims(frames, keep);
      for (std::uint64_t p : victims) {
        cache.Remove(p);
        reclaimed.push_back(p);
      }
      return static_cast<std::uint64_t>(victims.size());
    };
    return ops;
  }
};

TEST(PrefetcherTest, EvictsTouchedPagesOutsideWindow) {
  // Sequential read of 10 pages; capacity 2 pages; 3 pages fully touched.
  SeqTx tx(MM_READ_ONLY, kES, kEPP, 0, 10 * kEPP);
  for (std::size_t i = 0; i < 3 * kEPP; ++i) tx.AdvanceTail();
  Harness h;
  h.cached = {0, 1, 2};
  Prefetcher::Step(State(2, 2), tx, 0.25, h.Ops());
  // Touched pages 0-2 are behind the tail and sequential never retouches.
  EXPECT_TRUE(h.evicted.count(0));
  EXPECT_TRUE(h.evicted.count(1));
  EXPECT_TRUE(h.evicted.count(2));
  EXPECT_FLOAT_EQ(h.scores[0], 0.0f);
  // Upcoming pages 3,4 (capacity window of 2 pages) score 1.
  EXPECT_FLOAT_EQ(h.scores[3], 1.0f);
  EXPECT_FLOAT_EQ(h.scores[4], 1.0f);
  // Head acknowledged.
  EXPECT_EQ(tx.head(), tx.tail());
}

TEST(PrefetcherTest, RefillsTheFramesItEvicts) {
  // A full 2-page cache with pages 0-2 touched: the evict pass frees their
  // frames, and the same step refills them with the next two pages instead
  // of leaving them empty until they are already being accessed.
  SeqTx tx(MM_READ_ONLY, kES, kEPP, 0, 10 * kEPP);
  for (std::size_t i = 0; i < 3 * kEPP; ++i) tx.AdvanceTail();
  Harness h;
  h.cached = {0, 1, 2};
  Prefetcher::Step(State(2, 2), tx, 0.25, h.Ops());
  EXPECT_EQ(h.evicted, (std::set<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(h.fetched, (std::vector<std::uint64_t>{3, 4}));
}

TEST(PrefetcherTest, PinnedPagesFreeNoFrames) {
  // A touched page the evict pass cannot drop (pinned by a live span) keeps
  // its frame, so the refill budget leaves room for it.
  SeqTx tx(MM_READ_ONLY, kES, kEPP, 0, 10 * kEPP);
  for (std::size_t i = 0; i < 2 * kEPP; ++i) tx.AdvanceTail();
  Harness h;
  h.cached = {0, 1};
  h.pinned = {1};
  Prefetcher::Step(State(2, 2), tx, 0.25, h.Ops());
  EXPECT_EQ(h.fetched, (std::vector<std::uint64_t>{2}));
}

TEST(PrefetcherTest, RandomTransactionsKeepPredictedRetouches) {
  // Random streams are reproducible: touched pages that reappear in the
  // predicted upcoming window survive; the rest are evicted.
  RandTx tx(MM_READ_ONLY, kES, kEPP, 0, 10 * kEPP, 100000, 5);
  for (int i = 0; i < 100; ++i) tx.AdvanceTail();
  Harness h;
  h.cached = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  Prefetcher::Step(State(4, 4), tx, 0.25, h.Ops());
  // The upcoming window (4 pages' worth of accesses over a 10-page range)
  // covers most pages; whatever was evicted must NOT be in the window.
  auto future = tx.GetPages(tx.tail(), 4 * kEPP);
  std::set<std::uint64_t> window;
  for (const auto& r : future) window.insert(r.page_idx);
  for (std::uint64_t page : h.evicted) {
    EXPECT_EQ(window.count(page), 0u) << page;
  }
}

TEST(PrefetcherTest, FetchesAheadIntoFreeSpace) {
  SeqTx tx(MM_READ_ONLY, kES, kEPP, 0, 20 * kEPP);
  Harness h;
  // 4-page budget, 1 page in use -> 3 pages fetched ahead (pages 0,1,2).
  Prefetcher::Step(State(4, 1), tx, 0.25, h.Ops());
  ASSERT_EQ(h.fetched.size(), 3u);
  EXPECT_EQ(h.fetched[0], 0u);
  EXPECT_EQ(h.fetched[1], 1u);
  EXPECT_EQ(h.fetched[2], 2u);
}

TEST(PrefetcherTest, SkipsAlreadyCachedPages) {
  SeqTx tx(MM_READ_ONLY, kES, kEPP, 0, 20 * kEPP);
  Harness h;
  h.cached = {0, 2};
  Prefetcher::Step(State(4, 1), tx, 0.25, h.Ops());
  // Only the uncached pages in the window are fetched.
  for (std::uint64_t p : h.fetched) {
    EXPECT_NE(p, 0u);
    EXPECT_NE(p, 2u);
  }
}

TEST(PrefetcherTest, ScoresDecreaseWithDistance) {
  SeqTx tx(MM_READ_ONLY, kES, kEPP, 0, 100 * kEPP);
  Harness h;
  Prefetcher::Step(State(4, 0), tx, 0.1, h.Ops());
  // Beyond the 4 fetched pages, scored pages decay with distance.
  ASSERT_TRUE(h.scores.count(4));
  ASSERT_TRUE(h.scores.count(5));
  EXPECT_GT(h.scores[4], h.scores[5]);
  if (h.scores.count(6)) {
    EXPECT_GT(h.scores[5], h.scores[6]);
  }
  // All extended scores respect the floor.
  for (auto& [page, score] : h.scores) {
    if (page >= 4) EXPECT_GT(score, 0.1f);
  }
}

TEST(PrefetcherTest, MinScoreBoundsLookahead) {
  SeqTx tx(MM_READ_ONLY, kES, kEPP, 0, 1000 * kEPP);
  Harness strict, loose;
  Prefetcher::Step(State(4, 0), tx, 0.8, strict.Ops());
  Prefetcher::Step(State(4, 0), tx, 0.1, loose.Ops());
  EXPECT_LT(strict.scores.size(), loose.scores.size());
}

TEST(PrefetcherTest, NoFreeSpaceFetchesNothing) {
  SeqTx tx(MM_READ_ONLY, kES, kEPP, 0, 20 * kEPP);
  Harness h;
  Prefetcher::Step(State(4, 4), tx, 0.25, h.Ops());
  EXPECT_TRUE(h.fetched.empty());
}

TEST(PrefetcherTest, LookaheadCapped) {
  // Tiny min_score must not enumerate the whole dataset.
  SeqTx tx(MM_READ_ONLY, kES, kEPP, 0, 100000 * kEPP);
  Harness h;
  Prefetcher::Step(State(2, 0), tx, 1e-12, h.Ops());
  EXPECT_LE(h.scores.size(), Prefetcher::kMaxScoredAhead + 2 + 2);
}

TEST(PrefetcherTest, StrideTransactionsFetchStridedPages) {
  // One element per page (stride = elems_per_page): window pages strided.
  StrideTx tx(MM_READ_ONLY, kES, kEPP, 0, kEPP * 2, 50);  // every 2nd page
  Harness h;
  Prefetcher::Step(State(3, 0), tx, 0.25, h.Ops());
  ASSERT_EQ(h.fetched.size(), 3u);
  EXPECT_EQ(h.fetched[0], 0u);
  EXPECT_EQ(h.fetched[1], 2u);
  EXPECT_EQ(h.fetched[2], 4u);
}

TEST(PrefetcherTest, MidTransactionWindowMovesWithTail) {
  SeqTx tx(MM_READ_ONLY, kES, kEPP, 0, 20 * kEPP);
  for (std::size_t i = 0; i < 5 * kEPP; ++i) tx.AdvanceTail();
  Harness h;
  Prefetcher::Step(State(3, 0), tx, 0.25, h.Ops());
  ASSERT_EQ(h.fetched.size(), 3u);
  EXPECT_EQ(h.fetched[0], 5u);  // window starts at the tail's page
}

TEST(PrefetcherTest, WindowOnResidentPagesFetchesOnePagePerFreeFrame) {
  // The window 0-3 starts on resident pages 0 and 1, with two frames free:
  // both free frames go to the window's uncached pages 2 and 3 (Algorithm
  // 1's literal N would spend them on pages 0 and 1 and fetch nothing).
  SeqTx tx(MM_READ_ONLY, kES, kEPP, 0, 20 * kEPP);
  Harness h;
  h.cached = {0, 1};
  Prefetcher::Step(State(4, 2), tx, 0.25, h.Ops());
  EXPECT_EQ(h.fetched, (std::vector<std::uint64_t>{2, 3}));
  EXPECT_TRUE(h.reclaim_requests.empty());
}

TEST(PrefetcherTest, ReclaimsLastTransactionsFramesLruFirst) {
  // A new transaction's first step, the cache full of frames outside its
  // window, least recently used first: 12, 10, 13, 11. The step reclaims
  // exactly the window's four uncached pages' worth, LRU-first, and never
  // the pinned frame 10.
  SeqTx tx(MM_READ_ONLY, kES, kEPP, 0, 20 * kEPP);
  CacheHarness h;
  h.Insert({10, 11, 12, 13});
  h.cache.Find(10);
  h.cache.Find(13);
  h.cache.Find(11);
  h.cache.Pin(10);
  Prefetcher::Step(State(4, 4), tx, 0.25, h.CacheOps());
  EXPECT_EQ(h.reclaim_requests, (std::vector<std::uint64_t>{4}));
  EXPECT_EQ(h.reclaimed, (std::vector<std::uint64_t>{12, 13, 11}));
  EXPECT_TRUE(h.cache.Contains(10));
  EXPECT_EQ(h.fetched, (std::vector<std::uint64_t>{0, 1, 2}));
  h.cache.Unpin(10);
}

TEST(PrefetcherTest, ReclaimKeepsTheWindowsResidentPages) {
  // Full cache, LRU order 1, 10, 2, 11; window 0-3 holds 1 and 2. Only the
  // two uncached window pages need frames, and they come from 10 and 11
  // although the window's own pages are older.
  SeqTx tx(MM_READ_ONLY, kES, kEPP, 0, 20 * kEPP);
  CacheHarness h;
  h.Insert({1, 10, 2, 11});
  Prefetcher::Step(State(4, 4), tx, 0.25, h.CacheOps());
  EXPECT_EQ(h.reclaim_requests, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(h.reclaimed, (std::vector<std::uint64_t>{10, 11}));
  EXPECT_EQ(h.fetched, (std::vector<std::uint64_t>{0, 3}));
}

TEST(PrefetcherTest, StagesAheadScoredUncachedPagesPastTheWindow) {
  // Window 0-3 (four free frames). Past it, pages 5 and 6 are already
  // cached or pending: they are scored but never offered for stage-ahead.
  SeqTx tx(MM_READ_ONLY, kES, kEPP, 0, 1000 * kEPP);
  {
    Harness h;
    h.cached = {5, 6};
    Prefetcher::Step(State(4, 0), tx, 0.5, h.Ops());
    // Scores 4/5, 4/6, 4/7 pass 0.5; 4/8 does not.
    EXPECT_EQ(h.staged.size(), 1u);
    ASSERT_TRUE(h.staged.count(4));
    EXPECT_FLOAT_EQ(h.staged[4], h.scores[4]);
    EXPECT_TRUE(h.scores.count(6));
    EXPECT_FALSE(h.scores.count(7));
  }
  {
    // A tiny MinScore: at most kMaxScoredAhead pages past the window.
    Harness h;
    h.cached = {5, 6};
    Prefetcher::Step(State(4, 0), tx, 1e-12, h.Ops());
    EXPECT_EQ(h.staged.size(), Prefetcher::kMaxScoredAhead - 2);
    for (const auto& [page, score] : h.staged) {
      EXPECT_GE(page, 4u);
      EXPECT_LT(page, 4 + Prefetcher::kMaxScoredAhead);
      EXPECT_FALSE(h.cached.count(page)) << page;
      EXPECT_GT(score, 1e-12f);
      EXPECT_FLOAT_EQ(score, h.scores[page]);
    }
  }
}

}  // namespace
}  // namespace mm::core
