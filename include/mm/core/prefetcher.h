// The private-cache prefetcher — the paper's Algorithm 1, decoupled from
// mm::Vector through a callback interface so it can be unit-tested against
// synthetic transactions.
//
// Semantics (paper §III-D):
//   Evict phase:  pages touched in [Head, Tail) score 0 and are evicted —
//                 unless the transaction may retouch pages (random); pages
//                 in the upcoming window [Tail, Tail + Max/PageSize) score 1.
//   Prefetch:     the window is the first Max/PageSize distinct pages from
//                 the tail. Its uncached pages are fetched ahead
//                 asynchronously, one per free frame, counted after the
//                 evict phase so freed frames refill at once. When they
//                 outnumber the free frames, just the missing number of
//                 frames is reclaimed, LRU-first, from unpinned frames
//                 outside the upcoming window — the frames a finished
//                 transaction left behind.
//   Score:        pages past the window are scored by time-to-fault so the
//                 Data Organizer can pre-position them in fast tiers; the
//                 scored pages that are not cached or pending are offered
//                 for stage-ahead (the Organizer's placement of unplaced
//                 pages, Service::StageAhead).
//
// Deviation on the budget: Algorithm 1 takes the first N = (Max-Cur)/
// PageSize pages of the window and fetches those not yet cached, so a
// window that starts on resident pages fetches fewer pages than there are
// free frames — each step re-covers the current chunk instead of the next
// one. Here N counts free frames and is spent on uncached window pages.
//
// Note on the score formula: the paper's pseudocode computes
// Score = EstTime/BaseTime inside a `while Score > MinScore` loop, which
// diverges (the ratio grows past 1). The intended behaviour — scores
// decrease with distance-to-access so nearer pages win fast tiers — needs
// the inverted ratio, so we compute Score = BaseTime/EstTime and document
// the deviation here and in DESIGN.md.
#pragma once

#include <cstdint>
#include <functional>
#include <set>

#include "mm/core/transaction.h"

namespace mm::core {

/// Callbacks the prefetcher drives. All page arguments are page indices of
/// the vector the active transaction covers.
struct PrefetcherOps {
  /// Sends an importance score to the Data Organizer (async score task).
  std::function<void(std::uint64_t page, float score)> set_score;
  /// Evicts a page from the pcache (dirty data is flushed by the owner).
  /// Returns whether it did: a resident page pinned by a live span stays.
  std::function<bool(std::uint64_t page)> evict_page;
  /// Starts an asynchronous fetch of a page into the pcache.
  std::function<void(std::uint64_t page)> fetch_ahead;
  /// True when the page is resident or already being fetched.
  std::function<bool(std::uint64_t page)> cached_or_pending;
  /// Idle estimate of reading the page from its current tier (Algorithm 1
  /// line 21: Page.GetSize()/T.BW).
  std::function<double(std::uint64_t page, std::uint64_t bytes)> est_read_seconds;
  /// Evicts up to `frames` resident frames, least recently used first,
  /// skipping pinned frames and the pages in `keep`; returns how many it
  /// evicted.
  std::function<std::uint64_t(std::uint64_t frames,
                              const std::set<std::uint64_t>& keep)>
      reclaim;
  /// Optional: offers a scored page past the window, neither cached nor
  /// pending, for stage-ahead at `score`.
  std::function<void(std::uint64_t page, float score)> stage_ahead;
};

/// Capacity state of the vector's pcache (Vec.* in Algorithm 1).
struct PrefetchVecState {
  std::uint64_t max_bytes = 0;   // Vec.Max  (BoundMemory)
  std::uint64_t cur_bytes = 0;   // Vec.Cur  (committed pcache bytes)
  std::uint64_t page_bytes = 0;  // Vec.PageSize
};

class Prefetcher {
 public:
  /// Bounds the pages one step scores (and offers for stage-ahead) past the
  /// window, so a tiny MinScore cannot make it enumerate the whole dataset.
  static constexpr std::uint64_t kMaxScoredAhead = 64;

  /// One prefetcher invocation (Algorithm 1 PREFETCHER): evicts, fetches
  /// the window's uncached pages into free (or reclaimed) frames, scores
  /// and offers the pages past it, then acknowledges the accesses
  /// (Head = Tail).
  static void Step(const PrefetchVecState& vec, Transaction& tx,
                   double min_score, const PrefetcherOps& ops);
};

}  // namespace mm::core
