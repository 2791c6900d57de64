#include "mm/core/prefetcher.h"

#include <algorithm>

namespace mm::core {

void Prefetcher::Step(const PrefetchVecState& vec, Transaction& tx,
                      double min_score, const PrefetcherOps& ops) {
  MM_CHECK(vec.page_bytes > 0);
  const std::uint64_t pages_capacity =
      std::max<std::uint64_t>(1, vec.max_bytes / vec.page_bytes);
  const std::size_t elems_per_page = tx.elems_per_page();

  // ---- EVICT (Algorithm 1 lines 6-15) ----
  // Pages that would be touched if the vector were empty: the next
  // Max/PageSize pages' worth of accesses.
  std::set<std::uint64_t> upcoming;
  for (const PageRegion& r :
       tx.GetFuturePages(pages_capacity * elems_per_page)) {
    upcoming.insert(r.page_idx);
    ops.set_score(r.page_idx, 1.0f);
  }
  // Touched pages absent from the predicted upcoming window score 0 and
  // are evicted. Random transactions are NOT exempt: their hash stream is
  // reproducible from the seed, so pages that WILL be retouched soon show
  // up in `upcoming` and survive (Algorithm 1's note that random scores
  // "may not be 0 if a page is expected to be retouched").
  std::uint64_t freed_bytes = 0;
  for (const PageRegion& r : tx.GetTouchedPages()) {
    if (upcoming.count(r.page_idx) > 0) continue;  // will be re-used
    ops.set_score(r.page_idx, 0.0f);
    if (ops.evict_page(r.page_idx)) {  // EvictIfZeroScore
      freed_bytes += vec.page_bytes;
    }
  }

  // ---- PREFETCH (Algorithm 1 lines 16-33) ----
  // Distinct future pages in access order: the first pages_capacity form
  // the window, the next kMaxScoredAhead at most are scored.
  std::vector<std::uint64_t> pages;
  std::set<std::uint64_t> seen;
  for (const PageRegion& r : tx.GetPages(
           tx.tail(), (pages_capacity + kMaxScoredAhead) * elems_per_page)) {
    if (seen.insert(r.page_idx).second) pages.push_back(r.page_idx);
  }
  const std::size_t window =
      std::min<std::size_t>(pages.size(), pages_capacity);
  std::vector<std::uint64_t> uncached;
  for (std::size_t i = 0; i < window; ++i) {
    if (!ops.cached_or_pending(pages[i])) uncached.push_back(pages[i]);
  }
  // N = (Max-Cur)/PageSize free frames, Cur as the evict phase left it, so
  // the frames just freed are refilled now, not one step later when their
  // pages are already being accessed. Frames the window needs beyond that
  // are reclaimed from pages it will not touch (see the header note).
  const std::uint64_t cur_bytes =
      vec.cur_bytes > freed_bytes ? vec.cur_bytes - freed_bytes : 0;
  std::uint64_t n_free =
      (vec.max_bytes > cur_bytes ? vec.max_bytes - cur_bytes : 0) /
      vec.page_bytes;
  if (uncached.size() > n_free) {
    n_free += ops.reclaim(uncached.size() - n_free, upcoming);
  }
  const std::size_t n_fetch = std::min<std::size_t>(uncached.size(), n_free);
  for (std::size_t i = 0; i < n_fetch; ++i) ops.fetch_ahead(uncached[i]);

  // Beyond the window: score by time-to-fault, BaseTime being the window's
  // reads (see the header note on the inverted ratio relative to the
  // paper's pseudocode).
  double base_time = 0.0;
  for (std::size_t i = 0; i < window; ++i) {
    base_time += ops.est_read_seconds(pages[i], vec.page_bytes);
  }
  double est_time = base_time;
  const std::size_t scored_end =
      std::min<std::size_t>(pages.size(), window + kMaxScoredAhead);
  for (std::size_t i = window; i < scored_end; ++i) {
    est_time += ops.est_read_seconds(pages[i], vec.page_bytes);
    double score =
        est_time > 0.0 ? std::max(1e-9, base_time) / est_time : 1.0;
    if (score <= min_score) break;
    ops.set_score(pages[i], static_cast<float>(score));
    if (ops.stage_ahead && !ops.cached_or_pending(pages[i])) {
      ops.stage_ahead(pages[i], static_cast<float>(score));
    }
  }

  // Acknowledge the accesses (Algorithm 1 line 4: Tx.Head = Tx.Tail).
  tx.set_head(tx.tail());
}

}  // namespace mm::core
