#include "mm/core/prefetcher.h"

#include <algorithm>
#include <set>

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
  // Cur as the evict phase left it: the frames just freed are refilled now,
  // not one step later when their pages are already being accessed.
  const std::uint64_t cur_bytes =
      vec.cur_bytes > freed_bytes ? vec.cur_bytes - freed_bytes : 0;
  std::uint64_t free_bytes =
      vec.max_bytes > cur_bytes ? vec.max_bytes - cur_bytes : 0;
  std::uint64_t n_fit = free_bytes / vec.page_bytes;  // N = (Max-Cur)/PageSize

  // Enumerate distinct future pages in access order; the first n_fit get
  // fetched ahead, the rest get decreasing scores until MinScore.
  std::vector<PageRegion> window = tx.GetPages(
      tx.tail(), (n_fit + kMaxScoredAhead) * elems_per_page);
  std::set<std::uint64_t> seen;
  double base_time = 0.0;
  double est_time = 0.0;
  std::uint64_t distinct = 0;
  for (const PageRegion& r : window) {
    if (!seen.insert(r.page_idx).second) continue;
    ++distinct;
    double cost = ops.est_read_seconds(r.page_idx, vec.page_bytes);
    if (distinct <= n_fit) {
      // Fits in the pcache now: fetch it asynchronously.
      base_time += cost;  // BaseTime accumulates the in-window reads
      if (!ops.cached_or_pending(r.page_idx)) {
        ops.fetch_ahead(r.page_idx);
      }
      est_time = base_time;
      continue;
    }
    // Beyond the window: score by time-to-fault (see header note on the
    // inverted ratio relative to the paper's pseudocode).
    est_time += cost;
    double score =
        est_time > 0.0 ? std::max(1e-9, base_time) / est_time : 1.0;
    if (score <= min_score) break;
    ops.set_score(r.page_idx, static_cast<float>(score));
  }

  // Acknowledge the accesses (Algorithm 1 line 4: Tx.Head = Tx.Tail).
  tx.set_head(tx.tail());
}

}  // namespace mm::core
