#include "mm/core/pcache.h"

#include <algorithm>
#include <utility>

#include "mm/core/optimistic_guard.h"

namespace mm::core {

void PCache::ResizeIndex() {
  // 4x the frame budget keeps linear probing short; power-of-two for
  // mask-based wrap. Overflowing inserts go unindexed (readers fall back).
  std::uint64_t frames =
      page_bytes_ > 0 ? capacity_bytes_ / page_bytes_ : 0;
  std::size_t want = 16;
  while (want < 4 * frames) want <<= 1;
  if (want > index_.size()) index_ = std::vector<IndexSlot>(want);
}

void PCache::IndexPut(std::uint64_t page, PageFrame* frame) {
  const std::size_t n = index_.size();
  const std::size_t mask = n - 1;
  std::size_t slot = MixPage(page) & mask;
  for (std::size_t probe = 0; probe < n; ++probe) {
    IndexSlot& s = index_[slot];
    std::uint64_t p = s.page.load(std::memory_order_relaxed);
    if (p == kSlotEmpty || p == kSlotTombstone || p == page) {
      // Frame pointer first, then the page key (release): a reader that
      // sees the key also sees the pointer. Identity is re-checked under
      // the frame's seqlock anyway, so a stale pairing only costs a retry.
      s.frame.store(frame, std::memory_order_release);
      s.page.store(page, std::memory_order_release);
      return;
    }
    slot = (slot + 1) & mask;
  }
  // Table full (pinned spans pushed residency past the budget): the frame
  // simply stays unindexed; optimistic readers miss and fall back.
}

void PCache::IndexErase(std::uint64_t page) {
  const std::size_t n = index_.size();
  const std::size_t mask = n - 1;
  std::size_t slot = MixPage(page) & mask;
  for (std::size_t probe = 0; probe < n; ++probe) {
    IndexSlot& s = index_[slot];
    std::uint64_t p = s.page.load(std::memory_order_relaxed);
    if (p == kSlotEmpty) return;  // never indexed (overflow insert)
    if (p == page) {
      // Tombstone keeps probe chains intact; the frame pointer is left
      // for any in-flight reader (it will fail seqlock validation).
      s.page.store(kSlotTombstone, std::memory_order_release);
      return;
    }
    slot = (slot + 1) & mask;
  }
}

PageFrame* PCache::Insert(std::uint64_t page, std::vector<std::uint8_t> data,
                          std::vector<std::uint8_t>* recycled) {
  MM_CHECK(data.size() == page_bytes_);
  auto it = frames_.find(page);
  if (it != frames_.end()) {
    // Re-insert over an existing frame replaces it wholesale (same
    // semantics as a fresh fetch). A pinned frame cannot be replaced: a
    // Span still points into its bytes.
    PageFrame* old = it->second.get();
    MM_CHECK_MSG(old->pins.load(std::memory_order_relaxed) == 0,
                 "Insert over a pinned page");
    Unlist(old);
    {
      FrameWriteGuard wg(old);
      if (optimistic_readers_ && old->data.size() == data.size()) {
        // Published buffer is type-stable: copy (atomic stores) so a stale
        // reader never sees its memory freed; `data` goes back to the
        // caller below.
        OptimisticGuard::StoreBytes(*old, 0, data.data(), data.size());
      } else {
        old->data.swap(data);
        old->bytes.store(old->data.data(), std::memory_order_release);
      }
      old->dirty.Resize(elems_per_page_);
      old->dirty.Reset();
      old->version.store(0, std::memory_order_relaxed);
    }
    if (recycled != nullptr) *recycled = std::move(data);
    MoveToList(old, PageFrame::Residency::kClean);
    return old;
  }
  std::unique_ptr<PageFrame> frame;
  if (!free_frames_.empty()) {
    frame = std::move(free_frames_.back());
    free_frames_.pop_back();
  } else {
    frame = std::make_unique<PageFrame>();
    // Fresh frames start stable; enter a section so the init below is
    // bracketed exactly like a recycled (retired-odd) frame's re-init.
    frame->seq.Lock();
  }
  // The frame's seqlock is odd here — either left odd by Remove() or
  // locked just above — so a reader still holding its pointer cannot
  // validate while we re-target it.
  PageFrame* f = frame.get();
  if (optimistic_readers_ && f->data.size() == data.size()) {
    // Recycled frame whose buffer was already published: type-stable, so
    // copy in place (the latch is odd, a racing reader cannot validate)
    // and return the caller's own vector through *recycled.
    OptimisticGuard::StoreBytes(*f, 0, data.data(), data.size());
  } else {
    f->data.swap(data);
  }
  if (recycled != nullptr && !data.empty()) *recycled = std::move(data);
  f->bytes.store(f->data.data(), std::memory_order_release);
  f->dirty.Resize(elems_per_page_);
  f->dirty.Reset();
  f->version.store(0, std::memory_order_relaxed);
  f->pins.store(0, std::memory_order_relaxed);
  f->page.store(page, std::memory_order_relaxed);
  f->list = PageFrame::Residency::kNone;
  frames_.emplace(page, std::move(frame));
  IndexPut(page, f);
  f->seq.Unlock();  // publish: even again, new identity visible
  MoveToList(f, PageFrame::Residency::kClean);
  return f;
}

void PCache::MarkDirty(std::uint64_t page, std::size_t elem_lo,
                       std::size_t elem_hi) {
  auto it = frames_.find(page);
  MM_CHECK_MSG(it != frames_.end(), "MarkDirty on non-resident page");
  PageFrame* f = it->second.get();
  f->dirty.SetRange(elem_lo, elem_hi);
  if (f->list == PageFrame::Residency::kClean) {
    MoveToList(f, PageFrame::Residency::kDirty);
  }
}

void PCache::MarkClean(std::uint64_t page) {
  auto it = frames_.find(page);
  if (it == frames_.end()) return;
  PageFrame* f = it->second.get();
  f->dirty.Reset();
  if (f->list == PageFrame::Residency::kDirty) {
    MoveToList(f, PageFrame::Residency::kClean);
  }
  // Pinned frames stay unlisted; Unpin re-enlists by dirty state.
}

PageFrame* PCache::Remove(std::uint64_t page) {
  auto it = frames_.find(page);
  if (it == frames_.end()) return nullptr;
  PageFrame* f = it->second.get();
  MM_CHECK_MSG(f->pins.load(std::memory_order_relaxed) == 0,
               "Remove of a pinned page (live Span)");
  Unlist(f);
  // Retirement: flip the seqlock odd and LEAVE it odd — any optimistic
  // reader that raced this now fails validation. data/dirty stay intact
  // for the owner (eviction ships dirty runs from the retired frame);
  // Insert re-initializes and re-publishes when the frame is reused.
  f->seq.Lock();
  IndexErase(page);
  f->page.store(~0ULL, std::memory_order_relaxed);
  free_frames_.push_back(std::move(it->second));
  frames_.erase(it);
  return f;
}

void PCache::Pin(std::uint64_t page) {
  auto it = frames_.find(page);
  MM_CHECK_MSG(it != frames_.end(), "Pin of non-resident page");
  PageFrame* f = it->second.get();
  if (f->pins.fetch_add(1, std::memory_order_relaxed) == 0) {
    // Spans hand out raw pointers (plain loads/stores), which must never
    // overlap a validated optimistic read: hold the seqlock odd for the
    // whole pin so racing readers fail valid() and fall back.
    if (optimistic_readers_) f->seq.Lock();
    Unlist(f);
    ++num_pinned_;
  }
}

void PCache::Unpin(std::uint64_t page) {
  auto it = frames_.find(page);
  MM_CHECK_MSG(it != frames_.end(), "Unpin of non-resident page");
  PageFrame* f = it->second.get();
  MM_CHECK_MSG(f->pins.load(std::memory_order_relaxed) > 0,
               "Unpin without matching Pin");
  if (f->pins.fetch_sub(1, std::memory_order_relaxed) == 1) {
    if (optimistic_readers_) f->seq.Unlock();  // republish: pin held it odd
    --num_pinned_;
    MoveToList(f, f->dirty.Any() ? PageFrame::Residency::kDirty
                                 : PageFrame::Residency::kClean);
  }
}

std::vector<std::uint64_t> PCache::PickVictims(
    std::uint64_t n, const std::set<std::uint64_t>& keep) const {
  std::vector<std::uint64_t> victims;
  for (const std::list<PageFrame*>* lru : {&clean_lru_, &dirty_lru_}) {
    for (const PageFrame* f : *lru) {
      if (victims.size() == n) return victims;
      const std::uint64_t page = f->page.load(std::memory_order_relaxed);
      if (keep.count(page) == 0) victims.push_back(page);
    }
  }
  return victims;
}

std::vector<std::uint64_t> PCache::ResidentPages() const {
  std::vector<std::uint64_t> pages;
  pages.reserve(frames_.size());
  for (const auto& [page, _] : frames_) pages.push_back(page);
  return pages;
}

std::vector<std::uint64_t> PCache::DirtyPages() const {
  std::vector<std::uint64_t> pages;
  pages.reserve(dirty_lru_.size());
  for (const PageFrame* f : dirty_lru_) {
    pages.push_back(f->page.load(std::memory_order_relaxed));
  }
  if (num_pinned_ > 0) {
    for (const auto& [page, frame] : frames_) {
      if (frame->pins.load(std::memory_order_relaxed) > 0 &&
          frame->dirty.Any()) {
        pages.push_back(page);
      }
    }
  }
  return pages;
}

std::optional<PendingFetch> PCache::TakePending(std::uint64_t page) {
  auto it = pending_.find(page);
  if (it == pending_.end()) return std::nullopt;
  PendingFetch fetch = std::move(it->second);
  pending_.erase(it);
  return fetch;
}

void PCache::Clear() {
  MM_CHECK_MSG(num_pinned_ == 0, "Clear with live Spans (pinned frames)");
  // Nothing here would adopt a pending fetch's bytes.
  pending_.clear();
  clean_lru_.clear();
  dirty_lru_.clear();
  // Retire every frame (seqlock left odd, pointer parked on the free
  // list): a racing optimistic reader fails validation instead of touching
  // freed memory.
  for (auto& [page, frame] : frames_) {
    frame->seq.Lock();
    IndexErase(page);
    frame->page.store(~0ULL, std::memory_order_relaxed);
    free_frames_.push_back(std::move(frame));
  }
  frames_.clear();
}

}  // namespace mm::core
