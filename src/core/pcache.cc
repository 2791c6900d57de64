#include "mm/core/pcache.h"

#include <algorithm>
#include <utility>

namespace mm::core {

PageFrame* PCache::Insert(std::uint64_t page, std::vector<std::uint8_t> data,
                          std::vector<std::uint8_t>* recycled) {
  MM_CHECK(data.size() == page_bytes_);
  auto it = frames_.find(page);
  PageFrame* f;
  if (it != frames_.end()) {
    // Re-insert over an existing frame replaces it wholesale (same
    // semantics as a fresh fetch). A pinned frame cannot be replaced: a
    // Span still points into its bytes.
    f = it->second.get();
    MM_CHECK_MSG(f->pins == 0, "Insert over a pinned page");
  } else {
    std::unique_ptr<PageFrame> frame;
    if (!free_frames_.empty()) {
      frame = std::move(free_frames_.back());
      free_frames_.pop_back();
    } else {
      frame = std::make_unique<PageFrame>();
    }
    f = frame.get();
    f->page = page;
    frames_.emplace(page, std::move(frame));
  }
  f->data.swap(data);
  if (recycled != nullptr && !data.empty()) *recycled = std::move(data);
  f->dirty.Resize(elems_per_page_);
  f->dirty.Reset();
  f->version = 0;
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
  MM_CHECK_MSG(f->pins == 0, "Remove of a pinned page (live Span)");
  Unlist(f);
  // data/dirty stay intact for the owner (eviction ships dirty runs from
  // the retired frame); Insert re-initializes the frame when it is reused.
  f->page = ~0ULL;
  free_frames_.push_back(std::move(it->second));
  frames_.erase(it);
  return f;
}

void PCache::Pin(std::uint64_t page) {
  auto it = frames_.find(page);
  MM_CHECK_MSG(it != frames_.end(), "Pin of non-resident page");
  PageFrame* f = it->second.get();
  if (f->pins++ == 0) {
    Unlist(f);
    ++num_pinned_;
  }
}

void PCache::Unpin(std::uint64_t page) {
  auto it = frames_.find(page);
  MM_CHECK_MSG(it != frames_.end(), "Unpin of non-resident page");
  PageFrame* f = it->second.get();
  MM_CHECK_MSG(f->pins > 0, "Unpin without matching Pin");
  if (--f->pins == 0) {
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
      if (keep.count(f->page) == 0) victims.push_back(f->page);
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
    pages.push_back(f->page);
  }
  if (num_pinned_ > 0) {
    for (const auto& [page, frame] : frames_) {
      if (frame->pins > 0 && frame->dirty.Any()) {
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
  for (auto& [_, frame] : frames_) {
    frame->page = ~0ULL;
    frame->list = PageFrame::Residency::kNone;
    free_frames_.push_back(std::move(frame));
  }
  frames_.clear();
}

}  // namespace mm::core
