// Private cache (pcache): the per-process DRAM page cache in front of the
// shared cache (paper §III-B "Distributed Heterogeneous Caching Structure").
// Copy-on-write: frames track element-granular dirty bits so evictions and
// TxEnd ship only the modified fragments. Capacity is the vector's
// BoundMemory limit (Vec.Max in Algorithm 1).
//
// Eviction is O(1): frames live on intrusive clean/dirty LRU lists kept up
// to date by Find/Insert/MarkDirty, so PickVictim is a list-front read, not
// a scan over all resident frames. Pinned frames (span access) are removed
// from both lists entirely and can never be chosen as victims.
//
// Concurrency contract (DESIGN.md §10): PCache has ONE owner — the rank
// thread whose Vector holds it — and no other thread ever reads a frame.
// Every call is owner-only and unlocked: Find/Touch/PickVictim are on the
// DESIGN.md §7 hot path and must stay lock- and check-free (lint rule
// MML004). Do not add a "just in case" mutex here.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "mm/core/memory_task.h"
#include "mm/util/bitmap.h"
#include "mm/util/status.h"

namespace mm::core {

/// One cached page. The LRU bookkeeping fields are managed exclusively by
/// PCache; users touch `data`, `dirty` and `version`. Every field is
/// owner-only. PageFrame is neither movable nor copyable: PCache owns
/// frames behind stable unique_ptrs and recycles retired ones through a
/// free list, so a pointer Remove() hands back stays valid until the next
/// Insert.
struct PageFrame {
  std::vector<std::uint8_t> data;
  Bitmap dirty;  // one bit per element
  /// Write-version of the scache page this frame was loaded from (or last
  /// committed to). Compared against metadata at TxBegin.
  std::uint64_t version = 0;
  /// Page number this frame currently holds (~0 while retired/uninserted).
  std::uint64_t page = ~0ULL;
  /// Pin count (span access).
  std::uint32_t pins = 0;

  // ---- intrusive LRU state (managed by PCache) ----
  enum class Residency : std::uint8_t { kNone, kClean, kDirty };
  Residency list = Residency::kNone;
  std::list<PageFrame*>::iterator lru_it{};

  PageFrame() = default;
  PageFrame(const PageFrame&) = delete;
  PageFrame& operator=(const PageFrame&) = delete;
};

/// A prefetched page not yet adopted by a demand access: the fetch has
/// run, but in virtual time it lands at `outcome.done`.
struct PendingFetch {
  TaskOutcome outcome;
  std::size_t owner = 0;
};

/// One PCache per (rank, vector); owner-thread-only (see the header
/// comment).
class PCache {
 public:
  PCache(std::uint64_t page_bytes, std::uint64_t elems_per_page,
         std::uint64_t capacity_bytes)
      : page_bytes_(page_bytes),
        elems_per_page_(elems_per_page),
        capacity_bytes_(capacity_bytes) {}

  std::uint64_t page_bytes() const { return page_bytes_; }
  std::uint64_t capacity() const { return capacity_bytes_; }
  void set_capacity(std::uint64_t bytes) { capacity_bytes_ = bytes; }
  std::uint64_t used() const { return frames_.size() * page_bytes_; }
  std::size_t num_frames() const { return frames_.size(); }

  /// Resident frame for a page, or nullptr. Moves the frame to the MRU end
  /// of its LRU list. Owner-only (LRU mutation).
  PageFrame* Find(std::uint64_t page) {
    auto it = frames_.find(page);
    if (it == frames_.end()) return nullptr;
    Touch(it->second.get());
    return it->second.get();
  }

  /// True when inserting one more page would exceed capacity. Counts
  /// in-flight prefetches (committed), so prefetching cannot overshoot the
  /// BoundMemory cap while fetches are outstanding.
  bool NeedsEviction() const {
    return committed() + page_bytes_ > capacity_bytes_ && !frames_.empty();
  }

  /// Inserts a fetched page (caller must have made room). The data must be
  /// exactly page_bytes long. The new frame enters the clean LRU list.
  /// Frames are recycled from the retired free list; the recycled frame's
  /// displaced buffer, if it still has one, is handed back through
  /// *recycled (if non-null) to keep the zero-alloc loop of DESIGN.md §7
  /// closed.
  PageFrame* Insert(std::uint64_t page, std::vector<std::uint8_t> data,
                    std::vector<std::uint8_t>* recycled = nullptr);

  /// Marks elements [elem_lo, elem_hi) of a page dirty (span write path:
  /// one call per page instead of one bit per element).
  void MarkDirty(std::uint64_t page, std::size_t elem_lo, std::size_t elem_hi);

  /// Scalar write fast path: dirties one element of an already-found frame
  /// without a second hash lookup.
  void MarkElemDirty(PageFrame* frame, std::size_t elem) {
    frame->dirty.Set(elem);
    if (frame->list == PageFrame::Residency::kClean) {
      MoveToList(frame, PageFrame::Residency::kDirty);
    }
  }

  /// Resets a page's dirty bits after its runs were shipped; the frame
  /// moves back to the clean LRU list (no-op on absent pages).
  void MarkClean(std::uint64_t page);

  /// Least-recently-used resident page (clean pages preferred, dirty LRU
  /// as fallback), or nullopt when nothing evictable remains. O(1): reads
  /// the front of the LRU lists. Pinned frames are never returned.
  std::optional<std::uint64_t> PickVictim() const {
    if (!clean_lru_.empty()) {
      return clean_lru_.front()->page;
    }
    if (!dirty_lru_.empty()) {
      return dirty_lru_.front()->page;
    }
    return std::nullopt;
  }

  /// Up to `n` victims in PickVictim's order (clean LRU, then dirty LRU),
  /// skipping the pages in `keep`. Pinned frames are never returned.
  std::vector<std::uint64_t> PickVictims(
      std::uint64_t n, const std::set<std::uint64_t>& keep) const;

  /// Retires a frame (eviction/flush/invalidation). Refuses (via MM_CHECK)
  /// to remove a pinned frame: a live Span still points into it. The
  /// returned frame stays owned by the cache's free list with its data and
  /// dirty bits intact — valid for the owner to read (e.g. to ship dirty
  /// runs) until the next Insert reuses it. Returns nullptr when the page is not resident.
  PageFrame* Remove(std::uint64_t page);

  // ---- pinning (span access) ----

  /// Pins a resident page: it leaves the LRU lists and cannot be evicted
  /// until every pin is released. Pins nest.
  void Pin(std::uint64_t page);
  void Unpin(std::uint64_t page);
  bool IsPinned(std::uint64_t page) const {
    auto it = frames_.find(page);
    return it != frames_.end() && it->second->pins > 0;
  }
  std::size_t num_pinned() const { return num_pinned_; }

  /// Pages currently resident (snapshot, unspecified order).
  std::vector<std::uint64_t> ResidentPages() const;

  /// Pages with at least one dirty element (dirty-LRU order, then pinned).
  std::vector<std::uint64_t> DirtyPages() const;

  bool Contains(std::uint64_t page) const {
    return frames_.count(page) > 0;
  }

  // ---- async prefetch bookkeeping ----
  bool HasPending(std::uint64_t page) const {
    return pending_.count(page) > 0;
  }
  void AddPending(std::uint64_t page, PendingFetch fetch) {
    pending_.emplace(page, std::move(fetch));
  }
  std::optional<PendingFetch> TakePending(std::uint64_t page);
  std::size_t num_pending() const { return pending_.size(); }
  /// Drops every pending fetch (as in Clear); resident frames stay. Used
  /// at phase changes: a pending prefetch was routed and versioned under
  /// the old phase's coherence rules, so adopting it later could resurrect
  /// an invalidated replica's data.
  void DropPendings() { pending_.clear(); }
  /// Prefetches in flight also count against the capacity budget.
  std::uint64_t committed() const {
    return used() + pending_.size() * page_bytes_;
  }

  /// Retires all frames to the free list and drops pending fetches
  /// unadopted (used on Destroy, where the fetched bytes are moot).
  void Clear();

 private:
  /// Moves a frame to the MRU end of its current list (no-op when pinned).
  void Touch(PageFrame* frame) {
    if (frame->list == PageFrame::Residency::kClean) {
      clean_lru_.splice(clean_lru_.end(), clean_lru_, frame->lru_it);
    } else if (frame->list == PageFrame::Residency::kDirty) {
      dirty_lru_.splice(dirty_lru_.end(), dirty_lru_, frame->lru_it);
    }
  }

  std::list<PageFrame*>& ListOf(PageFrame::Residency kind) {
    return kind == PageFrame::Residency::kClean ? clean_lru_ : dirty_lru_;
  }

  /// Detaches a frame from whichever list holds it.
  void Unlist(PageFrame* frame) {
    if (frame->list != PageFrame::Residency::kNone) {
      ListOf(frame->list).erase(frame->lru_it);
      frame->list = PageFrame::Residency::kNone;
    }
  }

  /// Appends a frame at the MRU end of `kind`, detaching it first.
  void MoveToList(PageFrame* frame, PageFrame::Residency kind) {
    Unlist(frame);
    auto& lst = ListOf(kind);
    frame->lru_it = lst.insert(lst.end(), frame);
    frame->list = kind;
  }

  std::uint64_t page_bytes_;
  std::uint64_t elems_per_page_;
  std::uint64_t capacity_bytes_;
  std::size_t num_pinned_ = 0;
  /// Frame storage behind unique_ptrs, so a frame's address survives
  /// rehash and its move to the free list.
  std::unordered_map<std::uint64_t, std::unique_ptr<PageFrame>> frames_;
  /// Retired frames awaiting reuse by Insert.
  std::vector<std::unique_ptr<PageFrame>> free_frames_;
  std::list<PageFrame*> clean_lru_;  // front = LRU, back = MRU
  std::list<PageFrame*> dirty_lru_;
  std::unordered_map<std::uint64_t, PendingFetch> pending_;
};

}  // namespace mm::core
