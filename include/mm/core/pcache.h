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
// Concurrency contract (DESIGN.md §14): PCache has ONE owner — the rank
// thread whose Vector holds it. All mutating calls (Insert/Remove/Find/
// Mark*/Pin/Unpin/Clear) are owner-only and unlocked: Find/Touch/PickVictim
// are on the DESIGN.md §7 hot path and must stay lock- and check-free (lint
// rule MML004). What PR 7 adds is a *lock-free optimistic read side*:
// frames carry a seqlock (`PageFrame::seq`, even = stable, odd = writer in
// section) and are published through a fixed-size atomic page index, so any
// thread may PeekFrame() and copy bytes under an OptimisticGuard
// (core/optimistic_guard.h), validating the sequence word afterwards.
// Frames are recycled through a free list, never freed before the PCache
// itself dies, and (with optimistic readers armed) their published buffers
// are type-stable — refills copy into them rather than swapping them out —
// so a stale pointer read racing retirement dereferences live memory and
// then fails validation. Do not add a "just in case" mutex here.
#pragma once

#include <atomic>
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
#include "mm/util/thread_annotations.h"

namespace mm::core {

/// The per-frame sequence latch (seqlock word). Even = stable, odd = the
/// owner thread is mutating the frame. Optimistic readers load it before
/// and after copying bytes; writers bump it around every mutation, so a
/// read that overlapped a write never validates. Single writer by
/// construction (the owning rank thread), so Lock/Unlock are plain
/// fetch_adds, not CAS loops.
class MM_CAPABILITY("seqlatch") SeqLatch {
 public:
  /// Enters a write section: even -> odd. Owner thread only. Deliberately
  /// unannotated: retirement (PCache::Remove) leaves the latch odd forever,
  /// which is the protocol, not a leak — the annotated RAII entry point is
  /// FrameWriteGuard (core/optimistic_guard.h).
  void Lock() { word_.fetch_add(1, std::memory_order_acq_rel); }
  /// Leaves a write section: odd -> even, publishing the mutation.
  void Unlock() { word_.fetch_add(1, std::memory_order_release); }
  /// Acquire-load for optimistic readers (OptimisticGuard).
  std::uint64_t ReadAcquire() const {
    return word_.load(std::memory_order_acquire);
  }
  /// Relaxed re-load for validation (after an acquire fence).
  std::uint64_t ReadRelaxed() const {
    return word_.load(std::memory_order_relaxed);
  }
  static bool Stable(std::uint64_t word) { return (word & 1) == 0; }

 private:
  std::atomic<std::uint64_t> word_{0};
};

/// One cached page. The LRU bookkeeping fields are managed exclusively by
/// PCache; users touch `data`, `dirty` and — through the OptimisticGuard
/// API only (lint rule MML009) — `version`. Fields fall into three
/// disciplines:
///   - owner-only, never read concurrently: data (the vector object),
///     dirty, list, lru_it;
///   - atomics readable from any thread, seq-validated: page, version,
///     bytes (the published data pointer), pins;
///   - the seqlock itself: seq.
/// PageFrame is neither movable nor copyable (atomics); PCache owns frames
/// behind stable unique_ptrs and recycles retired ones through a free list.
struct PageFrame {
  std::vector<std::uint8_t> data;  // owner-only; swapped only inside a
                                   // write section (readers use `bytes`)
  Bitmap dirty;                    // one bit per element; owner-only
  /// Seqlock guarding optimistic reads of this frame (DESIGN.md §14).
  SeqLatch seq;
  /// Write-version of the scache page this frame was loaded from (or last
  /// committed to). Compared against metadata at TxBegin. Raw access is
  /// confined to core/pcache and core/optimistic_guard (MML009); everyone
  /// else goes through OptimisticGuard::Version/SetVersion.
  std::atomic<std::uint64_t> version{0};
  /// Published pointer to data.data(); what optimistic readers copy from.
  /// Dereferencing requires the seqlock discipline.
  std::atomic<std::uint8_t*> bytes MM_PT_GUARDED_BY(seq){nullptr};
  /// Page number this frame currently holds (~0 while retired/uninserted).
  std::atomic<std::uint64_t> page{~0ULL};
  /// Pin count (span access). Owner-mutated, any-thread readable.
  std::atomic<std::uint32_t> pins{0};

  // ---- intrusive LRU state (owner-only, managed by PCache) ----
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

/// One PCache per (rank, vector). Mutations are owner-thread-only; the
/// lock-free read side (PeekFrame + OptimisticGuard) is safe from any
/// thread (see the header comment and DESIGN.md §14).
class PCache {
 public:
  /// `optimistic_readers` arms the lock-free read side's buffer-lifetime
  /// rules: once a frame's buffer has been published to readers it becomes
  /// type-stable — Insert copies new bytes into it (atomic stores) instead
  /// of swapping it out, so a stale reader can never dereference freed
  /// memory — and span pins hold the frame's seqlock odd so raw span
  /// writes never overlap a validated read. Off (the default), no
  /// cross-thread readers exist and Insert keeps the zero-copy swap.
  PCache(std::uint64_t page_bytes, std::uint64_t elems_per_page,
         std::uint64_t capacity_bytes, bool optimistic_readers = false)
      : page_bytes_(page_bytes),
        elems_per_page_(elems_per_page),
        capacity_bytes_(capacity_bytes),
        optimistic_readers_(optimistic_readers) {
    ResizeIndex();
  }

  std::uint64_t page_bytes() const { return page_bytes_; }
  std::uint64_t capacity() const { return capacity_bytes_; }
  /// Owner-only, and only safe while no optimistic reader is probing (it
  /// may rebuild the lock-free index). BoundMemory calls this at setup.
  void set_capacity(std::uint64_t bytes) {
    capacity_bytes_ = bytes;
    if (frames_.empty()) ResizeIndex();
  }
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

  /// Lock-free resident-frame probe for optimistic readers: no LRU touch,
  /// no map access, safe from any thread. The returned frame may be
  /// retired or re-targeted at any moment — callers MUST read it through
  /// an OptimisticGuard and honor validation. May return nullptr for a
  /// resident page (index overflow); callers fall back to the queue path.
  const PageFrame* PeekFrame(std::uint64_t page) const {
    const std::size_t n = index_.size();
    const std::size_t mask = n - 1;
    std::size_t slot = MixPage(page) & mask;
    for (std::size_t probe = 0; probe < n; ++probe) {
      const IndexSlot& s = index_[slot];
      std::uint64_t p = s.page.load(std::memory_order_acquire);
      if (p == kSlotEmpty) return nullptr;
      if (p == page) return s.frame.load(std::memory_order_acquire);
      slot = (slot + 1) & mask;  // tombstone or another page: keep probing
    }
    return nullptr;
  }

  /// True when inserting one more page would exceed capacity. Counts
  /// in-flight prefetches (committed), so prefetching cannot overshoot the
  /// BoundMemory cap while fetches are outstanding.
  bool NeedsEviction() const {
    return committed() + page_bytes_ > capacity_bytes_ && !frames_.empty();
  }

  /// Inserts a fetched page (caller must have made room). The data must be
  /// exactly page_bytes long. The new frame enters the clean LRU list.
  /// Frames are recycled from the retired free list. The buffer handed
  /// back through *recycled (if non-null) keeps the zero-alloc loop of
  /// DESIGN.md §7 closed; with optimistic readers off it is the recycled
  /// frame's displaced buffer, with them on it is the caller's own `data`
  /// vector (the published buffer is type-stable: new bytes are copied
  /// into it with atomic stores, so a stale lock-free reader always
  /// dereferences live memory and then fails validation).
  PageFrame* Insert(std::uint64_t page, std::vector<std::uint8_t> data,
                    std::vector<std::uint8_t>* recycled = nullptr);

  /// Marks elements [elem_lo, elem_hi) of a page dirty (span write path:
  /// one call per page instead of one bit per element).
  void MarkDirty(std::uint64_t page, std::size_t elem_lo, std::size_t elem_hi);

  /// Scalar write fast path: dirties one element of an already-found frame
  /// without a second hash lookup. Owner-only state (dirty bitmap + LRU),
  /// so no seqlock section: the byte mutation itself is what writers must
  /// bracket (Vector::Set does, when concurrent readers are enabled).
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
      return clean_lru_.front()->page.load(std::memory_order_relaxed);
    }
    if (!dirty_lru_.empty()) {
      return dirty_lru_.front()->page.load(std::memory_order_relaxed);
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
  /// runs) until the next Insert reuses it. Its seqlock is left odd, so
  /// optimistic readers that still hold the pointer can never validate.
  /// Returns nullptr when the page is not resident.
  PageFrame* Remove(std::uint64_t page);

  // ---- pinning (span access) ----

  /// Pins a resident page: it leaves the LRU lists and cannot be evicted
  /// until every pin is released. Pins nest.
  void Pin(std::uint64_t page);
  void Unpin(std::uint64_t page);
  bool IsPinned(std::uint64_t page) const {
    auto it = frames_.find(page);
    return it != frames_.end() &&
           it->second->pins.load(std::memory_order_relaxed) > 0;
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
  /// Drops every pending fetch (as in Clear); resident frames stay.
  /// Returns how many fetches were dropped. Used at phase changes: a
  /// pending prefetch was routed and versioned under the old phase's
  /// coherence rules, so adopting it later could resurrect an invalidated
  /// replica's data.
  std::size_t DropPendings() {
    std::size_t n = pending_.size();
    pending_.clear();
    return n;
  }
  /// Prefetches in flight also count against the capacity budget.
  std::uint64_t committed() const {
    return used() + pending_.size() * page_bytes_;
  }

  /// Retires all frames and drops pending fetches unadopted (used on
  /// Destroy, where the fetched bytes are moot). Retired frames stay
  /// allocated on the free list, so optimistic readers racing a Destroy
  /// fail validation instead of dereferencing freed memory.
  void Clear();

 private:
  // The lock-free page index: a fixed open-addressed table of atomic
  // (page, frame) slots, written by the owner on Insert/Remove and probed
  // by PeekFrame from any thread. Sized at construction (and on
  // set_capacity while still empty) to 4x the frame budget; overflowing
  // inserts simply go unindexed — optimistic readers then miss and fall
  // back, which is slow but never wrong.
  static constexpr std::uint64_t kSlotEmpty = ~0ULL;
  static constexpr std::uint64_t kSlotTombstone = ~0ULL - 1;
  struct IndexSlot {
    std::atomic<std::uint64_t> page{kSlotEmpty};
    std::atomic<PageFrame*> frame{nullptr};
  };

  static std::uint64_t MixPage(std::uint64_t x) {
    // splitmix64 finalizer: page numbers are sequential, spread them.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  void ResizeIndex();
  /// Publishes / unpublishes a frame in the lock-free index (owner-only).
  void IndexPut(std::uint64_t page, PageFrame* frame);
  void IndexErase(std::uint64_t page);

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
  /// Lock-free read side armed: published buffers are type-stable and
  /// span pins hold the seqlock odd (see the constructor comment).
  bool optimistic_readers_ = false;
  std::size_t num_pinned_ = 0;
  /// Frame storage. unique_ptr (not by-value) for two load-bearing
  /// reasons: PageFrame holds atomics (immovable), and optimistic readers
  /// need frame addresses stable across rehash and retirement.
  std::unordered_map<std::uint64_t, std::unique_ptr<PageFrame>> frames_;
  /// Retired frames awaiting reuse; their buffers and bytes stay alive so
  /// racing optimistic readers dereference live memory and fail validation.
  std::vector<std::unique_ptr<PageFrame>> free_frames_;
  std::vector<IndexSlot> index_;
  std::list<PageFrame*> clean_lru_;  // front = LRU, back = MRU
  std::list<PageFrame*> dirty_lru_;
  std::unordered_map<std::uint64_t, PendingFetch> pending_;
};

}  // namespace mm::core
